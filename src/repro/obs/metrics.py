"""A process-wide metrics registry: counters, gauges, histograms.

One :data:`REGISTRY` aggregates what used to live as scattered instance
counters — :meth:`JobQueue.stats` tallies, :class:`~repro.store.StoreStats`,
the journal's ``write_errors``/``torn_lines`` — into a single source of truth
with three export surfaces:

* ``GET /metrics`` on the job server — Prometheus text exposition (or JSON
  with ``?format=json``);
* an embedded ``metrics`` block in ``GET /stats``;
* the ``repro-eba obs`` CLI — a summary table, or ``--json``.

The pinned per-instance schemas (``StoreStats.as_dict()``, the queue's
``stats()`` dict) keep working unchanged: instances mirror their increments
into the registry, so the registry holds the *process-level* totals across
every store/queue/journal that ever lived in the process.

Everything is stdlib, lock-per-metric, and cheap enough to increment from hot
paths (one lock acquire + integer add).  Metric names follow the Prometheus
conventions: ``repro_<noun>_total`` for counters, base units for histograms.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "REGISTRY",
    "counter", "gauge", "histogram", "render_table",
]

#: Prometheus text exposition content type (version pinned by the format spec).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default histogram buckets (seconds): tuned for simulation/check latencies
#: that span sub-millisecond store hits to minute-scale n=5 scans.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


def _valid_name(name: str) -> bool:
    if not name:
        return False
    head, tail = name[0], name[1:]
    if not (head.isalpha() or head in "_:"):
        return False
    return all(ch.isalnum() or ch in "_:" for ch in tail)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _render(self) -> List[str]:
        return [f"{self.name} {self.value}"]

    def _snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """A value that can go up and down — or track a live callback.

    ``set_function`` installs a callable sampled at scrape time (e.g. the
    queue's current depth); a sampling error reads as the last set value
    rather than breaking the scrape.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value: float = 0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._function = None

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, function: Optional[Callable[[], float]]) -> None:
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        with self._lock:
            function = self._function
            fallback = self._value
        if function is not None:
            try:
                return function()
            except Exception:
                return fallback
        return fallback

    def _reset(self) -> None:
        with self._lock:
            self._value = 0
            self._function = None

    def _render(self) -> List[str]:
        return [f"{self.name} {_format_value(self.value)}"]

    def _snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """A cumulative-bucket histogram of observations (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +1 = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def _state(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    @property
    def count(self) -> int:
        return self._state()[2]

    @property
    def sum(self) -> float:
        return self._state()[1]

    def _render(self) -> List[str]:
        counts, total, count = self._state()
        lines = []
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            lines.append(f'{self.name}_bucket{{le="{_format_value(bound)}"}} {cumulative}')
        cumulative += counts[-1]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{self.name}_sum {_format_value(total)}")
        lines.append(f"{self.name}_count {count}")
        return lines

    def _snapshot(self) -> dict:
        counts, total, count = self._state()
        buckets = {}
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            buckets[_format_value(bound)] = cumulative
        cumulative += counts[-1]
        buckets["+Inf"] = cumulative
        return {"type": self.kind, "help": self.help, "sum": total,
                "count": count, "buckets": buckets}


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Name → metric table with get-or-create registration.

    Re-registering an existing name returns the existing metric (of the same
    kind — a kind clash raises), so modules can declare their handles at
    import time without import-order coordination.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, Counter | Gauge | Histogram]" = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        if not _valid_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {metric.kind}")
                return metric
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        """The registered metric, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def _sorted(self) -> List["Counter | Gauge | Histogram"]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe view of every metric (``/metrics?format=json``,
        ``/stats``'s ``metrics`` block, ``repro-eba obs --json``)."""
        return {metric.name: metric._snapshot() for metric in self._sorted()}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, sorted by metric name."""
        lines: List[str] = []
        for metric in self._sorted():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric._render())
        return "\n".join(lines) + "\n"

    def reset_for_tests(self) -> None:
        """Zero every metric **in place** (handles cached by other modules
        stay registered and live).  Test isolation only."""
        for metric in self._sorted():
            metric._reset()


#: The process-wide registry every instrumented module registers into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "") -> Counter:
    """Get-or-create a counter on the process-wide :data:`REGISTRY`."""
    return REGISTRY.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Get-or-create a gauge on the process-wide :data:`REGISTRY`."""
    return REGISTRY.gauge(name, help)


def histogram(name: str, help: str = "",
              buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    """Get-or-create a histogram on the process-wide :data:`REGISTRY`."""
    return REGISTRY.histogram(name, help, buckets=buckets)


def render_table(snapshot: Dict[str, dict]) -> str:
    """Align a :meth:`MetricsRegistry.snapshot` as a fixed-width summary table
    (the ``repro-eba obs`` default output)."""
    rows: List[Tuple[str, str, str]] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "?")
        if kind == "histogram":
            count = entry.get("count", 0)
            total = entry.get("sum", 0.0)
            mean = (total / count) if count else 0.0
            value = f"count={count} mean={mean:.4g}s"
        else:
            value = _format_value(entry.get("value", 0))
        rows.append((name, kind, value))
    if not rows:
        return "(no metrics recorded)"
    name_width = max(len(row[0]) for row in rows)
    kind_width = max(len(row[1]) for row in rows)
    lines = [f"{name:<{name_width}}  {kind:<{kind_width}}  {value}"
             for name, kind, value in rows]
    return "\n".join(lines)
