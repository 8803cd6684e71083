"""Per-layer accounting for the traced benchmark run.

The traced run wraps public functions and methods of each ``repro`` layer at
runtime; no file under ``src/`` changes.  Each wrapped call opens a frame on a
thread-local stack, and a layer's *self* time is the call's duration minus
the time spent in wrapped calls nested inside it on the same thread.  Summing
self times therefore never counts a second twice, unlike summing inclusive
span durations.

The safety scan's three phases are not function boundaries, so they are read
from the spans ``repro.obs`` already emits; tracing is switched on through the
public ``obs.trace.enable`` only while ``check_safety`` runs.

Importing this module does not import ``repro``; :func:`install` does.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# time.monotonic is the clock repro.obs stamps spans with, so wrapped-call
# intervals and program spans share one timeline.
clock = time.monotonic

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("failures.enumerate_s", "s"),
    ("failures.patterns", "count"),
    ("exchange.advance_s", "s"),
    ("exchange.advance_calls", "count"),
    ("simulation.build_s", "s"),
    ("simulation.runs", "count"),
    ("systems.intern_s", "s"),
    ("systems.points", "count"),
    ("systems.classes", "count"),
    ("logic.eval_s", "s"),
    ("logic.class_ids_s", "s"),
    ("logic.evals", "count"),
    ("kbp.implements_s", "s"),
    ("kbp.equivalence_s", "s"),
    ("kbp.safety_s", "s"),
    ("kbp.safety.primitives_s", "s"),
    ("kbp.safety.chain_receipts_s", "s"),
    ("kbp.safety.clause_scan_s", "s"),
    ("kbp.safety.points", "count"),
    ("store.key_s", "s"),
    ("store.put_s", "s"),
    ("store.get_s", "s"),
    ("store.put_bytes", "bytes"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("service.queue_wait_s", "s"),
    ("service.attempt_s", "s"),
    ("service.http_s", "s"),
    ("service.executed", "count"),
    ("service.coalesced", "count"),
    ("service.store_hits", "count"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("host.calib_s", "s"),
)

#: The count metrics; two traced runs of the same code must agree on each.
COUNTS: Tuple[str, ...] = tuple(name for name, unit in PER_LAYER
                                if unit in ("count", "bytes"))

#: The safety-scan phase spans ``repro.kbp.safety`` emits, by metric.
SAFETY_PHASES = {
    "safety.primitives": "kbp.safety.primitives_s",
    "safety.chain_receipts": "kbp.safety.chain_receipts_s",
    "safety.clause_scan": "kbp.safety.clause_scan_s",
}

# Inclusive-time keys that feed derived metrics but are not reported as such.
_CLIENT = "service.client_calls"
_SUBMIT = "service.server_submit"


class _Frame:
    __slots__ = ("metric", "child", "intervals")

    def __init__(self, metric: str, intervals: Optional[list]) -> None:
        self.metric = metric
        self.child = 0.0
        self.intervals = intervals


class _Tally:
    """One thread's accumulators (merged when the run ends)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.stack: List[_Frame] = []
        self.top = 0.0  # inclusive time of outermost wrapped calls


class Recorder:
    """Wraps layer functions and accumulates self time and counts per thread."""

    def __init__(self, obs_dir: str) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[_Tally] = []
        self._main = self.tally()
        self._obs_dir = obs_dir
        self._obs_files = 0

    def tally(self) -> _Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _Tally()
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    # ------------------------------------------------------------------ frames

    def _call(self, metric: str, fn: Callable, args, kwargs,
              intervals: Optional[list] = None):
        tally = self.tally()
        frame = _Frame(metric, intervals)
        stack = tally.stack
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            tally.self_s[metric] += elapsed - frame.child
            tally.incl_s[metric] += elapsed
            if stack:
                parent = stack[-1]
                parent.child += elapsed
                if parent.intervals is not None:
                    parent.intervals.append((start, start + elapsed))
            else:
                tally.top += elapsed

    def timed(self, metric: str, fn: Callable,
              after: Optional[Callable[[_Tally, Any, tuple], None]] = None) -> Callable:
        """``fn`` charged to ``metric``; ``after(tally, result, args)`` runs untimed."""
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(metric, fn, args, kwargs)
            if after is not None:
                after(self.tally(), result, args)
            return result
        return wrapper

    def counted(self, fn: Callable,
                after: Callable[[_Tally, Any, tuple], None]) -> Callable:
        """``fn`` untimed (its time stays with the caller); ``after`` counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self.tally(), result, args)
            return result
        return wrapper

    def timed_iter(self, metric: str, count: str, fn: Callable) -> Callable:
        """An iterator-returning ``fn``; each ``next`` is charged to ``metric``.

        Items are counted only by the outermost frame of ``metric``, so an
        enumeration that drains another wrapped enumeration counts once.
        """
        call = self._call

        def drain(iterator):
            while True:
                tally = self.tally()
                nested = bool(tally.stack) and tally.stack[-1].metric == metric
                try:
                    item = call(metric, next, (iterator,), {})
                except StopIteration:
                    return
                if not nested:
                    tally.counts[count] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return drain(iter(fn(*args, **kwargs)))
        return wrapper

    def safety(self, fn: Callable) -> Callable:
        """``check_safety``, with its phase spans read back from ``repro.obs``."""
        from repro.obs import trace as obs_trace

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            intervals: list = []
            owned = not obs_trace.is_active()
            path = os.path.join(self._obs_dir, f"obs-{os.getpid()}-{self._obs_files}.jsonl")
            self._obs_files += 1
            if owned:
                obs_trace.enable(path)
            try:
                report = self._call("kbp.safety_s", fn, args, kwargs, intervals)
            finally:
                if owned:
                    obs_trace.disable()
            tally = self.tally()
            tally.counts["kbp.safety.points"] += report.points_checked
            if owned and os.path.exists(path):
                for record in obs_trace.read_trace(path):
                    metric = SAFETY_PHASES.get(record.get("name"))
                    if record["type"] != "span" or metric is None:
                        continue
                    start, end = record["ts"], record["ts"] + record["dur"]
                    nested = sum(max(0.0, min(end, b) - max(start, a))
                                 for a, b in intervals)
                    tally.self_s[metric] += record["dur"] - nested
            return report
        return wrapper

    # ------------------------------------------------------------------ results

    def metrics(self, wall: float) -> Dict[str, float]:
        """Merged per-layer values; ``unattributed_s`` is ``wall`` minus the
        main thread's outermost wrapped calls."""
        self_s: Dict[str, float] = defaultdict(float)
        incl_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for key, value in tally.self_s.items():
                self_s[key] += value
            for key, value in tally.incl_s.items():
                incl_s[key] += value
            for key, value in tally.counts.items():
                counts[key] += value
        out: Dict[str, float] = {}
        for name, unit in PER_LAYER:
            if unit in ("count", "bytes"):
                out[name] = counts.get(name, 0)
            else:
                out[name] = self_s.get(name, 0.0)
        # The server thread's admission work is not HTTP; the client's
        # round trips minus it are the wire, socket and handler cost.
        out["service.http_s"] = max(0.0, incl_s.get(_CLIENT, 0.0) - incl_s.get(_SUBMIT, 0.0))
        out["service.attempt_s"] = incl_s.get("service.attempt_s", 0.0)
        out["unattributed_s"] = wall - self._main.top
        return out


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding into each importer)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, name, make(cls.__dict__[name]))


def install(obs_dir: str) -> Recorder:
    """Import the ``repro`` entry points and wrap every measured layer."""
    import repro.cli  # noqa: F401 - loads the modules whose bindings are rebound
    from repro.exchange.commgraph import CommGraph
    from repro.failures.models import FailureModel
    from repro.kbp import implementation as kbp_impl
    from repro.kbp import safety as kbp_safety
    from repro.logic import words
    from repro.logic.semantics import ModelChecker
    from repro.service import workers
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobQueue
    from repro.service.server import JobServer
    from repro.simulation import engine
    from repro.simulation.batch import BatchSimulator
    from repro.store import keys
    from repro.store.backends import FilesystemBackend
    from repro.store.store import ArtifactStore
    from repro.systems.interpreted import InterpretedSystem

    rec = Recorder(obs_dir)

    def count(metric: str, amount: Callable[[Any, tuple], int]):
        def after(tally: _Tally, result, args) -> None:
            tally.counts[metric] += amount(result, args)
        return after

    # failures: pattern enumeration (lazy, drained by the system build)
    classes = [FailureModel]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        for name in ("enumerate", "enumerate_orbits"):
            if name in cls.__dict__:
                _patch_method(cls, name, lambda fn: rec.timed_iter(
                    "failures.enumerate_s", "failures.patterns", fn))

    # exchange: one communication-graph round transition
    _patch_method(CommGraph, "advance", lambda fn: rec.timed(
        "exchange.advance_s", fn, count("exchange.advance_calls", lambda r, a: 1)))

    # simulation: batched and per-run construction
    _patch_method(BatchSimulator, "simulate_scenarios", lambda fn: rec.timed(
        "simulation.build_s", fn, count("simulation.runs", lambda r, a: len(r))))
    original = engine.simulate
    _rebind(original, rec.timed("simulation.build_s", original,
                                count("simulation.runs", lambda r, a: 1)))

    # systems: interning local states into per-agent partitions
    def interned(tally: _Tally, _result, args) -> None:
        system = args[0]
        tally.counts["systems.points"] += system.num_points
        tally.counts["systems.classes"] += sum(
            len(system.partition(agent).class_masks) for agent in range(system.n))
    _patch_method(InterpretedSystem, "intern_states",
                  lambda fn: rec.timed("systems.intern_s", fn, interned))
    _patch_method(BatchSimulator, "partitions",
                  lambda fn: rec.timed("systems.intern_s", fn))

    # logic: formula evaluation and class-id arrays
    for name in ("satisfying_words", "satisfying_mask"):
        _patch_method(ModelChecker, name, lambda fn: rec.timed(
            "logic.eval_s", fn, count("logic.evals", lambda r, a: 1)))
    original = words.class_ids_from_masks
    _rebind(original, rec.timed("logic.class_ids_s", original))

    # kbp: implementation checks, program equivalence, the safety scan
    original = kbp_impl.check_implements
    _rebind(original, rec.timed("kbp.implements_s", original))
    original = kbp_impl.programs_equivalent
    _rebind(original, rec.timed("kbp.equivalence_s", original))
    original = kbp_safety.check_safety
    _rebind(original, rec.safety(original))

    # store: content keys, puts (serialization included), gets, bytes written
    original = keys.content_key
    _rebind(original, rec.timed("store.key_s", original))
    _patch_method(ArtifactStore, "put", lambda fn: rec.timed("store.put_s", fn))
    def looked_up(tally: _Tally, artifact, _args) -> None:
        tally.counts["store.misses" if artifact is None else "store.hits"] += 1
    _patch_method(ArtifactStore, "get", lambda fn: rec.timed("store.get_s", fn, looked_up))
    _patch_method(FilesystemBackend, "put", lambda fn: rec.counted(
        fn, count("store.put_bytes", lambda r, a: len(a[2]))))

    # service: queue wait, job attempts, client round trips, server admission
    def queue_wait(tally: _Tally, job, _args) -> None:
        if job is not None and job.started_at is not None:
            tally.self_s["service.queue_wait_s"] += job.started_at - job.submitted_at
    _patch_method(JobQueue, "next_job", lambda fn: rec.counted(fn, queue_wait))
    original = workers.execute_request
    _rebind(original, rec.timed("service.attempt_s", original))
    for name in ("submit", "status", "result"):
        _patch_method(ServiceClient, name, lambda fn: rec.timed(_CLIENT, fn))
    _patch_method(JobServer, "submit", lambda fn: rec.timed(_SUBMIT, fn))
    return rec
