#!/usr/bin/env python3
"""Validate and summarize a ``--trace FILE`` span trace (CI: obs-smoke).

Usage::

    repro-eba experiment e7 --n 3 --t 1 --trace /tmp/e7.jsonl
    python tools/trace_report.py /tmp/e7.jsonl              # summary table
    python tools/trace_report.py /tmp/e7.jsonl --waterfall  # + top-span bars
    python tools/trace_report.py /tmp/e7.jsonl --json       # machine-readable

Every record is checked against the pinned schema of
:mod:`repro.obs.trace` first; any invalid line makes the report exit
non-zero, so CI can gate on "the tracer only ever writes what it promised".
The summary aggregates spans by name (count / total / self / mean / max
duration) per category.  ``total`` sums inclusive durations, so a nested
span counts in both its parent and itself; ``self`` subtracts each span's
direct children (same pid, ``parent`` equal to the span's ``id``).  The
waterfall renders the longest spans against the trace's wall-clock extent —
enough to see where a build → check pipeline spends its time without
leaving the terminal.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import trace as obs_trace  # noqa: E402

#: Width of the waterfall bar column, characters.
BAR_WIDTH = 50


def load(path: Path) -> list:
    """Read and schema-validate every record; exit 1 on the first bad line."""
    records = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    obs_trace.validate_record(record)
                except Exception as exc:
                    print(f"{path}:{number}: invalid trace record: {exc}",
                          file=sys.stderr)
                    raise SystemExit(1)
                records.append(record)
    except OSError as exc:
        print(f"could not read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)
    if not records:
        print(f"{path}: empty trace", file=sys.stderr)
        raise SystemExit(1)
    if not any(record["type"] == "meta" for record in records):
        print(f"{path}: no meta record (truncated trace?)", file=sys.stderr)
        raise SystemExit(1)
    return records


def aggregate(records: list) -> dict:
    """Per-(cat, name) span statistics plus trace-wide extent and pids.

    A span's self time is its ``dur`` minus the ``dur`` of its direct
    children: spans of the same pid whose ``parent`` is the span's ``id``
    (ids are per process, so a pool worker's spans never reduce a
    coordinator span that happens to share an id).
    """
    stats = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0})
    child_dur = defaultdict(float)
    for record in records:
        if record["type"] == "span" and record["parent"] is not None:
            child_dur[(record["pid"], record["parent"])] += record["dur"]
    start = end = None
    pids = set()
    for record in records:
        pids.add(record["pid"])
        if record["type"] != "span":
            continue
        entry = stats[(record["cat"], record["name"])]
        entry["count"] += 1
        entry["total"] += record["dur"]
        entry["self"] += record["dur"] - child_dur.get((record["pid"], record["id"]), 0.0)
        entry["max"] = max(entry["max"], record["dur"])
        start = record["ts"] if start is None else min(start, record["ts"])
        stop = record["ts"] + record["dur"]
        end = stop if end is None else max(end, stop)
    return {
        "spans": {f"{cat}/{name}" if cat else name:
                  {**entry, "mean": entry["total"] / entry["count"]}
                  for (cat, name), entry in sorted(stats.items())},
        "events": sum(record["type"] == "event" for record in records),
        "records": len(records),
        "pids": sorted(pids),
        "extent": 0.0 if start is None else end - start,
    }


def render_summary(report: dict) -> str:
    lines = [f"{report['records']} records, {report['events']} events, "
             f"{len(report['pids'])} process(es), "
             f"extent {report['extent']:.3f}s", ""]
    if not report["spans"]:
        lines.append("(no spans)")
        return "\n".join(lines)
    name_width = max(len(name) for name in report["spans"])
    lines.append(f"{'span':<{name_width}}  {'count':>6}  {'total':>9}  "
                 f"{'self':>9}  {'mean':>9}  {'max':>9}")
    for name, entry in sorted(report["spans"].items(),
                              key=lambda item: -item[1]["total"]):
        lines.append(f"{name:<{name_width}}  {entry['count']:>6}  "
                     f"{entry['total']:>8.3f}s  {entry['self']:>8.3f}s  "
                     f"{entry['mean']:>8.4f}s  {entry['max']:>8.4f}s")
    return "\n".join(lines)


def render_waterfall(records: list, top: int = 20) -> str:
    """The ``top`` longest spans as bars over the trace's wall-clock extent."""
    spans = [record for record in records if record["type"] == "span"]
    if not spans:
        return "(no spans)"
    start = min(record["ts"] for record in spans)
    end = max(record["ts"] + record["dur"] for record in spans)
    extent = max(end - start, 1e-9)
    longest = sorted(spans, key=lambda record: -record["dur"])[:top]
    longest.sort(key=lambda record: record["ts"])
    name_width = max(len(record["name"]) for record in longest)
    lines = [f"waterfall ({len(longest)} longest spans over {extent:.3f}s):"]
    for record in longest:
        offset = int(BAR_WIDTH * (record["ts"] - start) / extent)
        width = max(1, int(BAR_WIDTH * record["dur"] / extent))
        bar = " " * offset + "#" * min(width, BAR_WIDTH - offset)
        lines.append(f"{record['name']:<{name_width}}  |{bar:<{BAR_WIDTH}}| "
                     f"{record['dur']:.4f}s pid={record['pid']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate and summarize a repro.obs trace file")
    parser.add_argument("trace", type=Path, help="JSONL trace from --trace FILE")
    parser.add_argument("--waterfall", action="store_true",
                        help="also render the longest spans as time bars")
    parser.add_argument("--top", type=int, default=20,
                        help="spans in the waterfall (default 20)")
    parser.add_argument("--json", action="store_true",
                        help="print the aggregated report as JSON")
    args = parser.parse_args(argv)
    records = load(args.trace)
    report = aggregate(records)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_summary(report))
        if args.waterfall:
            print()
            print(render_waterfall(records, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
