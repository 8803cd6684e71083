#!/usr/bin/env python3
"""The repo benchmark: the paths a user runs, timed end to end and per layer.

    python3 perfbench/run.py --workload e11-n4 --seed 1 --seconds 50 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``e11-n4`` -- ``repro-eba experiment e11 --n 4 --t 1``, no store;
* ``service-theorems`` -- an in-process JobServer (2 workers, filesystem
  store) driven over loopback HTTP: a cold phase, a coalesced pair and a
  warm closed loop ordered by ``--seed``;
* ``e7-n4-cache`` -- ``repro-eba experiment e7 --n 4 --t 1 --cache-dir D``
  on an empty D (cold), then again in a fresh process on the warm D.  It is
  run by hand only: one cold pass takes ~35 s, too long to sample steadily
  within one run, so ``BENCHMARK.json`` does not list it.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` a
separate traced run reports the per-layer metrics.  Every output is checked
against golden digests, and the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import child
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"), ("peak_rss_mb", "MB"))
#: Set-up measurements per run; the median is reported.  Every service
#: sample starts its own server and adds one more.
SETUP_REPEATS = {"e7-n4-cache": 9, "e11-n4": 9, "service-theorems": 5}
#: No child may outlive this; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0
CLI_COMMANDS = {
    "e7-n4-cache": ["experiment", "e7", "--n", "4", "--t", "1"],
    "e11-n4": ["experiment", "e11", "--n", "4", "--t", "1"],
}
#: Samples per run at the least, however long they take: one e7 sample lasts
#: ~35 s, so an e7 run would otherwise hold a single one.
MIN_SAMPLES = 2
#: A run must end within 180 s, so no sample starts that would likely end
#: past this point, even when a slow host leaves it short of MIN_SAMPLES.
RUN_BUDGET_S = 140.0
#: The verdict column of each CLI table and its row count.
CLI_VERDICTS = {"e7-n4-cache": ("holds", 5), "e11-n4": ("safe", 2)}

clock = time.perf_counter


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host runs now."""
    start = clock()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return clock() - start


class Run:
    """One benchmark invocation: its scratch directory, children and checks."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ops = child.Ops()
        self.golden = child.load_golden()
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_EBA")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8", TMPDIR=str(work))
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{stem}-{self._serial}"

    # ------------------------------------------------------------------ children

    def spawn(self, argv: List[str], out: Path,
              on_ready: Optional[Callable[[float], None]] = None) -> Dict[str, float]:
        """Run one child to completion; wall time from spawn, exit code, peak RSS.

        ``on_ready`` receives the time from spawn to the child's first stdout
        line (the set-up time); the rest of its stdout goes to ``out``.
        """
        err = out.with_name(out.name + ".err")
        with open(out, "wb") as out_handle, open(err, "wb") as err_handle:
            start = clock()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env,
                stdout=subprocess.PIPE if on_ready else out_handle, stderr=err_handle)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                if on_ready is not None:
                    line = proc.stdout.readline()
                    ready = clock() - start
                    if line.strip() == b"ready":
                        on_ready(ready)
                    shutil.copyfileobj(proc.stdout, out_handle)
                    proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = clock() - start
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.ops.problems.append(f"{' '.join(argv)} exited {proc.returncode}: "
                                     f"{err.read_text(errors='replace')[-400:]}")
        return {"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}

    def setup_times(self) -> List[float]:
        """Interpreter start plus ``import repro`` (and, for the service, a
        server answering ``/healthz``), each in a fresh process."""
        times: List[float] = []
        for _ in range(SETUP_REPEATS[self.workload]):
            if self.workload == "service-theorems":
                argv = [str(HERE / "child.py"), "setup-service", "--store",
                        str(self.path("setup-store"))]
            else:
                argv = ["-c", "import repro.cli; print('ready', flush=True)"]
            before = len(times)
            result = self.spawn(argv, self.path("setup.out"), on_ready=times.append)
            self.ops.record(result["code"] == 0 and len(times) > before,
                            "set-up child failed")
        return times

    # ------------------------------------------------------------------ CLI passes

    def cli_invocation(self, argv: List[str], traced: bool) -> dict:
        out = self.path("cli.out")
        if traced:
            layer_file = self.path("layers.json")
            result = self.spawn([str(HERE / "child.py"), "cli", "--out", str(out),
                                 "--layers", str(layer_file), "--obs-dir", str(self.work),
                                 "--", *argv], self.path("child.out"))
            result["layers"] = (json.loads(layer_file.read_text())
                                if layer_file.exists() else {})
        else:
            result = self.spawn(["-m", "repro.cli", *argv], out)
        result["stdout"] = out.read_bytes() if out.exists() else b""
        self.check_cli_output(result)
        return result

    def check_cli_output(self, result: dict) -> None:
        text = result["stdout"].decode("utf-8", errors="replace")
        column, rows = CLI_VERDICTS[self.workload]
        table = [[cell.strip() for cell in line.split("|")]
                 for line in text.splitlines() if line.count("|") >= 4]
        verdicts = ([row[table[0].index(column)] for row in table[1:]]
                    if table and column in table[0] else [])
        digest = hashlib.sha256(result["stdout"]).hexdigest()
        self.ops.record(result["code"] == 0 and digest == self.golden[self.workload]
                        and verdicts == ["True"] * rows,
                        f"{self.workload}: exit {result['code']}, verdicts {verdicts}, "
                        f"stdout digest {digest[:16]} is not the golden one")

    def cli_pass(self, traced: bool) -> dict:
        """A cold invocation, then for e7 the same command again in a fresh process."""
        argv = list(CLI_COMMANDS[self.workload])
        # e11 has no store, so a rerun would be another cold run: an e11 pass
        # is one invocation, and its warm_s is its cold_s.
        cached = self.workload == "e7-n4-cache"
        if cached:
            argv += ["--cache-dir", str(self.path("cache"))]
        cold = self.cli_invocation(argv, traced)
        warm = [self.cli_invocation(argv, traced)] if cached else []
        for rerun in warm:
            self.ops.record(rerun["stdout"] == cold["stdout"],
                            f"{self.workload}: the warm stdout differs from the cold one")
        runs = [cold, *warm]
        return {"cold_s": cold["wall_s"], "warm_s": [rerun["wall_s"] for rerun in warm],
                "rss_mb": max(result["rss_mb"] for result in runs),
                "wall_s": sum(result["wall_s"] for result in runs),
                "layers": _sum_layers([result.get("layers") for result in runs])}

    # ------------------------------------------------------------------ service passes

    def service_pass(self, traced: bool) -> dict:
        out = self.path("service.json")
        argv = [str(HERE / "child.py"), "service", "--seed", str(self.seed),
                "--store", str(self.path("store")), "--out", str(out)]
        layer_file = self.path("layers.json")
        if traced:
            argv += ["--layers", str(layer_file), "--obs-dir", str(self.work)]
        setup: List[float] = []
        result = self.spawn(argv, self.path("child.out"), on_ready=setup.append)
        if result["code"] != 0 or not out.exists():
            self.ops.record(False, "service sample failed")
            raise RuntimeError("service sample produced no result: "
                               + "; ".join(self.ops.problems[-2:]))
        sample = json.loads(out.read_text())
        self.ops.attempted += sample["attempted"]
        self.ops.failed += sample["failed"]
        self.ops.problems += sample["problems"]
        return {"cold_s": sample["cold_s"], "warm_s": sample["warm_latencies_s"],
                "coalesce_s": sample["coalesce_s"], "warm_wall_s": sample["warm_wall_s"],
                "rss_mb": result["rss_mb"], "wall_s": sample["phases_wall_s"],
                "setup_s": setup[0] if setup else None,
                "layers": json.loads(layer_file.read_text()) if traced else {}}

    def check_direct_path(self) -> None:
        """The service payloads equal ``render_result`` of the library path."""
        out = self.path("direct.json")
        result = self.spawn([str(HERE / "child.py"), "direct"], out)
        digests = json.loads(out.read_text()) if result["code"] == 0 else {}
        expected = {child.job_name(job): self.golden[child.job_name(job)]
                    for job in child.SERVICE_JOBS}
        self.ops.record(digests == expected,
                        "the library path's theorem payloads differ from the golden digests")

    def run_pass(self, traced: bool) -> dict:
        if self.workload == "service-theorems":
            return self.service_pass(traced)
        return self.cli_pass(traced)


def _sum_layers(parts: List[Optional[dict]]) -> dict:
    total: Dict[str, float] = {}
    for part in parts:
        for key, value in (part or {}).items():
            total[key] = total.get(key, 0) + value
    return total


# ---------------------------------------------------------------------- the two modes


def measure(run: Run, seconds: float) -> Dict[str, float]:
    """Untraced samples for ``seconds`` (at least ``MIN_SAMPLES``); end-to-end metrics."""
    service = run.workload == "service-theorems"
    run_start = clock()
    setup = run.setup_times()
    samples: List[dict] = []
    start = clock()
    last = 0.0
    while ((len(samples) < MIN_SAMPLES or clock() - start < seconds)
           and clock() - run_start + last < RUN_BUDGET_S):
        calib = calibrate()
        began = clock()
        sample = run.run_pass(traced=False)
        last = clock() - began
        sample["host.calib_s"] = calib
        samples.append(sample)
        warm_text = (f"warm_s={statistics.median(sample['warm_s']):.4f} "
                     if sample["warm_s"] else "")
        print(f"sample {len(samples)}: cold_s={sample['cold_s']:.4f} {warm_text}"
              f"peak_rss_mb={sample['rss_mb']:.1f} host.calib_s={calib:.4f}", flush=True)
    if service:
        run.check_direct_path()
        setup += [sample["setup_s"] for sample in samples if sample["setup_s"] is not None]
    # Each sample's warm pass: the e7 rerun, the median warm service request,
    # and for e11 (no store) the cold run itself.
    cold = [sample["cold_s"] for sample in samples]
    warm = [statistics.median(sample["warm_s"]) if sample["warm_s"] else sample["cold_s"]
            for sample in samples]
    # A pass reports its fastest sample: host noise only ever slows a pass
    # down, in bursts of seconds, so the minimum is the steadiest estimate of
    # the program's cost.
    metrics = {
        "setup_s": statistics.median(setup),
        "cold_s": min(cold),
        "warm_s": min(warm),
        "peak_rss_mb": max(sample["rss_mb"] for sample in samples),
    }
    report: Dict[str, object] = {
        "samples": len(samples), "set-up runs": len(setup),
        "cold_s median": statistics.median(cold), "warm_s median": statistics.median(warm),
        "host.calib_s median": statistics.median(s["host.calib_s"] for s in samples)}
    if service:
        requests = [value for sample in samples for value in sample["warm_s"]]
        beyond = len(requests) - int(0.95 * len(requests))
        report.update({
            "svc.cold_s": metrics["cold_s"],
            "svc.coalesce_s": statistics.median(s["coalesce_s"] for s in samples),
            "svc.warm_p50_ms": 1000 * metrics["warm_s"],
            f"svc.warm_p95_ms ({len(requests)} requests, {beyond} beyond p95)":
                1000 * statistics.quantiles(requests, n=20)[-1],
            "svc.warm_rps": len(requests) / sum(s["warm_wall_s"] for s in samples),
        })
    elif run.workload == "e7-n4-cache":
        report.update({"e7.cold_s": metrics["cold_s"], "e7.warm_s": metrics["warm_s"]})
    else:
        report["e11.wall_s"] = metrics["cold_s"]
    for key, value in report.items():
        print(f"  {key}: {value:.6g}" if isinstance(value, float) else f"  {key}: {value}")
    return metrics


def trace(run: Run) -> Dict[str, float]:
    """The traced run: per-layer metrics from the first of two traced passes.

    The second traced pass must repeat every count exactly.  An untraced pass
    runs before and after them; the faster traced pass's wall time over the
    faster untraced pass's is the tracing overhead.  The passes run one after
    another, never side by side.
    """
    calib = calibrate()
    before = run.run_pass(traced=False)
    first = run.run_pass(traced=True)
    second = run.run_pass(traced=True)
    after = run.run_pass(traced=False)
    if run.workload == "service-theorems":
        run.check_direct_path()
    for name in layers.COUNTS:
        run.ops.record(first["layers"].get(name) == second["layers"].get(name),
                       f"count {name} did not repeat: {first['layers'].get(name)} "
                       f"then {second['layers'].get(name)}")
    metrics = {name: first["layers"].get(name, 0) for name, _unit in layers.PER_LAYER}
    metrics["trace.overhead_ratio"] = (min(first["wall_s"], second["wall_s"])
                                       / min(before["wall_s"], after["wall_s"]))
    metrics["host.calib_s"] = calib
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*CLI_COMMANDS, "service-theorems"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    # Byte-compile once so no sample pays for it: users do not, after their first run.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)
    # Every child inherits this: one CPU for the whole benchmark.  A service
    # sample hands each request between the client's and the server's
    # threads, and on a VM a hand-off to an idle second CPU waits for the host
    # to wake it, which adds host noise to every round trip.  The load is one
    # closed-loop client and CLI runs are single-threaded, so at most one job
    # computes at a time and no phase needs a second CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            values, units = trace(run), dict(layers.PER_LAYER)
        else:
            values, units = measure(run, args.seconds), dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    for problem in run.ops.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"ops_failed_ratio: {run.ops.failed / max(1, run.ops.attempted):.6g} "
          f"({run.ops.failed} of {run.ops.attempted})")
    print(json.dumps({
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
