"""Processes the benchmark starts, one fresh interpreter each.

    child.py setup-service --store DIR
        start a JobServer on DIR, print ``ready`` once ``/healthz`` answers, stop
    child.py service --seed N --store DIR --out FILE [--layers FILE --obs-dir DIR]
        one service-theorems sample (cold, coalesce and warm phases)
    child.py cli --out FILE --layers FILE --obs-dir DIR -- ARGV...
        one traced ``repro.cli.main(ARGV)`` call
    child.py direct
        the theorem payloads computed through the library, without the service

Untraced CLI samples do not come here: they run ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers

HERE = Path(__file__).resolve().parent

#: The service-theorems jobs: (theorem, n, t).  The first two make the cold
#: phase, the last is the coalesced pair; the warm phase resubmits all three.
SERVICE_JOBS: Tuple[Tuple[str, int, int], ...] = (("6.5", 4, 1), ("6.6", 4, 1), ("a21", 3, 1))
COLD_JOBS = SERVICE_JOBS[:2]
COALESCE_JOB = SERVICE_JOBS[2]
#: Warm closed-loop requests per sample: enough that more than ten of them
#: lie beyond the 95th percentile.
WARM_REQUESTS = 300
#: Client poll interval while a job runs; finer than the CLI's 0.2 s so the
#: cold and coalesce phases time the server rather than the poll grid.
POLL_S = 0.05
HTTP_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0

clock = time.perf_counter


def job_name(job: Tuple[str, int, int]) -> str:
    theorem, n, t = job
    return f"theorem-{theorem}-n{n}-t{t}"


def payload_digest(payload: dict) -> str:
    """SHA-256 of a result payload's canonical JSON bytes."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, str]:
    with open(HERE / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)


class Ops:
    """Attempted and failed operations, with a line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


# ---------------------------------------------------------------------- service


def _start_server(store_dir: str):
    from repro.service import JobServer, ServiceClient
    from repro.store import default_store
    # The shape of ``repro-eba serve --cache-dir DIR --workers 2``.
    server = JobServer(host="127.0.0.1", port=0, store=default_store(store_dir),
                       workers=2).start()
    client = ServiceClient(server.url, timeout=HTTP_TIMEOUT_S)
    client.healthz()
    print("ready", flush=True)
    return server, client


def setup_service(args: argparse.Namespace) -> int:
    server, _client = _start_server(args.store)
    server.stop()
    return 0


def service(args: argparse.Namespace) -> int:
    recorder = layers.install(args.obs_dir) if args.layers else None
    from repro.service import theorem_request

    golden = load_golden()
    ops = Ops()
    server, client = _start_server(args.store)

    def body(job):
        return theorem_request(*job)

    def check(job, payload, what: str) -> None:
        ops.record(payload_digest(payload) == golden[job_name(job)] and payload.get("holds") is True,
                   f"{what}: {job_name(job)} payload differs from the golden digest")

    phases_start = clock()
    start = clock()
    for job in COLD_JOBS:
        try:
            payload = client.submit_and_wait(body(job), poll_interval=POLL_S,
                                             timeout=JOB_TIMEOUT_S)
        except Exception as exc:  # an HTTP or job error is a failed operation
            ops.record(False, f"cold: {job_name(job)}: {exc!r}")
            continue
        check(job, payload, "cold")
    cold_s = clock() - start

    executed_before = server.queue.stats()["executed"]
    barrier = threading.Barrier(2)
    pair: List[Optional[tuple]] = [None, None]

    def submit_pair(slot: int) -> None:
        barrier.wait()
        try:
            receipt = client.submit(body(COALESCE_JOB))
            payload = client.wait(receipt["job"], poll_interval=POLL_S,
                                  timeout=JOB_TIMEOUT_S)
            pair[slot] = (receipt, payload)
        except Exception as exc:  # recorded below as a failed operation
            pair[slot] = (None, repr(exc))

    helper = threading.Thread(target=submit_pair, args=(1,))
    helper.start()
    start = clock()
    submit_pair(0)
    helper.join(timeout=JOB_TIMEOUT_S)
    coalesce_s = clock() - start
    executed = server.queue.stats()["executed"] - executed_before
    payloads = [entry[1] for entry in pair if entry is not None and entry[0] is not None]
    if ops.record(len(payloads) == 2, f"coalesce: a submission failed: {pair!r}"):
        check(COALESCE_JOB, payloads[0], "coalesce")
        ops.record(payload_digest(payloads[0]) == payload_digest(payloads[1]),
                   "coalesce: the pair returned different payloads")
    ops.record(executed == 1, f"coalesce: the pair executed {executed} jobs, not 1")

    order = [job for job in SERVICE_JOBS for _ in range(WARM_REQUESTS // len(SERVICE_JOBS))]
    random.Random(args.seed).shuffle(order)
    latencies: List[float] = []
    answers = []
    start = clock()
    for job in order:
        sent = clock()
        try:
            payload = client.submit_and_wait(body(job), poll_interval=POLL_S,
                                             timeout=JOB_TIMEOUT_S)
        except Exception as exc:  # an HTTP or job error is a failed operation
            payload = repr(exc)
        latencies.append(clock() - sent)
        answers.append((job, payload))
    warm_wall_s = clock() - start
    phases_wall_s = clock() - phases_start
    for job, payload in answers:
        if isinstance(payload, dict):
            check(job, payload, "warm")
        else:
            ops.record(False, f"warm: {job_name(job)}: {payload}")

    stats = server.queue.stats()
    server.stop()
    result = {
        "cold_s": cold_s, "coalesce_s": coalesce_s, "warm_latencies_s": latencies,
        "warm_wall_s": warm_wall_s, "phases_wall_s": phases_wall_s,
        "attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
    }
    if recorder is not None:
        metrics = recorder.metrics(phases_wall_s)
        metrics["service.executed"] = stats["executed"]
        metrics["service.coalesced"] = stats["coalesced"]
        metrics["service.store_hits"] = stats["store_hits"]
        with open(args.layers, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ---------------------------------------------------------------------- CLI, direct


def cli(args: argparse.Namespace) -> int:
    recorder = layers.install(args.obs_dir)
    from repro import cli as repro_cli
    start = clock()
    with open(args.out, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        code = repro_cli.main(args.argv)
    wall = clock() - start
    with open(args.layers, "w", encoding="utf-8") as handle:
        json.dump(recorder.metrics(wall), handle)
    return code


def direct(_args: argparse.Namespace) -> int:
    from repro.experiments import implementation_check
    from repro.service import decode_request, render_result, theorem_request
    checks = {"6.5": implementation_check.check_theorem_6_5,
              "6.6": implementation_check.check_theorem_6_6,
              "a21": implementation_check.check_theorem_a21}
    digests = {}
    for job in SERVICE_JOBS:
        theorem, n, t = job
        request = decode_request(theorem_request(theorem, n, t))
        digests[job_name(job)] = payload_digest(render_result(request, checks[theorem](n, t)))
    print(json.dumps(digests, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    setup = commands.add_parser("setup-service")
    setup.add_argument("--store", required=True)
    setup.set_defaults(handler=setup_service)
    sample = commands.add_parser("service")
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--store", required=True)
    sample.add_argument("--out", required=True)
    sample.add_argument("--layers")
    sample.add_argument("--obs-dir")
    sample.set_defaults(handler=service)
    traced = commands.add_parser("cli")
    traced.add_argument("--out", required=True)
    traced.add_argument("--layers", required=True)
    traced.add_argument("--obs-dir", required=True)
    traced.add_argument("argv", nargs=argparse.REMAINDER)
    traced.set_defaults(handler=cli)
    commands.add_parser("direct").set_defaults(handler=direct)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
