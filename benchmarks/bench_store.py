"""Benchmark — the artifact store: cold vs warm ``build_system`` + ``check_implements``.

The acceptance bar for :mod:`repro.store` is quantitative: a warm-cache
Theorem 6.5 ``check_implements`` at (n=4, t=1) must be at least **5× faster**
than the cold run that populated the cache, with a byte-identical report.
This file measures exactly that, at (n=3, t=1) and (n=4, t=1):

* ``cold`` — empty store: enumerate and simulate the full ``γ_min`` system,
  intern it, model-check the implementation claim, and persist everything;
* ``warm`` — same call against the populated store, served end-to-end from
  the report cache (one key lookup + one small unpickle).

The warm/cold ratio is asserted (≥ 5× at both sizes — in practice it is three
to four orders of magnitude), and so is report identity, making this benchmark
double as the acceptance check.  Each parametrisation reports through
pytest-benchmark as usual (``--benchmark-json``); ``tools/bench_summary.py``
includes this file in the canonical ``BENCH_<date>.json``.

Two rows time content-key hashing on its own, because it sits on every
store lookup and on every service submission:

* ``system_key`` over γ_min(4, 1)'s 2049 failure patterns (the key a cold
  theorem job computes before building the system);
* a repeated ``theorem`` :func:`~repro.service.wire.decode_request`, which the
  service runs on every ``POST /jobs`` to find the job's key.

Reference numbers on the development container: cold (n=4, t=1) ≈ 0.8 s
(≈ 7 s before the batched construction engine; the system build still
dominates), warm ≈ 2 ms from a fresh process (disk + unpickle), ≈ 0.2 ms
within a process (memory LRU).
"""

import itertools
import time

import pytest

from repro.kbp import check_implements, make_p0
from repro.protocols import MinProtocol
from repro.service.wire import decode_request, theorem_request
from repro.store import default_store, system_key
from repro.systems import gamma_min

SIZES = [(3, 1), (4, 1)]

#: The acceptance-criterion floor for warm/cold speedup of check_implements.
MIN_SPEEDUP = 5.0


def _check(n: int, t: int, store):
    return check_implements(MinProtocol(t), make_p0(n), gamma_min(n, t), store=store)


@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}_t{size[1]}")
def test_bench_cold_build_and_check(benchmark, tmp_path, size):
    """Cold path: empty store, full system build + model check + persist."""
    n, t = size

    def cold():
        store = default_store(tmp_path / f"cold-{n}-{t}-{time.monotonic_ns()}")
        return _check(n, t, store)

    report = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert report.ok, report.mismatches


@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}_t{size[1]}")
def test_bench_warm_build_and_check(benchmark, tmp_path, size):
    """Warm path: the same check served from the populated store.

    A fresh store handle per call keeps the in-memory LRU out of the
    measurement, so this times the honest cross-process path: key hashing,
    one disk read, one gzip+unpickle.  The ≥ 5× acceptance bar (and report
    byte-identity) is asserted against a cold timing taken in the same
    process.
    """
    n, t = size
    cache_dir = tmp_path / f"warm-{n}-{t}"

    start = time.perf_counter()
    cold_report = _check(n, t, default_store(cache_dir))
    cold_seconds = time.perf_counter() - start

    warm_report = benchmark.pedantic(
        lambda: _check(n, t, default_store(cache_dir)), rounds=5, iterations=1)

    assert warm_report.ok
    assert repr(warm_report) == repr(cold_report)
    warm_seconds = benchmark.stats.stats.mean
    speedup = cold_seconds / warm_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"warm check_implements at n={n} is only {speedup:.1f}x faster than cold "
        f"({warm_seconds:.4f}s vs {cold_seconds:.4f}s); the store promises >= {MIN_SPEEDUP}x"
    )


def test_bench_system_key_gamma_min(benchmark):
    """Key hashing alone: ``system_key`` over every γ_min(4, 1) failure pattern."""
    context = gamma_min(4, 1)
    patterns = list(context.patterns())
    preference_vectors = list(itertools.product((0, 1), repeat=4))
    key = benchmark(system_key, MinProtocol(1), 4, context.horizon, patterns,
                    preference_vectors)
    assert len(patterns) == 2049 and len(key) == 64


@pytest.mark.parametrize("theorem, n", [("6.5", 4), ("a21", 3)],
                         ids=str)
def test_bench_warm_theorem_decode_request(benchmark, theorem, n):
    """The service's per-submission key cost for a theorem it has seen before."""
    body = theorem_request(theorem, n, 1)
    first = decode_request(body).key
    request = benchmark(decode_request, body)
    assert request.key == first
