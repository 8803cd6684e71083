"""``repro.testing`` — reusable fault-injection tooling and differential oracles.

A small, import-light package (nothing in the library imports it; tests and
the chaos harness do) providing the controlled failure modes the robustness
layer is tested against:

* :class:`~repro.testing.faults.FaultyBackend` — a
  :class:`~repro.store.backends.StoreBackend` wrapper with a programmable
  :class:`~repro.testing.faults.FaultPlan` of IO errors, payload corruption,
  and latency;
* crashing / flaky / hanging protocol wrappers
  (:class:`~repro.testing.faults.CrashOnceProtocol`,
  :class:`~repro.testing.faults.FailOnceProtocol`,
  :class:`~repro.testing.faults.SlowProtocol`) that are picklable, so they
  inject faults *inside* process-pool workers and service worker threads;
* :class:`~repro.testing.faults.ServerHarness` — a kill-and-restart driver
  for ``repro-eba serve`` subprocesses, used by the crash-recovery
  acceptance tests and the CI ``chaos-smoke`` job.

Everything here is deterministic on purpose: faults fire on exact call
counts or sentinel files, never on randomness, so a chaos test that fails
once fails every time.

:mod:`repro.testing.oracles` (imported on its own, not re-exported here)
holds the slow, independent reference implementations the production
model-checking paths are differentially tested against: the per-point
Definition 6.2 safety scan and the one-run-at-a-time system build.
"""

from .faults import (
    CrashOnceProtocol,
    FailOnceProtocol,
    FaultPlan,
    FaultyBackend,
    InjectedFault,
    ServerHarness,
    SlowProtocol,
)

__all__ = [
    "CrashOnceProtocol",
    "FailOnceProtocol",
    "FaultPlan",
    "FaultyBackend",
    "InjectedFault",
    "ServerHarness",
    "SlowProtocol",
]
