"""Workload and result data types shared by the orchestration layer.

* :data:`Scenario` — a workload item, ``(preferences, failure-pattern)``;
* :class:`BatchResult` — the one-protocol result shape produced by
  :meth:`repro.api.ResultSet.batch`.

Running protocols over workloads is :mod:`repro.api`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..failures.pattern import FailurePattern
from .trace import RunTrace

#: A workload item: one initial global state (preferences plus failure pattern).
Scenario = Tuple[Sequence[int], FailurePattern]


@dataclass(frozen=True)
class BatchResult:
    """The traces produced by running one protocol over a workload."""

    protocol_name: str
    traces: Tuple[RunTrace, ...]

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)
