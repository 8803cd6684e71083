"""Independent oracles for the production model-checking paths.

Each oracle computes the same answer as a production entry point by the
straightforward route, sharing no evaluation code with it, so a differential
test against it can catch a bug the production path would otherwise pin
against itself:

* :func:`per_point_safety` — the Definition 6.2 safety scan as nested loops
  over points and agents, with the clause-2 trigger evaluated by the
  set-based :class:`~repro.logic.reference.ReferenceModelChecker`.  Its report
  equals :func:`repro.kbp.safety.check_safety`'s: same counters, same
  violations in the same order.
* :func:`chain_receipt_table` — the earliest 0-chain receipt per run and
  agent as a dict built from :func:`~repro.analysis.chains.zero_chains`, the
  oracle for the array kernel the vector scan shards across workers.
* :func:`per_run_system` — the interpreted system built one
  :func:`~repro.simulation.engine.simulate` call per run.  Its traces are
  byte-identical (per-trace pickle) to the batched construction of
  :meth:`~repro.systems.contexts.EBAContext.build_system`, and so are its
  interned partitions.

Oracles are slow by design and emit no trace spans; nothing in the library
calls them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from ..analysis.chains import zero_chains
from ..core.types import AgentId
from ..kbp.safety import CLAUSE1_DETAIL, CLAUSE2_DETAIL, SafetyReport, SafetyViolation
from ..logic.formula import Knows, nobody_deciding
from ..logic.reference import ReferenceModelChecker
from ..protocols.base import ActionProtocol
from ..simulation.engine import simulate
from ..systems.contexts import EBAContext
from ..systems.interpreted import InterpretedSystem
from ..systems.points import Point
from ..workloads.preferences import enumerate_preferences

__all__ = ["chain_receipt_table", "per_point_safety", "per_run_system"]


def per_run_system(protocol: ActionProtocol, context: EBAContext) -> InterpretedSystem:
    """Build ``I_{γ, P}`` with one engine ``simulate`` call per run.

    Runs are ordered pattern-major, preference-minor, like every production
    build.
    """
    preference_list = [tuple(vector) for vector in enumerate_preferences(context.n)]
    runs = [simulate(protocol, context.n, preferences, pattern=pattern,
                     horizon=context.horizon)
            for pattern in context.patterns()
            for preferences in preference_list]
    system = InterpretedSystem(n=context.n, horizon=context.horizon, runs=runs,
                               protocol_name=protocol.name)
    system.intern_states()
    return system


def per_point_safety(protocol: ActionProtocol, context: EBAContext,
                     system: InterpretedSystem, max_violations: int) -> SafetyReport:
    """Check Definition 6.2 on ``system`` point by point (see :mod:`repro.kbp.safety`).

    The signature mirrors :func:`~repro.kbp.safety.check_safety` so a parity
    test calls both the same way; ``protocol`` and ``context`` supply only the
    names in the report, since ``system`` is already built.
    """
    report = SafetyReport(protocol_name=protocol.name, context_name=context.name)
    chain_table = chain_receipt_table(system)
    n = system.n

    # Clause 2's trigger: where each agent *cannot* rule out a 0 decision this
    # round (the complement of K_i "nobody is deciding 0").
    checker = ReferenceModelChecker(system)
    all_points = frozenset(system.points)
    cannot_rule_out: Dict[AgentId, FrozenSet[Point]] = {
        agent: all_points - checker.satisfying_points(Knows(agent, nobody_deciding(n, 0)))
        for agent in range(n)
    }

    all_ones_runs: Set[int] = {
        run_index for run_index, trace in enumerate(system.runs)
        if all(value == 1 for value in trace.preferences)
    }

    for point in system.points:
        run_index, time = point
        report.points_checked += 1
        for agent in range(n):
            # ---- clause 1: no chain received => an all-ones run is indistinguishable.
            earliest_chain = chain_table.get((run_index, agent))
            received_chain = earliest_chain is not None and earliest_chain <= time
            if not received_chain:
                report.clause1_checks += 1
                witnesses = system.indistinguishable(agent, point)
                if not any(peer.run_index in all_ones_runs for peer in witnesses):
                    if len(report.violations) < max_violations:
                        report.violations.append(SafetyViolation(
                            clause=1, agent=agent, point=point,
                            detail=CLAUSE1_DETAIL))
                    continue
            # ---- clause 2: cannot rule out a 0 decision => a nonfaulty witness exists.
            if time >= system.horizon:
                continue
            state = system.local_state(point, agent)
            if state.decided is not None:
                continue
            if point not in cannot_rule_out[agent]:
                continue
            report.clause2_checks += 1
            if not _clause2_holds(system, agent, point):
                if len(report.violations) < max_violations:
                    report.violations.append(SafetyViolation(
                        clause=2, agent=agent, point=point,
                        detail=CLAUSE2_DETAIL))
    return report


def chain_receipt_table(system: InterpretedSystem) -> Dict[Tuple[int, AgentId], int]:
    """Map ``(run_index, agent)`` to the earliest time a 0-chain ends at the agent."""
    table: Dict[Tuple[int, AgentId], int] = {}
    for run_index, trace in enumerate(system.runs):
        for chain in zero_chains(trace):
            key = (run_index, chain.last_agent)
            current = table.get(key)
            if current is None or chain.length < current:
                table[key] = chain.length
    return table


def _decides_zero_in_round(system: InterpretedSystem, run_index: int, agent: AgentId,
                           round_number: int) -> bool:
    """Whether the agent performs ``decide(0)`` in the given 1-based round of the run."""
    trace = system.runs[run_index]
    if not 1 <= round_number <= trace.horizon:
        return False
    action = trace.action_of(agent, round_number - 1)
    return action.is_decision and action.value == 0


def _clause2_holds(system: InterpretedSystem, agent: AgentId, point: Point) -> bool:
    """The existential part of clause 2 of Definition 6.2 at one point."""
    time = point.time
    for peer in system.indistinguishable(agent, point):
        peer_run = system.runs[peer.run_index]
        if agent not in peer_run.nonfaulty:
            continue
        for witness in sorted(peer_run.nonfaulty):
            if not _decides_zero_in_round(system, peer.run_index, witness, time + 1):
                continue
            if time == 0:
                return True
            if _clause2_second_witness(system, witness, peer.run_index, time):
                return True
    return False


def _clause2_second_witness(system: InterpretedSystem, witness: AgentId, run_index: int,
                            time: int) -> bool:
    """The nested witness of clause 2(c): a run where the chain is one step shorter.

    There must be a run ``r''`` in which ``witness`` has the same local state at
    ``time``, both ``witness`` and some ``j'`` are nonfaulty, and ``j'`` decides
    0 in round ``time``.
    """
    anchor = Point(run_index, time)
    for peer in system.indistinguishable(witness, anchor):
        peer_run = system.runs[peer.run_index]
        if witness not in peer_run.nonfaulty:
            continue
        for other in sorted(peer_run.nonfaulty):
            if _decides_zero_in_round(system, peer.run_index, other, time):
                return True
    return False
