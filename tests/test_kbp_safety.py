"""Tests for the Definition 6.2 safety-condition checker (Proposition 6.4)."""


import pytest

from repro.kbp.safety import check_safety
from repro.protocols import BasicProtocol, MinProtocol
from repro.protocols.baselines import NaiveZeroBiasedProtocol
from repro.systems import gamma_basic, gamma_min
from repro.testing.oracles import per_point_safety


class TestProposition64:
    def test_p0_is_safe_in_gamma_min(self):
        report = check_safety(MinProtocol(1), gamma_min(3, 1))
        assert report.safe
        assert report.points_checked > 0
        assert report.clause1_checks > 0
        assert report.clause2_checks > 0
        assert "safe" in repr(report)

    def test_p0_is_safe_in_gamma_basic(self):
        report = check_safety(BasicProtocol(1), gamma_basic(3, 1))
        assert report.safe

    def test_reuses_a_prebuilt_system(self):
        context = gamma_min(3, 1)
        system = context.build_system(MinProtocol(1))
        report = check_safety(MinProtocol(1), context, system=system)
        assert report.safe


class TestSafetyIsNotVacuous:
    def test_gossiping_initial_values_breaks_clause_one(self):
        """A protocol whose exchange leaks ``∃0`` without a chain is not safe.

        Over the full-information exchange an agent can learn about a 0 from a
        faulty agent's graph without any 0-chain reaching it, so clause 1 of
        Definition 6.2 must fail — this is exactly the paper's remark that a
        knowledge-based program is in general *not* safe with respect to an
        FIP.
        """
        context = gamma_min(3, 1, max_faulty_enumerated=1)
        report = check_safety(NaiveZeroBiasedProtocol(1), context)
        assert not report.safe
        assert any(violation.clause == 1 for violation in report.violations)

    def test_violations_are_capped(self):
        context = gamma_min(3, 1, max_faulty_enumerated=1)
        report = check_safety(NaiveZeroBiasedProtocol(1), context, max_violations=3)
        assert len(report.violations) == 3


#: (protocol, context, max_violations) cases for the scan-parity contract.
#: The uncapped NaiveZeroBiased case reports violations of both clauses.
PARITY_CASES = [
    pytest.param(lambda: (MinProtocol(1), gamma_min(3, 1)), 10, id="P_min-gamma_min"),
    pytest.param(lambda: (BasicProtocol(1), gamma_basic(3, 1)), 10, id="P_basic-gamma_basic"),
    pytest.param(lambda: (NaiveZeroBiasedProtocol(1),
                          gamma_min(3, 1, max_faulty_enumerated=1)),
                 10, id="naive-capped"),
    pytest.param(lambda: (NaiveZeroBiasedProtocol(1),
                          gamma_min(3, 1, max_faulty_enumerated=1)),
                 10 ** 6, id="naive-uncapped"),
]


class TestScanParity:
    """The vectorized scan and the per-point oracle give identical reports:
    the same counters and the same violations in the same order."""

    @pytest.mark.parametrize("make, max_violations", PARITY_CASES)
    def test_vector_scan_matches_per_point_oracle(self, make, max_violations):
        protocol, context = make()
        system = context.build_system(protocol)
        vector = check_safety(protocol, context, system=system,
                              max_violations=max_violations)
        oracle = per_point_safety(protocol, context, system, max_violations)
        assert vector.points_checked == oracle.points_checked
        assert vector.clause1_checks == oracle.clause1_checks
        assert vector.clause2_checks == oracle.clause2_checks
        assert vector.violations == oracle.violations
