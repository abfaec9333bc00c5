import pytest

from funcobs import decide
from funcobs.polymat import POLY_ONE, Poly, build_system_matrices
from funcobs.witness import (RationalFunction, RationalFunctionMatrix, classify,
                             decision_consistency, solve_over_field)

import support


def rf(num, den=(1,)):
    return RationalFunction(Poly(list(num)), Poly(list(den)))


class TestRationalFunction:
    def test_reduction_is_canonical(self):
        a = RationalFunction(Poly([2, 2]), Poly([0, 4]))       # (2s+2)/(4s)
        b = RationalFunction(Poly([1, 1]), Poly([0, 2]))
        assert a == b
        assert a.den.leading == 1

    def test_arithmetic(self):
        one_over = rf((1,), (1, 1))
        s = rf((0, 1))
        assert (one_over * s) == rf((0, 1), (1, 1))
        assert (one_over + one_over) == rf((2,), (1, 1))
        assert (one_over - one_over).is_zero()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly([1]), Poly())


class TestClassify:
    def test_constant_matrix(self):
        MN = RationalFunctionMatrix.from_rows([[rf((2,)), rf((0,))]])
        cls = classify(MN)
        assert cls.proper and cls.stable
        assert cls.pole_polynomial == POLY_ONE

    def test_proper_unstable(self):
        MN = RationalFunctionMatrix.from_rows([[rf((1,), (-1, 1))]])  # 1/(s-1)
        cls = classify(MN)
        assert cls.proper and not cls.stable

    def test_improper_stable(self):
        MN = RationalFunctionMatrix.from_rows([[rf((0, 0, 1), (1, 1))]])  # s^2/(s+1)
        cls = classify(MN)
        assert not cls.proper and cls.stable

    def test_invariant_under_entry_scaling(self):
        a = RationalFunctionMatrix.from_rows([[RationalFunction(Poly([2, 2]), Poly([2, 0, 2]))]])
        b = RationalFunctionMatrix.from_rows([[RationalFunction(Poly([1, 1]), Poly([1, 0, 1]))]])
        assert classify(a) == classify(b)


class TestSolveOverField:
    def test_copy_target_verifies(self, rng):
        for _ in range(10):
            sys = support.random_system(rng)
            same = sys.with_target(sys.C, sys.D)
            rep = solve_over_field(same)
            assert rep.solvable_over_field and rep.residual_zero

    def test_measured_input_proper_not_stable(self):
        rep = solve_over_field(support.measured_input())
        assert rep.solvable_over_field and rep.residual_zero
        assert rep.is_proper
        assert not rep.denominator_hurwitz.is_hurwitz
        assert rep.pole_denominator == Poly([0, 0, 1])  # s^2
        # the pencil is square nonsingular, so the solution is unique
        mn = rep.MN
        assert mn[0, 0] == rf((1,), (0, 1))
        assert mn[0, 1] == rf((1, -1), (0, 0, 1))
        assert mn[0, 2] == rf((1,), (0, 0, 1))

    def test_feedthrough_gap_unsolvable(self):
        rep = solve_over_field(support.feedthrough_gap())
        assert not rep.solvable_over_field
        assert rep.MN is None
        assert rep.inconsistent_column is not None

    def test_solvability_equals_rank_equality(self, rng):
        for _ in range(80):
            sys = support.random_system(rng)
            P, Pe = build_system_matrices(sys)
            rep = solve_over_field(sys)
            assert rep.solvable_over_field == (support.ref_normal_rank(P)
                                               == support.ref_normal_rank(Pe))
            if rep.solvable_over_field:
                assert rep.residual_zero

    def test_left_kernel_dimension(self):
        sys = support.integrator_chain()
        rep = solve_over_field(sys)
        P, _ = build_system_matrices(sys)
        assert rep.left_kernel_dim == P.rows - support.ref_normal_rank(P)


class TestDecisionConsistency:
    def test_golden_systems(self):
        for build in support.GOLDEN.values():
            assert decision_consistency(build())

    def test_strongly_implies_solvable(self, rng):
        for _ in range(40):
            sys = support.random_system(rng)
            if decide.strongly_functional_detectable(sys).holds:
                rep = solve_over_field(sys)
                assert rep.solvable_over_field and rep.residual_zero

    def test_random_batch(self, rng):
        for _ in range(40):
            assert decision_consistency(support.random_system(rng))
