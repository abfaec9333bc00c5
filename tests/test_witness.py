import random
from fractions import Fraction

import pytest

from funcobs import decide
from funcobs.exactlin import QMatrix
from funcobs.polymat import POLY_ONE, Poly, PolyMatrix, build_system_matrices, smith_form
from funcobs.witness import (RationalFunction, RationalFunctionMatrix, classify,
                             decision_consistency, residual_is_zero, solve_over_field)

import support


def rf(num, den=(1,)):
    return RationalFunction(Poly(list(num)), Poly(list(den)))


class TestRationalFunction:
    def test_reduction_is_canonical(self):
        a = RationalFunction(Poly([2, 2]), Poly([0, 4]))       # (2s+2)/(4s)
        b = RationalFunction(Poly([1, 1]), Poly([0, 2]))
        assert a == b
        assert a.den.leading == 1

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
            P, EF = build_system_matrices(sys)
            Pe = PolyMatrix.vstack([P, EF])
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


def _oracle_systems():
    rng = random.Random(20261018)
    systems = [build() for build in support.GOLDEN.values()]
    systems += [support.random_system(rng) for _ in range(30)]
    systems += [support.random_system(rng, max_nm=7, max_p=3, max_q=2) for _ in range(10)]
    return systems


def _maxdeg(M: PolyMatrix) -> int:
    return max((e.degree for row in M.data for e in row), default=0)


class TestWitnessOracle:
    """[M N] against W(s0) diag(1/d_j(s0)) U(s0) with W = [E F] V, evaluated
    exactly at points, without rational-function arithmetic."""

    def test_pointwise_agreement(self):
        solved = 0
        for sys in _oracle_systems():
            rep = solve_over_field(sys)
            if not rep.solvable_over_field:
                continue
            solved += 1
            P, _ = build_system_matrices(sys)
            dec = smith_form(P)
            d = dec.invariant_polys
            r = len(d)
            L = d[-1] if d else POLY_ONE
            EF = QMatrix.hstack([sys.E, sys.F])
            entries = [e for row in rep.MN.data for e in row]
            num_deg = max((e.num.degree for e in entries), default=0)
            den_deg = max((e.den.degree for e in entries), default=0)
            # a/b and R/L (deg R <= deg V + deg L + deg U) agree as functions
            # once a L - b R vanishes at more points than its degree
            bound = max(num_deg + L.degree,
                        den_deg + _maxdeg(dec.V) + L.degree + _maxdeg(dec.U))
            checked, s0 = 0, Fraction(0)
            while checked <= bound:
                s0 = -s0 + (s0 <= 0)  # 1, -1, 2, -2, ...
                if L.evaluate(s0) == 0 or any(e.den.evaluate(s0) == 0 for e in entries):
                    continue
                W0 = EF @ dec.V.evaluate(s0)
                Y0 = QMatrix.from_rows(
                    [[W0[i, j] / d[j].evaluate(s0) if j < r else 0 for j in range(P.rows)]
                     for i in range(sys.q)], cols=P.rows)
                assert Y0 @ dec.U.evaluate(s0) == \
                    QMatrix.from_rows(rep.MN.evaluate(s0), cols=P.rows)
                checked += 1
        assert solved >= 10

    def test_residual_check_rejects_perturbed_entry(self):
        perturbed = 0
        for sys in _oracle_systems():
            rep = solve_over_field(sys)
            if not rep.solvable_over_field or sys.q == 0 or sys.n == 0:
                continue
            P, _ = build_system_matrices(sys)
            EF = PolyMatrix.from_rows(QMatrix.hstack([sys.E, sys.F]).data, cols=P.cols)
            assert residual_is_zero(rep.MN, P, EF)
            # column 0 of [M N] multiplies the row [s - a_11, ...] of P, never zero
            e = rep.MN[0, 0]
            shift = Poly([7, 1])
            for bad in (RationalFunction(e.num + e.den, e.den),
                        RationalFunction(e.num * shift + e.den, e.den * shift)):
                rows = [list(row) for row in rep.MN.data]
                rows[0][0] = bad
                assert not residual_is_zero(RationalFunctionMatrix.from_rows(rows), P, EF)
            perturbed += 1
        assert perturbed >= 5


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
