import random
from fractions import Fraction

import pytest

from funcobs import decide
from funcobs.exactlin import QMatrix
from funcobs.polymat import POLY_ONE, Poly
from funcobs.system import SystemSextuple

import support


class TestGoldenVerdicts:
    def test_feedthrough_gap(self):
        sys = support.feedthrough_gap()
        assert decide.functional_detectable(sys).holds
        v = decide.strongly_functional_detectable(sys)
        assert not v.holds
        cert = v.certificate
        assert cert.normrank_p == 2 and cert.normrank_pe == 3
        assert not cert.rank_condition and cert.zero_condition
        assert not decide.strong_star_functional_detectable(sys).holds

    def test_integrator_chain(self):
        sys = support.integrator_chain()
        assert decide.functional_detectable(sys).holds
        v = decide.strongly_functional_detectable(sys)
        assert v.holds
        assert v.certificate.zero_poly_p == Poly([1, 1])
        assert v.certificate.zero_poly_pe == POLY_ONE
        star = decide.strong_star_functional_detectable(sys)
        assert not star.holds
        assert star.certificate.strong.rank_condition
        assert not star.certificate.inclusion.holds

    def test_stable_pair(self):
        sys = support.stable_pair()
        assert decide.functional_detectable(sys).holds
        assert decide.strongly_functional_detectable(sys).holds
        star = decide.strong_star_functional_detectable(sys)
        assert star.holds
        assert star.certificate.inclusion.vstar_cd_in_image.dim == 0

    def test_measured_input(self):
        sys = support.measured_input()
        assert not decide.functional_detectable(sys).holds
        assert not decide.strongly_functional_detectable(sys).holds
        assert not decide.strong_star_functional_detectable(sys).holds
        d = decide.darouach_fixed_order(sys)
        assert not d.holds
        assert not d.certificate.kernel.holds
        assert d.certificate.rank_equality.holds

    def test_unstable_chain(self):
        sys = support.unstable_chain()
        assert decide.functional_detectable(sys).holds
        assert decide.strongly_functional_detectable(sys).holds
        assert decide.strong_star_functional_detectable(sys).holds
        d = decide.darouach_fixed_order(sys)
        assert not d.holds
        assert not d.certificate.rank_equality.holds


class TestTrivialTargets:
    def test_target_equals_measurement_always_strong(self, rng):
        for _ in range(15):
            sys = support.random_system(rng)
            same = sys.with_target(sys.C, sys.D)
            assert decide.strongly_functional_detectable(same).holds
            assert decide.strong_star_functional_detectable(same).holds

    def test_empty_target_vacuous(self, rng):
        for _ in range(10):
            sys = support.random_system(rng)
            empty = sys.with_target(QMatrix.zeros(0, sys.n), QMatrix.zeros(0, sys.m))
            assert decide.functional_detectable(empty).holds
            assert decide.strongly_functional_detectable(empty).holds
            assert decide.strong_star_functional_detectable(empty).holds


class TestHautus:
    def test_integrator_chain_state_reconstruction(self):
        sys = support.integrator_chain()
        v = decide.hautus_strong_detectable(sys)
        assert v.holds
        assert v.certificate.normrank_p == 3
        assert v.certificate.n_plus_rank_bd == 3
        assert v.certificate.zero_poly_p == Poly([1, 1])
        assert decide.hautus_strong_star_detectable(sys).holds

    def test_unstable_unobservable_mode(self):
        sys = SystemSextuple.from_lists(A=[[1]], C=[[0]], m=0)
        assert not decide.hautus_strong_detectable(sys).holds

    def test_first_order_stable(self):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[0]])
        v = decide.hautus_strong_detectable(sys)
        assert v.holds
        assert v.certificate.normrank_p == 2 == v.certificate.n_plus_rank_bd
        assert v.certificate.zero_poly_p == POLY_ONE

    def test_full_column_rank_feedthrough(self):
        sys = SystemSextuple.from_lists(A=[[-1]], B=[[1]], C=[[1]], D=[[1]])
        assert decide.hautus_strong_star_detectable(sys).holds

    def test_no_input_matrix(self):
        sys = SystemSextuple.from_lists(A=[[-2]], B=[[0]], C=[[1]], D=[[0]])
        star = decide.hautus_strong_star_detectable(sys)
        assert star.certificate.kernel.holds

    def test_equals_general_decision(self, rng):
        for _ in range(120):
            sys = support.random_system(rng)
            target = sys.with_target(QMatrix.identity(sys.n), QMatrix.zeros(sys.n, sys.m))
            star = decide.strong_star_functional_detectable(target)
            strong_cert = star.certificate.strong
            strong_holds = strong_cert.rank_condition and strong_cert.zero_condition
            assert decide.hautus_strong_detectable(sys).holds == strong_holds
            assert decide.hautus_strong_star_detectable(sys).holds == star.holds


class TestLeftInvertibility:
    def test_integrator_chain(self):
        sys = support.integrator_chain()
        assert decide.asympt_strong_left_invertible(sys).holds
        star = decide.asympt_strong_star_left_invertible(sys)
        assert not star.holds
        assert star.certificate.rank_d == 0 and star.certificate.input_dim == 1

    def test_identity_feedthrough(self):
        sys = SystemSextuple.from_lists(A=[[-1, 0], [0, -2]],
                                        B=[[1, 0], [0, 1]],
                                        C=[[1, 0], [0, 1]],
                                        D=[[1, 0], [0, 1]])
        assert decide.asympt_strong_left_invertible(sys).holds
        assert decide.asympt_strong_star_left_invertible(sys).holds

    def test_equals_general_decision(self, rng):
        for _ in range(120):
            sys = support.random_system(rng)
            target = sys.with_target(QMatrix.zeros(sys.m, sys.n), QMatrix.identity(sys.m))
            star = decide.strong_star_functional_detectable(target)
            strong_cert = star.certificate.strong
            strong_holds = strong_cert.rank_condition and strong_cert.zero_condition
            assert decide.asympt_strong_left_invertible(sys).holds == strong_holds
            assert decide.asympt_strong_star_left_invertible(sys).holds == star.holds


class TestDarouach:
    def test_observable_stable_copy_target(self):
        sys = SystemSextuple.from_lists(A=[[-1, 0], [0, -2]], B=[[1], [0]],
                                        C=[[1, 1]], D=[[0]], E=[[1, 1]], F=[[0]])
        v = decide.darouach_fixed_order(sys)
        assert v.holds
        assert v.certificate.kernel.holds and v.certificate.rank_equality.holds

    def test_uncontrollable_note(self):
        v = decide.darouach_fixed_order(support.stable_pair())
        assert not v.certificate.controllable
        assert v.certificate.note is not None

    def test_controllable_matches_krylov_rank(self, rng):
        for _ in range(120):
            sys = support.random_system(rng)
            controllable = decide.darouach_fixed_order(sys).certificate.controllable
            assert controllable == support.ref_controllable(sys)

    def test_implies_strong_star(self, rng):
        for _ in range(120):
            sys = support.random_system(rng)
            if decide.darouach_fixed_order(sys).holds:
                assert decide.strong_star_functional_detectable(sys).holds


class TestImplicationChain:
    def test_random_batch(self, rng):
        for _ in range(120):
            sys = support.random_system(rng)
            f = decide.functional_detectable(sys).holds
            s = decide.strongly_functional_detectable(sys).holds
            ss = decide.strong_star_functional_detectable(sys).holds
            assert (not ss or s) and (not s or f)

    def test_strictness_witnesses(self):
        gap = support.feedthrough_gap()
        assert decide.functional_detectable(gap).holds
        assert not decide.strongly_functional_detectable(gap).holds
        chain = support.integrator_chain()
        assert decide.strongly_functional_detectable(chain).holds
        assert not decide.strong_star_functional_detectable(chain).holds

    def test_no_input_collapses_all_three(self, rng):
        for _ in range(40):
            sys = support.random_system(rng)
            if sys.m:
                sys = sys.known_input_reduction()
            f = decide.functional_detectable(sys).holds
            s = decide.strongly_functional_detectable(sys).holds
            ss = decide.strong_star_functional_detectable(sys).holds
            assert f == s == ss


class TestSympySmithOracle:
    """Normal ranks and zero polynomials in the certificates against sympy's
    Smith normal form over Q[s], on pencils assembled here from the blocks."""

    def test_golden_and_seeded_plants(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form
        s = sympy.Symbol("s")
        Matrix = sympy.Matrix

        def sym(M):
            return Matrix(M.rows, M.cols,
                          [sympy.Rational(x.numerator, x.denominator) for row in M.data for x in row])

        def rank_and_zeros(M):
            S = smith_normal_form(M, domain=sympy.QQ[s])
            diag = [S[i, i] for i in range(min(S.shape)) if S[i, i] != 0]
            prod = sympy.Poly(sympy.Mul(*diag), s).monic()
            return len(diag), Poly([Fraction(int(c.p), int(c.q))
                                    for c in reversed(prod.all_coeffs())])

        rng = random.Random(20260810)
        plants = [build() for build in support.GOLDEN.values()]
        plants += [support.random_system(rng) for _ in range(20)]
        for plant in plants:
            A, B, C, D, E, F = (sym(getattr(plant, k)) for k in "ABCDEF")
            n, m, p, q = plant.n, plant.m, plant.p, plant.q
            sIA = s * sympy.eye(n) - A
            P = Matrix.vstack(Matrix.hstack(sIA, -B), Matrix.hstack(C, D))
            Pe = Matrix.vstack(P, Matrix.hstack(E, F))
            stacked = Matrix.vstack(Matrix.hstack(E * sIA, -E * B, sympy.zeros(q, m)),
                                    Matrix.hstack(C, D, sympy.zeros(p, m)),
                                    Matrix.hstack(C * A, C * B, D))
            strong = decide.strongly_functional_detectable(plant).certificate
            rank_eq = decide.darouach_fixed_order(plant).certificate.rank_equality
            assert rank_and_zeros(P) == (strong.normrank_p, strong.zero_poly_p)
            assert rank_and_zeros(Pe) == (strong.normrank_pe, strong.zero_poly_pe)
            assert rank_and_zeros(stacked) == (rank_eq.normrank_lhs, rank_eq.zero_poly_lhs)
