import json
import random
import sys as _sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from funcobs import decide, exactlin, geometry, markov, polymat, witness
from funcobs.cli import main
from funcobs.corpus import bundled_names, bundled_text
from funcobs.exactlin import DenseMatrix, QMatrix, Subspace
from funcobs.fileio import load_system_text, to_jsonable
from funcobs.polymat import (POLY_ONE, Poly, PolyMatrix, build_system_matrices, poly_gcd,
                             smith_form)
from funcobs.stability import antistable_parts_equal, is_hurwitz
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
        assert star.certificate.inclusion.reachable.dim == 0

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


def _smith_route(sys):
    """P's and P_e's ranks and zeros, and the functional and
    left-invertibility certificates, read off the Smith forms of P and P_e
    and of the known-input pencils [sI - A; C] and [sI - A; C; E]."""
    (rp, zp), (rpe, zpe) = support.ref_zero_structure(support.known_input_reduction(sys))
    cmp_ = antistable_parts_equal(zp, zpe)
    functional = decide.KnownInputCertificate(
        decide.DetectabilityCertificate(rp, rpe, zp, zpe, cmp_, rp == rpe, cmp_.equal))
    full = support.ref_zero_structure(sys)
    rank, zeros = full[0]
    g = poly_gcd(zeros, zp)
    quotient = zeros.exact_div(g).monic()
    rep = is_hurwitz(quotient)
    leftinv = decide.LeftInvertibilityCertificate(rank, sys.n + sys.m, rank == sys.n + sys.m,
                                                  zeros, zp, g, quotient, rep, rep.is_hurwitz)
    return zp, functional, leftinv, full


# sparse entries, so that unobservable modes occur
_sparse = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])))


@st.composite
def _sparse_plants(draw):
    """Plants with n in 0..6 and m, p, q in 0..3, rational entries (D
    among them); half of the A matrices are triangular with a diagonal
    drawn from three values, so eigenvalues repeat."""
    n = draw(st.integers(0, 6))
    m, p, q = (draw(st.integers(0, 3)) for _ in range(3))

    def block(rows, cols):
        return [[draw(_sparse) for _ in range(cols)] for _ in range(rows)]

    A = block(n, n)
    if draw(st.booleans()):
        A = [[draw(st.sampled_from([-1, 0, 1])) if j == i else (a if j > i else 0)
              for j, a in enumerate(row)] for i, row in enumerate(A)]
    return SystemSextuple.from_lists(A=A, B=block(n, m), C=block(p, n), D=block(p, m),
                                     E=block(q, n), F=block(q, m), m=m)


_ROUTE_CASES = {
    # no measurement: every mode is unobservable
    "p_zero": SystemSextuple.from_lists(A=[[1, 1], [0, -2]], E=[[1, 0]], m=0),
    "n_zero": SystemSextuple.from_lists(A=[], D=[[1]], F=[[2]]),
    "q_zero": SystemSextuple.from_lists(A=[[0, 1], [-1, 0]], C=[[0, 0]], m=0),
    "c_zero": SystemSextuple.from_lists(A=[[2, 0], [1, -1]], B=[[1], [0]], C=[[0, 0]],
                                        D=[[1]], E=[[1, 1]]),
    # E sees the unstable mode that C misses: A has modes 1 and -1, and
    # only the stable one shows in C
    "e_adds_observability": SystemSextuple.from_lists(A=[[1, 0, 0], [0, -1, 0], [0, 1, -1]],
                                                      C=[[0, 1, 0]], E=[[1, 0, 0]], m=0),
    # a repeated eigenvalue, one copy hidden from C
    "repeated_mode": SystemSextuple.from_lists(A=[[-1, 0, 0], [0, -1, 0], [0, 0, 3]],
                                               C=[[1, 0, 1]], E=[[0, 1, 0]], m=0),
    # V* = span(e1, e2) (x3 decays on its own), R* = span(e1): P's zero is
    # the mode 2 of V*/R*; E pins x2 too, so P_e's V* is R*
    "r_star_inside_v_star": SystemSextuple.from_lists(
        A=[[1, 0, 0], [0, 2, 0], [0, 0, -1]], B=[[1], [0], [0]], C=[[0, 0, 1]], D=[[0]],
        E=[[0, 1, 0]], F=[[0]]),
    # V* = R* = span(e2): the input moves x2 freely while y = x1 stays 0
    "r_star_equals_v_star": SystemSextuple.from_lists(
        A=[[0, 0], [0, 0]], B=[[0], [1]], C=[[1, 0]], D=[[0]], E=[[1, 1]], F=[[0]]),
    # controllable canonical form read by C = [1 2 1]: the zero s = -1 twice
    "repeated_zero": SystemSextuple.from_lists(
        A=[[0, 1, 0], [0, 0, 1], [-1, -1, -1]], B=[[0], [0], [1]], C=[[1, 2, 1]], D=[[0]],
        E=[[1, 0, 0]], F=[[0]]),
    # the second input is in Ker B ^ Ker D, and only F sees it
    "input_in_ker_b_ker_d": SystemSextuple.from_lists(
        A=[[-1]], B=[[1, 0]], C=[[1]], D=[[1, 0]], E=[[1]], F=[[0, 1]]),
}


class TestUnobservableSubspaceRoute:
    """P's and P_e's normal ranks and zero polynomials, the unobservable
    modes and the functional and left-invertibility certificates, read off
    weakly unobservable subspaces, against the Smith forms of P, P_e and
    the known-input pencils."""

    @staticmethod
    def _check(sys):
        zp, functional, leftinv, full = _smith_route(sys)
        forms = decide.PlantForms(sys)
        strong = decide.strongly_functional_detectable(forms).certificate
        assert ((strong.normrank_p, strong.zero_poly_p),
                (strong.normrank_pe, strong.zero_poly_pe)) == full
        assert forms.unobservable_modes == zp
        got = decide.functional_detectable(forms).certificate
        assert to_jsonable(got) == to_jsonable(functional)
        got = decide.asympt_strong_left_invertible(forms).certificate
        assert to_jsonable(got) == to_jsonable(leftinv)
        return zp

    @given(_sparse_plants())
    def test_matches_smith_route(self, sys):
        self._check(sys)

    @pytest.mark.parametrize("name", sorted(_ROUTE_CASES))
    def test_edge_cases(self, name):
        self._check(_ROUTE_CASES[name])

    def test_edge_cases_have_the_modes_they_name(self):
        assert self._check(_ROUTE_CASES["p_zero"]) == Poly([-2, 1, 1])  # (s - 1)(s + 2)
        assert self._check(_ROUTE_CASES["n_zero"]) == POLY_ONE
        cert = decide.functional_detectable(_ROUTE_CASES["e_adds_observability"]).certificate
        assert cert.reduced.zero_poly_p == Poly([-1, 0, 1])  # (s - 1)(s + 1)
        assert cert.reduced.zero_poly_pe == Poly([1, 1])
        assert self._check(_ROUTE_CASES["repeated_mode"]) == Poly([1, 1])

    @pytest.mark.parametrize("n", [10, 14])
    def test_reanchor_plants(self, n):
        # the n-ladder plants of the benchmark baseline: P and P_e only
        sys = support.reanchor_plant(n)
        cert = decide.strongly_functional_detectable(sys).certificate
        assert ((cert.normrank_p, cert.zero_poly_p),
                (cert.normrank_pe, cert.zero_poly_pe)) == support.ref_zero_structure(sys)

    @pytest.mark.parametrize("name,dims,zeros", [
        ("r_star_inside_v_star", (2, 1), Poly([-2, 1])),
        ("r_star_equals_v_star", (1, 1), POLY_ONE),
        ("repeated_zero", (2, 0), Poly([1, 2, 1])),
        ("input_in_ker_b_ker_d", (1, 0), Poly([2, 1]))])
    def test_cases_have_the_structure_they_name(self, name, dims, zeros):
        # dim V* from the rows, dim R* = dim V* - deg of the zero polynomial
        sys = _ROUTE_CASES[name]
        forms = decide.PlantForms(sys)
        rank, got = forms.rank_and_zero
        dim_v = sys.n - forms.vstar.rows.dim
        assert (dim_v, dim_v - got.degree) == dims and got == zeros
        assert rank == sys.n + support.vstar_input_rows(forms.vstar).dim
        if name == "input_in_ker_b_ker_d":
            # [Y*B; D] = [1 0]: the second input is in its kernel
            assert support.vstar_input_rows(forms.vstar).rows == ((Fraction(1), Fraction(0)),)
            assert decide.strongly_functional_detectable(forms).certificate.normrank_pe == rank + 1

    @pytest.mark.parametrize("name", bundled_names())
    def test_bundled_systems(self, name):
        self._check(load_system_text(bundled_text(name))[0])

    @staticmethod
    def _edit_echelon(monkeypatch, edit):
        """Make every vstar call return its echelon as ``edit(echelon, m)``
        rewrites it: the integer rows that rank_and_zeros and the seeded
        calls read."""
        vstar = geometry.vstar

        def edited(A, B, C, D, seed=None):
            v = vstar(A, B, C, D, seed)
            return v._replace(echelon=edit(v.echelon, v.m))

        monkeypatch.setattr(geometry, "vstar", edited)

    def test_invariance_checked(self, monkeypatch):
        # the row space of C alone: its kernel, Ker C = span(e_2), is not
        # A-invariant, since A e_2 = e_1
        sys = SystemSextuple.from_lists(A=[[0, 1], [0, 0]], C=[[1, 0]], m=0)
        self._edit_echelon(monkeypatch, lambda echelon, m: {m: [0] * m + [1, 0]})
        with pytest.raises(AssertionError, match="not invariant"):
            decide.functional_detectable(sys)
        with pytest.raises(AssertionError, match="not invariant"):
            decide.strongly_functional_detectable(sys)

    def test_friend_checked(self, monkeypatch):
        # V* = span(e_2) is held by u = -x_2; without that friend A moves
        # e_2 to e_1, out of V*: the input-pivot row keeps its input part
        # and loses its state part
        sys = SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[1], [0]], C=[[1, 0]], D=[[0]])
        self._edit_echelon(monkeypatch, lambda echelon, m: {
            p: r if p >= m else r[:m] + [0] * (len(r) - m) for p, r in echelon.items()})
        with pytest.raises(AssertionError, match="not invariant"):
            decide.strongly_functional_detectable(sys)

    def test_input_rows_checked(self, monkeypatch):
        # V* = span(e_2) and [Y*B; D] = [1 0], so L = Ker [Y*B; D] is the
        # second input, which B sends into V*; rows [0 1] make L the first
        # input, which B sends to e_1, out of V*: the input-pivot row
        # [1 0 | 0 0] moves to pivot 1 as [0 1 | 0 0]
        sys = SystemSextuple.from_lists(A=[[0, 0], [0, 0]], B=[[1, 0], [0, 1]], C=[[1, 0]],
                                        D=[[0, 0]])

        def edit(echelon, m):
            assert echelon[0] == [1, 0, 0, 0]
            return {(1 if p == 0 else p): ([0, 1, 0, 0] if p == 0 else r)
                    for p, r in echelon.items()}

        self._edit_echelon(monkeypatch, edit)
        with pytest.raises(AssertionError, match="not invariant"):
            decide.strongly_functional_detectable(sys)


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
                sys = support.known_input_reduction(sys)
            f = decide.functional_detectable(sys).holds
            s = decide.strongly_functional_detectable(sys).holds
            ss = decide.strong_star_functional_detectable(sys).holds
            assert f == s == ss


class TestSympySmithOracle:
    """Normal ranks and zero polynomials in the certificates against sympy's
    Smith normal form over Q[s], on pencils assembled here from the blocks."""

    @staticmethod
    def _plants():
        rng = random.Random(20260810)
        plants = [build() for build in support.GOLDEN.values()]
        return plants + [support.random_system(rng) for _ in range(20)]

    @staticmethod
    def _sympy_pencils(plant):
        """P, P_e and the Darouach stack of a plant, built with sympy."""
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        Matrix = sympy.Matrix

        def sym(M):
            return Matrix(M.rows, M.cols,
                          [sympy.Rational(x.numerator, x.denominator) for row in M.data for x in row])

        A, B, C, D, E, F = (sym(getattr(plant, k)) for k in "ABCDEF")
        n, m, p, q = plant.n, plant.m, plant.p, plant.q
        sIA = s * sympy.eye(n) - A
        P = Matrix.vstack(Matrix.hstack(sIA, -B), Matrix.hstack(C, D))
        Pe = Matrix.vstack(P, Matrix.hstack(E, F))
        stacked = Matrix.vstack(Matrix.hstack(E * sIA, -E * B, sympy.zeros(q, m)),
                                Matrix.hstack(C, D, sympy.zeros(p, m)),
                                Matrix.hstack(C * A, C * B, D))
        return P, Pe, stacked

    @staticmethod
    def _rank_and_zeros(M):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form
        s = sympy.Symbol("s")
        S = smith_normal_form(M, domain=sympy.QQ[s])
        diag = [S[i, i] for i in range(min(S.shape)) if S[i, i] != 0]
        prod = sympy.Poly(sympy.Mul(*diag), s).monic()
        return len(diag), Poly([Fraction(int(c.p), int(c.q))
                                for c in reversed(prod.all_coeffs())])

    def test_golden_and_seeded_plants(self):
        for plant in self._plants():
            P, Pe, stacked = self._sympy_pencils(plant)
            strong = decide.strongly_functional_detectable(plant).certificate
            rank_eq = decide.darouach_fixed_order(plant).certificate.rank_equality
            assert self._rank_and_zeros(P) == (strong.normrank_p, strong.zero_poly_p)
            assert self._rank_and_zeros(Pe) == (strong.normrank_pe, strong.zero_poly_pe)
            assert self._rank_and_zeros(stacked) == (rank_eq.normrank_lhs, rank_eq.zero_poly_lhs)

    def test_darouach_stack_rank_read_from_its_kernel(self):
        # normrank_rhs is the column count minus the kernel dimension of the
        # constant stack, which is eliminated once
        bundled = [load_system_text(bundled_text(name))[0] for name in bundled_names()]
        for plant in bundled + self._plants():
            cert = decide.darouach_fixed_order(plant).certificate
            assert cert.rank_equality.normrank_rhs == support.ref_rank_q(cert.kernel.lhs)

    def test_extension_read_from_vstar(self):
        # P_e's rank and zero polynomial in the functional, strong and
        # strong-star certificates, which never eliminate P_e, against a
        # direct Smith form of P_e and against sympy
        for plant in self._plants():
            certs = {
                "functional": (support.known_input_reduction(plant),
                               decide.functional_detectable(plant).certificate.reduced),
                "strong": (plant, decide.strongly_functional_detectable(plant).certificate),
                "strong_star": (plant,
                                decide.strong_star_functional_detectable(plant).certificate.strong),
            }
            for name, (sys, cert) in certs.items():
                Pe = PolyMatrix.vstack(build_system_matrices(sys))
                got = (cert.normrank_pe, cert.zero_poly_pe)
                assert got == support.ref_rank_and_zero_polynomial(Pe), name
                assert got == self._rank_and_zeros(self._sympy_pencils(sys)[1]), name


class TestWorkCount:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every smith_form call, with its matrix and decomposition."""
        calls = []

        def counting(M):
            dec = smith_form(M)
            calls.append((M, dec))
            return dec

        monkeypatch.setattr(witness, "smith_form", counting)
        monkeypatch.setattr(polymat, "smith_form", counting)
        return calls

    @pytest.fixture
    def plant(self):
        return SystemSextuple.from_lists(**support.seeded_n6_lists())

    def test_strong_eliminates_nothing(self, calls, plant):
        """P's and P_e's ranks and zeros come from V*: no Smith form."""
        decide.strongly_functional_detectable(plant)
        assert calls == []

    @pytest.mark.parametrize("p", [2, 1], ids=["zeros_of_a_v", "zeros_through_r_star"])
    def test_rank_and_zeros_reads_kernels_off_rows(self, monkeypatch, p):
        """V*'s and Ker [Y*B; D]'s bases are read off the canonical rows
        that vstar returns: no kernel is eliminated.  With p = 1, L != 0
        and the zeros come through R*."""
        sys = SystemSextuple.from_lists(**support.seeded_n6_lists(p))
        want = decide.strongly_functional_detectable(sys).certificate
        v = geometry.vstar(sys.A, sys.B, sys.C, sys.D)
        assert (support.vstar_input_rows(v).dim < sys.m) == (p == 1)
        count = Counter()
        kernel_basis = exactlin.kernel_basis

        def counted(M):
            count["kernel_basis"] += 1
            return kernel_basis(M)

        monkeypatch.setattr(exactlin, "kernel_basis", counted)
        monkeypatch.setattr(geometry, "kernel_basis", counted)
        assert geometry.rank_and_zeros(sys.A, sys.B, v) == (want.normrank_p, want.zero_poly_p)
        assert count == {}

    def test_rank_and_zeros_multiplies_no_fraction_matrices(self, monkeypatch):
        """V*'s restrictions, R*'s unobservable subspace and its zeros are
        formed on integer rows: no QMatrix product between V*'s rows and
        the zero polynomial, on a plant whose zeros come through R*."""
        sys = SystemSextuple.from_lists(**support.seeded_n6_lists(1))
        v = geometry.vstar(sys.A, sys.B, sys.C, sys.D)
        assert support.vstar_input_rows(v).dim < sys.m
        products = []
        matmul = QMatrix.__matmul__

        def counted(self, other):
            products.append((self.shape, other.shape))
            return matmul(self, other)

        monkeypatch.setattr(QMatrix, "__matmul__", counted)
        got = geometry.rank_and_zeros(sys.A, sys.B, v)
        assert products == []
        assert got == support.ref_rank_and_zeros(sys.A, sys.B, v)

    def test_vstar_hands_each_row_to_the_elimination_once(self, monkeypatch):
        """One vstar call hands the echelon it keeps each row of [D C] and
        each product [y B, y A] once: no step re-eliminates the rows kept
        from the step before."""
        # strictly proper with p = 3: Y* grows for four steps
        plant = SystemSextuple.from_lists(**dict(support.seeded_n6_lists(p=3), D=[[0, 0]] * 3))
        handed = []
        add = exactlin._echelon_add

        def spy(echelon, row):
            handed.append(row)
            return add(echelon, row)

        monkeypatch.setattr(geometry, "_echelon_add", spy)
        v = geometry.vstar(plant.A, plant.B, plant.C, plant.D)
        assert v.steps == 4
        # one product for each row of Y*, none for the last step
        assert len(handed) == plant.p + v.rows.dim

        def pivots(Y):
            return {next(j for j, x in enumerate(y) if x) for y in Y.rows}

        handed.clear()
        CE, DF = QMatrix.vstack([plant.C, plant.E]), QMatrix.vstack([plant.D, plant.F])
        ve = geometry.vstar(plant.A, plant.B, CE, DF, v.state_rows)
        assert len(handed) == CE.rows + v.rows.dim + len(pivots(ve.rows) - pivots(v.rows))

    def test_growing_an_echelon_rewrites_no_kept_row(self):
        """Each add leaves every kept row the same list with the same
        entries, whether the row is new, in the span or handed to a full
        echelon."""
        rng = random.Random(32)
        # the first row leads late, so later pivots land before it
        rows = [[0, 0, 0, 2, 1]] + [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        rows += [[2 * x - y for x, y in zip(rows[1], rows[2])], rows[3], [0] * 5]
        rows += [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        echelon: dict[int, list[int]] = {}
        for row in rows:
            kept = {p: (r, list(r)) for p, r in echelon.items()}
            exactlin._echelon_add(echelon, row)
            assert all(echelon[p] is r and r == entries for p, (r, entries) in kept.items())
        assert len(echelon) == 5

    def test_full_echelon_takes_a_row_without_arithmetic(self):
        """A row handed to an echelon with a pivot in every column is not
        read at all, so no arithmetic is done on it."""
        class Unread(list):
            def __iter__(self):
                raise AssertionError("row read")

            def __getitem__(self, key):
                raise AssertionError("row read")

        echelon = {2: [0, 0, 3], 0: [3, 1, 2], 1: [0, 4, 2]}
        kept = dict(echelon)
        exactlin._echelon_add(echelon, Unread([1, 2, 3]))
        assert echelon == kept and all(echelon[c] is kept[c] for c in kept)

    def test_check_eliminates_no_pencil(self, calls, monkeypatch, tmp_path):
        """The eight decisions of one check read V*: none builds a
        polynomial matrix, Darouach's included."""
        built = []
        dense_init = DenseMatrix.__init__

        def init(self, *args):
            if type(self) is PolyMatrix:
                built.append(self)
            dense_init(self, *args)

        monkeypatch.setattr(DenseMatrix, "__init__", init)
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(support.seeded_n6_lists()))
        main(["check", str(path), "--all", "--specialize", "hautus",
              "--specialize", "leftinv", "--specialize", "darouach"])
        assert calls == []
        assert built == []

    def test_plant_blocks_are_read_into_integers_once(self, monkeypatch, plant, tmp_path):
        """The eight decisions of one check share one PlantForms, which
        reads each block of the plant into integers once; rank_and_zeros
        reads V*'s echelon as it is and brings nothing to integers."""
        reads = []

        def spying(name):
            original = getattr(exactlin, name)

            def spy(arg):
                reads.append((name, tuple(arg)))
                return original(arg)
            return spy

        for name in ("_integer_matrix", "_integer_row"):
            spy = spying(name)
            monkeypatch.setattr(exactlin, name, spy)
            monkeypatch.setattr(geometry, name, spy, raising=False)
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(support.seeded_n6_lists()))
        main(["check", str(path), "--all", "--specialize", "hautus",
              "--specialize", "leftinv", "--specialize", "darouach"])
        blocks = [getattr(plant, name).data for name in "ABCDEF"]
        assert len(set(blocks)) == 6
        assert [reads.count(("_integer_matrix", block)) for block in blocks] == [1] * 6

        forms = decide.PlantForms(plant)
        v = forms.vstar
        reads.clear()
        assert forms.rank_and_zero == geometry.rank_and_zeros(plant.A, plant.B, v)
        assert [r for r in reads if r[1] not in blocks[:2]] == []

    def test_decision_consistency_shares_p(self, calls, plant):
        # P is square and nonsingular: the witness solves at points, and
        # nothing eliminates P
        assert witness.decision_consistency(plant)
        assert calls == []

    @pytest.mark.parametrize("lists", [
        support.seeded_n6_lists(p=3),
        # B = 0 and D = 0: P is square but singular
        dict(support.seeded_n6_lists(), B=[[0, 0]] * 6, D=[[0, 0]] * 2)],
        ids=["p_ne_m", "square_singular"])
    def test_witness_falls_back_to_one_smith_form(self, calls, lists):
        # the witness's Smith form of P is the only one, and
        # decision_consistency shares it with nothing else
        plant = SystemSextuple.from_lists(**lists)
        assert witness.decision_consistency(plant)
        assert len(calls) == 1
        assert calls[0][0] == build_system_matrices(plant)[0]
        witness.solve_over_field(plant)
        assert len(calls) == 2

    @pytest.mark.parametrize("fn,count", [
        (decide.functional_detectable, 0), (decide.strongly_functional_detectable, 0),
        (decide.strong_star_functional_detectable, 0), (decide.hautus_strong_detectable, 0),
        (decide.hautus_strong_star_detectable, 0), (decide.asympt_strong_left_invertible, 0),
        (decide.asympt_strong_star_left_invertible, 0), (decide.darouach_fixed_order, 0),
        (witness.solve_over_field, 0)])
    def test_bare_plant_does_all_its_own_work(self, calls, monkeypatch, plant, fn, count):
        # no cache outlives the per-plant object: each call on a bare plant
        # grows its subspaces again, and makes ``count`` Smith forms each time
        grown = []
        vstar = geometry.vstar

        def spy(*args):
            grown.append(args)
            return vstar(*args)

        monkeypatch.setattr(geometry, "vstar", spy)
        fn(plant)
        once = len(grown)
        assert len(calls) == count
        fn(plant)
        assert len(calls) == 2 * count
        assert grown[once:] == grown[:once]
        assert [M for M, _ in calls[:count]] == [M for M, _ in calls[count:]]

    def test_functional_grows_from_the_observed_rows(self, monkeypatch):
        """(A, [C; E])'s unobservable subspace is grown from the integer
        rows of (A, C)'s echelon, which the forms keep."""
        seeds = []
        grow = geometry.unobservable

        def spy(A, C, seed=None):
            seeds.append(seed)
            return grow(A, C, seed)

        monkeypatch.setattr(geometry, "unobservable", spy)
        # x1 is hidden from C = [0 1 0]; E reads it
        forms = decide.PlantForms(SystemSextuple.from_lists(
            A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]], C=[[0, 1, 0]], E=[[1, 0, 0]], m=0))
        assert decide.functional_detectable(forms).certificate.reduced.zero_poly_pe == POLY_ONE
        assert seeds == [None, forms.unobservable.state_rows]
        assert seeds[1] == [[0, 1, 0], [0, 0, 1]]

    def test_system_matrices_assemble_no_blocks(self, monkeypatch):
        """P and [E F] come straight from the plant's rows: no block
        assembly, no intermediate QMatrix and no coerced Poly entry."""
        rng = random.Random(4)

        def block(rows, cols):
            return [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                     for _ in range(cols)] for _ in range(rows)]

        plant = SystemSextuple.from_lists(A=block(4, 4), B=block(4, 2), C=block(2, 4),
                                          D=block(2, 2), E=block(2, 4), F=block(2, 2))
        want = support.ref_build_system_matrices(plant)
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("from_blocks", "hstack", "vstack"):
            monkeypatch.setattr(DenseMatrix, name,
                                classmethod(counted(name, getattr(DenseMatrix, name).__func__)))
        dense_init = DenseMatrix.__init__

        def init(self, *args):
            if type(self) is QMatrix:
                counts["QMatrix"] += 1
            dense_init(self, *args)

        monkeypatch.setattr(DenseMatrix, "__init__", init)
        monkeypatch.setattr(Poly, "__init__", counted("Poly.__init__", Poly.__init__))
        got = build_system_matrices(plant)
        assert counts == {}
        assert got == want

    def test_darouach_writes_its_matrices_from_the_plant_rows(self, monkeypatch, plant):
        """No block assembly and no negated copy; the constant stack is
        eliminated once, for its kernel (with its columns reversed), and
        never for a separate rank."""
        counts = Counter()
        eliminated, ranked = [], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("from_blocks", "hstack", "vstack"):
            monkeypatch.setattr(DenseMatrix, name,
                                classmethod(counted(name, getattr(DenseMatrix, name).__func__)))
        # QMatrix has no negation, so a negated copy would raise
        assert not hasattr(QMatrix, "__neg__")
        rank, echelon = QMatrix.rank, exactlin._integer_echelon

        def recorded_rank(self):
            ranked.append(self)
            return rank(self)

        def recorded_echelon(rows):
            eliminated.append(tuple(map(tuple, rows)))
            return echelon(rows)

        monkeypatch.setattr(QMatrix, "rank", recorded_rank)
        monkeypatch.setattr(exactlin, "_integer_echelon", recorded_echelon)
        lhs = decide.darouach_fixed_order(plant).certificate.kernel.lhs
        assert counts == {}
        assert lhs not in ranked
        assert eliminated.count(tuple(row[::-1] for row in lhs.data)) == 1

    @pytest.mark.parametrize("lists", [
        support.seeded_n6_lists(),
        # B = 0 and D = 0: P is square but singular, and the one solve
        # proves it before the Smith form takes over
        dict(support.seeded_n6_lists(), B=[[0, 0]] * 6, D=[[0, 0]] * 2)],
        ids=["nonsingular", "singular"])
    def test_square_witness_solves_once(self, monkeypatch, lists):
        """A square P takes one integer solve, whatever n is."""
        solves = []
        solve = witness.adjugate_solve

        def spy(rows):
            solves.append(rows)
            return solve(rows)

        monkeypatch.setattr(witness, "adjugate_solve", spy)
        plant = SystemSextuple.from_lists(**lists)
        rep = witness.solve_over_field(plant)
        assert len(solves) == 1
        assert rep.residual_zero in (True, None)

    def test_b_d_ranks_read_integer_rows(self, monkeypatch, plant):
        """rank [B; D] of the Hautus test and rank D of the feedthrough
        condition come from the integer blocks the forms hold: no
        ``QMatrix`` rank and no ``Fraction`` row brought to integers."""
        forms = decide.PlantForms(plant)
        # V* and the unobservable modes are grown before the spies go in
        forms.rank_and_zero, forms.unobservable_modes
        ranked, rows = [], []
        rank, integer_row = QMatrix.rank, exactlin._integer_row

        def recorded_rank(self):
            ranked.append(self)
            return rank(self)

        def recorded_row(row):
            rows.append(row)
            return integer_row(row)

        monkeypatch.setattr(QMatrix, "rank", recorded_rank)
        monkeypatch.setattr(exactlin, "_integer_row", recorded_row)
        hautus = decide.hautus_strong_detectable(forms).certificate
        star = decide.asympt_strong_star_left_invertible(forms).certificate
        assert ranked == [] and rows == []
        assert hautus.n_plus_rank_bd == plant.n + support.ref_rank_q(
            QMatrix.vstack([plant.B, plant.D]))
        assert star.rank_d == support.ref_rank_q(plant.D)

    def test_hautus_negates_nothing(self, plant):
        # QMatrix has no negation, so a negated copy would raise
        assert not hasattr(QMatrix, "__neg__")
        cert = decide.hautus_strong_detectable(plant).certificate
        assert cert.n_plus_rank_bd == plant.n + support.ref_rank_q(
            QMatrix.vstack([plant.B, plant.D]))

    def test_witness_rederives_no_inclusion(self, monkeypatch, tmp_path, capsys):
        """``funcobs witness`` reports the strong-star certificate and runs
        no Toeplitz kernel search beside it."""
        searched = []
        search = markov.kernel_inclusion_upto

        def spy(*args):
            searched.append(args)
            return search(*args)

        for module in [m for name, m in _sys.modules.items() if name.startswith("funcobs")]:
            if getattr(module, "kernel_inclusion_upto", None) is search:
                monkeypatch.setattr(module, "kernel_inclusion_upto", spy)
        assert main(["witness", "integrator_chain", "--out", str(tmp_path / "w.json")]) == 0
        assert "strong-star inclusion" in capsys.readouterr().out
        assert searched == []

    def test_strong_star_intersects_once(self, monkeypatch):
        """The reachable pairs are (T* + Q^m) ^ Ker [C D], one intersection
        however many steps T* takes: three on a shift chain read at its
        head, where R grows for two."""
        count = Counter()
        intersect = Subspace.intersect

        def counted(self, other):
            count["intersect"] += 1
            return intersect(self, other)

        monkeypatch.setattr(Subspace, "intersect", counted)
        chain = SystemSextuple.from_lists(A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]], B=[[0], [0], [1]],
                                          C=[[1, 0, 0]], D=[[0]], E=[[0, 1, 0]], F=[[0]])
        verdict = decide.strong_star_functional_detectable(chain)
        assert verdict.certificate.inclusion.reachable_steps == 3
        assert count == {"intersect": 1}


def _equality_plants():
    rng = random.Random(20261018)
    plants = [load_system_text(bundled_text(name))[0] for name in bundled_names()]
    plants += [support.random_system(rng) for _ in range(25)]
    plants += [SystemSextuple.from_lists(A=[[0]], C=[[1]], E=[[1]], m=0),
               SystemSextuple.from_lists(A=[[-1, 2], [0, 1]], C=[[1, 0]], E=[[0, 1]], m=0),
               SystemSextuple.from_lists(A=[], D=[[1]], F=[[1]]),
               SystemSextuple.from_lists(A=[], F=[[1]])]
    assert any(p.n == 0 for p in plants) and any(p.m == 0 for p in plants)
    return plants


# forward order as `check` runs them
_FORWARD = [decide.functional_detectable, decide.strongly_functional_detectable,
            decide.strong_star_functional_detectable, decide.hautus_strong_detectable,
            decide.hautus_strong_star_detectable, decide.asympt_strong_left_invertible,
            decide.asympt_strong_star_left_invertible, decide.darouach_fixed_order]


class TestPlantForms:
    @pytest.mark.parametrize("plant", _equality_plants(), ids=lambda p: f"n{p.n}m{p.m}p{p.p}q{p.q}")
    def test_shared_forms_give_the_bare_plant_answers(self, plant):
        bare = {fn.__name__: to_jsonable(fn(plant)) for fn in _FORWARD}
        forms = decide.PlantForms(plant)
        forward = {fn.__name__: to_jsonable(fn(forms)) for fn in _FORWARD}
        # reversed: strong-star before strong, each star test before its
        # plain half
        forms = decide.PlantForms(plant)
        backward = {fn.__name__: to_jsonable(fn(forms)) for fn in reversed(_FORWARD)}
        assert forward == bare
        assert backward == bare

    def test_of_keeps_an_object_and_wraps_a_plant(self):
        plant = support.stable_pair()
        forms = decide.PlantForms(plant)
        assert decide.PlantForms.of(forms) is forms
        fresh = decide.PlantForms.of(plant)
        assert fresh is not forms and fresh.sys is plant


@st.composite
def _invertible(draw, k):
    """A rational matrix T of nonzero determinant and its exact inverse, as
    a product of up to four elementary row operations: T gets each
    operation on its rows, the inverse the opposite one on its columns.  A
    row scaled by c, c not 0 or +-1, makes T non-integer."""
    T = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    Ti = [row[:] for row in T]
    for _ in range(draw(st.integers(0, 4)) if k else 0):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate", "scale"]))
        if kind == "add" and i != j:
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            T[i] = [a + c * b for a, b in zip(T[i], T[j])]
            for row in Ti:
                row[j] -= c * row[i]
        elif kind == "swap":
            T[i], T[j] = T[j], T[i]
            for row in Ti:
                row[i], row[j] = row[j], row[i]
        elif kind == "negate":
            T[i] = [-a for a in T[i]]
            for row in Ti:
                row[i] = -row[i]
        elif kind == "scale":
            c = draw(st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-5, 2)]))
            T[i] = [c * a for a in T[i]]
            for row in Ti:
                row[i] /= c
    T, Ti = QMatrix.from_rows(T, cols=k), QMatrix.from_rows(Ti, cols=k)
    assert T @ Ti == QMatrix.identity(k)
    return T, Ti


@st.composite
def _plant_and_coordinates(draw):
    """A plant with n <= 4, m, p, q <= 2 and entries in -2..2, and the same
    plant in new state, input, measurement and target coordinates:
    (T A T^-1, T B K, R C T^-1, R D K, S E T^-1, S F K)."""
    sys = draw(support.plants(4, 2))
    (T, Ti), (K, _), (R, _), (S, _) = (draw(_invertible(k)) for k in (sys.n, sys.m, sys.p, sys.q))
    moved = SystemSextuple(T @ sys.A @ Ti, T @ sys.B @ K, R @ sys.C @ Ti, R @ sys.D @ K,
                           S @ sys.E @ Ti, S @ sys.F @ K)
    return sys, moved


def _coordinate_free(sys):
    """The eight verdicts and the certificate quantities that no change of
    coordinates can move."""
    forms = decide.PlantForms(sys)
    verdicts = {fn.__name__: fn(forms) for fn in _FORWARD}
    strong, functional = forms.detectability, forms.functional
    inclusion = verdicts["strong_star_functional_detectable"].certificate.inclusion
    darouach = verdicts["darouach_fixed_order"].certificate.rank_equality
    return ({name: v.holds for name, v in verdicts.items()},
            (strong.normrank_p, strong.normrank_pe, strong.zero_poly_p, strong.zero_poly_pe),
            (functional.zero_poly_p, functional.zero_poly_pe),
            forms.unobservable_modes,
            (inclusion.reachable.dim, inclusion.reachable_steps),
            (darouach.normrank_lhs, darouach.zero_poly_lhs))


class TestCoordinateChanges:
    """Invertible rational changes of state, input, measurement and target
    coordinates change no verdict and no certificate invariant."""

    @given(_plant_and_coordinates())
    def test_invariants_survive(self, pair):
        sys, moved = pair
        before = _coordinate_free(sys)
        assert _coordinate_free(moved) == before
        holds = before[0]
        if holds["strong_star_functional_detectable"]:
            assert holds["strongly_functional_detectable"]
        if holds["strongly_functional_detectable"]:
            assert holds["functional_detectable"]
