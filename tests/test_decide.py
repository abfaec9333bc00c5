import functools
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
from funcobs.exactlin import DenseMatrix, IntegerMatrix, QMatrix, Subspace, first_escape
from funcobs.fileio import load_system_text, to_jsonable
from funcobs.polymat import POLY_ONE, Poly, PolyMatrix, pencil, poly_gcd, smith_form
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

        def edited(S, n, seed=None):
            v = vstar(S, n, seed)
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
                Pe = support.stack([[M] for M in support.pencils(sys)])
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

    @pytest.fixture
    def built(self, monkeypatch):
        """The class of every matrix built, QMatrix or PolyMatrix, from
        here on."""
        built = []
        dense_init = DenseMatrix.__init__

        def init(self, *args):
            built.append(type(self))
            dense_init(self, *args)

        monkeypatch.setattr(DenseMatrix, "__init__", init)
        return built

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
        S = decide.PlantForms(sys).system_matrix
        v = geometry.vstar(S, sys.n)
        assert (support.vstar_input_rows(v).dim < sys.m) == (p == 1)
        count = Counter()
        kernel_basis = exactlin.kernel_basis

        def counted(M):
            count["kernel_basis"] += 1
            return kernel_basis(M)

        monkeypatch.setattr(exactlin, "kernel_basis", counted)
        monkeypatch.setattr(geometry, "kernel_basis", counted)
        assert geometry.rank_and_zeros(S, sys.n, v) == (want.normrank_p, want.zero_poly_p)
        assert count == {}

    def test_rank_and_zeros_multiplies_no_fraction_matrices(self, built):
        """V*'s restrictions, R*'s unobservable subspace and its zeros are
        formed on integer rows: no QMatrix is built between V*'s rows and
        the zero polynomial, on a plant whose zeros come through R*."""
        sys = SystemSextuple.from_lists(**support.seeded_n6_lists(1))
        S = decide.PlantForms(sys).system_matrix
        v = geometry.vstar(S, sys.n)
        assert support.vstar_input_rows(v).dim < sys.m
        built.clear()
        got = geometry.rank_and_zeros(S, sys.n, v)
        assert QMatrix not in built
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
        forms = decide.PlantForms(plant)
        v = geometry.vstar(forms.system_matrix, plant.n)
        assert v.steps == 4
        # one product for each row of Y*, none for the last step
        assert len(handed) == plant.p + v.rows.dim

        def pivots(Y):
            return {next(j for j, x in enumerate(y) if x) for y in Y.rows}

        handed.clear()
        Se = forms.system_matrix_e
        ve = geometry.vstar(Se, plant.n, v.rows)
        # each row of [C D; E F] once, and one product for each seed row and
        # each new row of Y*
        new = len(pivots(ve.rows) - pivots(v.rows))
        assert len(handed) == (Se.rows - plant.n) + v.rows.dim + new

    def test_inclusion_makes_no_fraction_but_the_violation(self, monkeypatch, plant):
        """strong_star_inclusion, intersect and first_escape read canonical
        integer rows: no row is brought to integers, and the only Fractions
        made are the entries of the escaping vector that first_escape
        returns."""
        made, converted = [], []
        integer_row = exactlin._integer_row

        class Counted(Fraction):
            def __new__(cls, *args):
                made.append(args)
                return Fraction(*args)

        def spy(row):
            converted.append(row)
            return integer_row(row)

        sys = support.integrator_chain()
        # the plants are read before the count starts
        calls = []
        for p in (plant, plant.with_target(plant.C, plant.D), sys):
            forms = decide.PlantForms(p)
            calls.append((forms.system_matrix, forms.EF, p.n))
        V = Subspace.span(sys.n + sys.m, [[1, 2, 0], [0, 1, 1]])
        W = Subspace.span(sys.n + sys.m, [[1, 3, 1], [2, 0, 5]])
        M = IntegerMatrix.of(QMatrix.from_rows([[0, 1, -1]]))
        for module in (exactlin, geometry):
            monkeypatch.setattr(module, "Fraction", Counted)
        monkeypatch.setattr(exactlin, "_integer_row", spy)
        holds = []
        for call in calls:
            made.clear()
            cert = geometry.strong_star_inclusion(*call)
            holds.append(cert.holds)
            assert [Fraction(*args) for args in made] == [x for x in cert.violation or () if x]
        assert holds == [decide.strong_star_functional_detectable(plant).certificate
                         .inclusion.holds, True, False]
        made.clear()
        assert V.intersect(W).dim == 1 and made == []
        # V's rows are (1, 0, -2) and (0, 1, 1): M sees the first
        assert first_escape(V, M) == (1, 0, -2)
        assert made == [(1, 1), (-2, 1)]
        assert converted == []

    @pytest.mark.parametrize("lists", [
        support.seeded_n6_lists(),
        # fails at order 0, so the escaping vector is made
        dict(A=[[0, 0], [1, 0]], B=[[1], [0]], C=[[1, 1]], D=[[0]], E=[[0, 0]], F=[[1]]),
        # rational blocks: the chains carry unreduced denominators
        dict(A=[["1/2", 1], [0, "-1/3"]], B=[["2/3"], [1]], C=[[1, "1/5"]], D=[["1/7"]],
             E=[["3/4", 0]], F=[[0]])],
        ids=["seeded", "failing", "rational"])
    def test_toeplitz_search_runs_on_integers(self, monkeypatch, built, lists):
        """kernel_inclusion_upto reads the plant's blocks into integers and
        builds its chains, kernels and escape tests on them: no row is
        brought to integers and no QMatrix is built."""
        plant = SystemSextuple.from_lists(**lists)
        calls = Counter()

        def spying(name):
            original = getattr(exactlin, name)

            def spy(arg):
                calls[name] += 1
                return original(arg)
            return spy

        for name in ("_integer_row", "_common_den"):
            monkeypatch.setattr(exactlin, name, spying(name))
        built.clear()
        rep = markov.kernel_inclusion_upto(plant, plant.n + plant.m)
        assert calls == {} and QMatrix not in built
        assert rep.holds == (rep.witness is None)

    @pytest.mark.parametrize("lists", [
        support.seeded_n6_lists(),
        dict(A=[["1/2", 1], [0, "-1/3"]], B=[[1], ["2/3"]], C=[[1, "3/4"]], D=[["1/5"]],
             E=[["1/7", 2]], F=[["-1/2"]])],
        ids=["seeded", "rational"])
    def test_square_witness_reads_the_pencil(self, monkeypatch, lists):
        """The square solve reads P and [E F] as ``polymat.pencil`` wrote
        them from S_e's integer rows: no plant row is brought over its
        common denominator."""
        plant = SystemSextuple.from_lists(**lists)
        calls = []
        common_den = exactlin._common_den

        def spy(xs):
            calls.append(xs)
            return common_den(xs)

        for name, module in list(_sys.modules.items()):
            if name.startswith("funcobs.") and getattr(module, "_common_den", None) is common_den:
                monkeypatch.setattr(module, "_common_den", spy)
        rep = witness.solve_over_field(plant)
        assert rep.residual_zero and rep.left_kernel_dim == 0
        assert calls == []

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

    def test_check_eliminates_no_pencil(self, calls, built, tmp_path):
        """The eight decisions of one check read V*: none builds a
        polynomial matrix, Darouach's included."""
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(support.seeded_n6_lists()))
        main(["check", str(path), "--all", "--specialize", "hautus",
              "--specialize", "leftinv", "--specialize", "darouach"])
        assert calls == []
        assert PolyMatrix not in built

    def test_check_reads_the_plant_into_integers_once(self, monkeypatch, plant, tmp_path):
        """The eight decisions of one check share one PlantForms, which
        reads each entry of the plant into integers once, in one read:
        S_e = [A B; C D; E F].  rank_and_zeros reads V*'s echelon as it is
        and brings nothing to integers."""
        reads = []
        of, integer_row = IntegerMatrix.of, exactlin._integer_row

        def read_matrix(M):
            reads.append(("of", M.data))
            return of(M)

        def read_row(row):
            reads.append(("_integer_row", tuple(row)))
            return integer_row(row)

        monkeypatch.setattr(IntegerMatrix, "of", staticmethod(read_matrix))
        monkeypatch.setattr(exactlin, "_integer_row", read_row)
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(support.seeded_n6_lists()))
        main(["check", str(path), "--all", "--specialize", "hautus",
              "--specialize", "leftinv", "--specialize", "darouach"])
        assert reads == [("of", support.ref_plant_forms(plant)["system_matrix_e"].data)]

        forms = decide.PlantForms(plant)
        v = forms.vstar
        reads.clear()
        assert forms.rank_and_zero == geometry.rank_and_zeros(forms.system_matrix, plant.n, v)
        assert reads == []

    @pytest.mark.parametrize("lists", [support.seeded_n6_lists(), support.rational_blocks_lists()],
                             ids=["seeded", "rational"])
    def test_decisions_stack_nothing_past_the_read(self, monkeypatch, lists):
        """Once the plant is read, the eight decisions hand on slices of
        S_e and matrices written from its rows: no block is read on its
        own, and no matrix is stacked or padded from blocks."""
        forms = decide.PlantForms(SystemSextuple.from_lists(**lists))
        forms.system_matrix, forms.EF  # the plant is read before the count starts
        made = Counter()

        def counted(name, fn):
            def wrapper(*args):
                made[name] += 1
                return fn(*args)
            return staticmethod(wrapper)

        for name in ("hstack", "vstack", "zeros", "of"):
            monkeypatch.setattr(IntegerMatrix, name, counted(name, getattr(IntegerMatrix, name)))
        for fn in _FORWARD:
            fn(forms)
        assert made == {}

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
        assert calls[0][0] == support.pencils(plant)[0]
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
        grow = geometry.vstar

        def spy(S, n, seed=None):
            seeds.append(seed)
            return grow(S, n, seed)

        monkeypatch.setattr(geometry, "vstar", spy)
        # x1 is hidden from C = [0 1 0]; E reads it
        forms = decide.PlantForms(SystemSextuple.from_lists(
            A=[[0, 1, 0], [0, 0, 1], [0, 0, 0]], C=[[0, 1, 0]], E=[[1, 0, 0]], m=0))
        assert decide.functional_detectable(forms).certificate.reduced.zero_poly_pe == POLY_ONE
        assert seeds == [None, forms.unobservable.rows]
        assert seeds[1].ints == ((0, 1, 0), (0, 0, 1))

    def test_system_matrices_assemble_no_blocks(self, monkeypatch, built):
        """P and [E F] come straight from the rows of S_e, which the forms
        read: no block assembly, no intermediate QMatrix and no coerced
        Poly entry.  The plants have n = 0, m = 0, p = 0 or q = 0, or
        entries over several denominators, one for each block."""
        rng = random.Random(4)

        def block(rows, cols):
            return [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                     for _ in range(cols)] for _ in range(rows)]

        plants = [SystemSextuple.from_lists(A=block(4, 4), B=block(4, 2), C=block(2, 4),
                                            D=block(2, 2), E=block(2, 4), F=block(2, 2)),
                  SystemSextuple.from_lists(**support.rational_blocks_lists())]
        for n, m, p, q in [(0, 2, 2, 1), (3, 0, 2, 1), (3, 2, 0, 1), (3, 2, 2, 0)]:
            plants.append(SystemSextuple.from_lists(
                A=block(n, n), B=block(n, m), C=block(p, n), D=block(p, m), E=block(q, n),
                F=block(q, m), m=m))
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Poly, "__init__", counted("Poly.__init__", Poly.__init__))
        for plant in plants:
            want = support.ref_build_system_matrices(plant)
            forms = decide.PlantForms(plant)
            S, EF = forms.system_matrix, forms.EF
            counts.clear()
            built.clear()
            got = pencil(S, plant.n), pencil(EF, 0)
            assert counts == {} and built == [PolyMatrix, PolyMatrix]
            assert got == want

    def test_darouach_writes_its_matrices_from_the_plant_rows(self, monkeypatch, plant):
        """No negated copy; the constant stack is eliminated once, for its
        kernel (with its columns reversed), and never for a separate
        rank."""
        eliminated, ranked = [], []
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
            support.stack([[plant.B], [plant.D]]))
        assert star.rank_d == support.ref_rank_q(plant.D)

    def test_hautus_negates_nothing(self, plant):
        # QMatrix has no negation, so a negated copy would raise
        assert not hasattr(QMatrix, "__neg__")
        cert = decide.hautus_strong_detectable(plant).certificate
        assert cert.n_plus_rank_bd == plant.n + support.ref_rank_q(
            support.stack([[plant.B], [plant.D]]))

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

    def test_each_form_is_computed_once(self, monkeypatch):
        """The eight decisions on one PlantForms compute each of its
        attributes at most once, and a second round computes none: every
        decision that takes an attribute reads the one object kept in the
        instance.  Over the bundled plants every attribute is computed."""
        made = Counter()
        forms_class = vars(decide.PlantForms)
        names = [name for name, attr in forms_class.items() if isinstance(attr, decide._once)]
        for name in names:
            def counted(forms, name=name, compute=forms_class[name].func):
                made[name] += 1
                return compute(forms)
            monkeypatch.setattr(forms_class[name], "func", counted)
        computed = set()
        for text in map(bundled_text, bundled_names()):
            made.clear()
            forms = decide.PlantForms(load_system_text(text)[0])
            first = [to_jsonable(fn(forms)) for fn in _FORWARD]
            kept = {name: forms.__dict__[name] for name in names if name in forms.__dict__}
            assert made == dict.fromkeys(kept, 1)
            assert [to_jsonable(fn(forms)) for fn in _FORWARD] == first
            assert made == dict.fromkeys(kept, 1)
            assert all(forms.__dict__[name] is value for name, value in kept.items())
            computed.update(kept)
        assert computed == set(names)

    def test_of_keeps_an_object_and_wraps_a_plant(self):
        plant = support.stable_pair()
        forms = decide.PlantForms(plant)
        assert decide.PlantForms.of(forms) is forms
        fresh = decide.PlantForms.of(plant)
        assert fresh is not forms and fresh.sys is plant


@st.composite
def _mixed_denominator_plants(draw):
    """Plants with n, m, p and q in 0..3, each block over a denominator of
    its own, and about a quarter of the blocks zero."""
    n, m, p, q = (draw(st.integers(0, 3)) for _ in range(4))

    def block(rows, cols):
        den = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 9]))
        zero = draw(st.integers(0, 3)) == 0
        return [[Fraction(0 if zero else draw(st.integers(-3, 3)), den) for _ in range(cols)]
                for _ in range(rows)]

    return SystemSextuple.from_lists(A=block(n, n), B=block(n, m), C=block(p, n),
                                     D=block(p, m), E=block(q, n), F=block(q, m), m=m)


class TestWrittenMatrices:
    """Every matrix the decisions hand on, a slice of S_e or written from
    its rows, has the entries of the one stacked from the plant's
    blocks."""

    @given(_mixed_denominator_plants())
    def test_each_matrix_equals_its_stacked_oracle(self, sys):
        forms = decide.PlantForms(sys)
        ref = support.ref_plant_forms(sys)
        assert {name: getattr(forms, name).fractions() for name in ref} == ref
        S, n = forms.system_matrix, sys.n
        got = decide._input_columns(S, n), decide._input_columns(S, n, n)
        assert tuple(M.fractions() for M in got) == support.ref_input_columns(sys)
        got = decide._hautus_star_stacks(forms)
        assert tuple(M.fractions() for M in got) == support.ref_hautus_star_stacks(sys)
        got = decide._darouach_matrices(forms)
        assert tuple(M.fractions() for M in got) == support.ref_darouach_matrices(sys)


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
    assert support.ref_qmatmul(T, Ti) == QMatrix.identity(k)
    return T, Ti


def _product(*factors):
    return functools.reduce(support.ref_qmatmul, factors)


@st.composite
def _plant_and_coordinates(draw):
    """A plant with n <= 4, m, p, q <= 2 and entries in -2..2, and the same
    plant in new state, input, measurement and target coordinates:
    (T A T^-1, T B K, R C T^-1, R D K, S E T^-1, S F K)."""
    sys = draw(support.plants(4, 2))
    (T, Ti), (K, _), (R, _), (S, _) = (draw(_invertible(k)) for k in (sys.n, sys.m, sys.p, sys.q))
    moved = SystemSextuple(_product(T, sys.A, Ti), _product(T, sys.B, K),
                           _product(R, sys.C, Ti), _product(R, sys.D, K),
                           _product(S, sys.E, Ti), _product(S, sys.F, K))
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
