from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from funcobs.exactlin import QMatrix
from funcobs.polymat import (POLY_ONE, Poly, PolyMatrix, _col_op_sub, _row_op_sub,
                             build_system_matrices, determinant,
                             output_decoupling_zero_polynomial, pencil, poly_gcd,
                             poly_lcm, rank_and_zero_polynomial, smith_form)
from funcobs.system import SystemSextuple

import support


def P_of(sys):
    return build_system_matrices(sys)[0]


def Pe_of(sys):
    return build_system_matrices(sys)[1]


def rank_of(M):
    return rank_and_zero_polynomial(M)[0]


def zero_polynomial(M):
    return rank_and_zero_polynomial(M)[1]


class TestPoly:
    def test_arithmetic(self):
        p = Poly([1, 1])          # 1 + s
        q = Poly([-3, 1])         # -3 + s
        assert p * q == Poly([-3, -2, 1])
        assert divmod(p * q, p) == (q, Poly())
        assert (p * q + Poly([5])) % p == Poly([5]) % p

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero()
        assert Poly().degree == -1

    def test_evaluate(self):
        p = Poly([1, 0, 1])
        assert p.evaluate(Fraction(2)) == Fraction(5)
        assert p.evaluate(1j) == 0

    def test_format(self):
        assert str(Poly([1, Fraction(3, 2), 1])) == "s^2 + 3/2*s + 1"
        assert str(Poly()) == "0"
        assert str(Poly([0, -1])) == "-s"


F = Fraction

# Coefficients with mixed denominators of both signs, zero a third of the time.
_coeffs = st.one_of(st.just(F(0)),
                    st.builds(F, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 4, 6, 7])))
# Coefficient lists: empty or all-zero (the zero polynomial), constants,
# and leading coefficients that are negative or not units.
_coeff_lists = st.lists(_coeffs, max_size=6)
_nonzero_lists = _coeff_lists.filter(lambda cs: any(cs))


def _same(got: Poly, want: support.RefPoly) -> bool:
    """Identical reduced Fraction coefficients."""
    cs = got.coeffs
    return (cs == want.coeffs and all(type(c) is Fraction for c in cs)
            and [(c.numerator, c.denominator) for c in cs]
            == [(c.numerator, c.denominator) for c in want.coeffs])


def _canonical(p: Poly) -> bool:
    """Integer numerators over one positive denominator in lowest terms."""
    num, den = p._num, p._den
    if not num:
        return den == 1
    return (type(num) is list and all(type(c) is int for c in num)
            and num[-1] != 0 and den > 0 and gcd(den, *num) == 1)


class TestPolyOracle:
    """Integer-numerator arithmetic against Fraction coefficient lists."""

    @given(_coeff_lists, _coeff_lists)
    @example([], [])
    @example([F(1, 2), F(-3, 4)], [F(-1, 2), F(3, 4)])
    @example([F(0), F(0)], [F(5, 6)])
    def test_ring_operations(self, a, b):
        pa, pb = Poly(a), Poly(b)
        ra, rb = support.RefPoly(a), support.RefPoly(b)
        for got, want in ((pa + pb, ra + rb), (pa - pb, ra - rb), (-pa, -ra),
                          (pa * pb, ra * rb), (pb * pa, rb * ra)):
            assert _same(got, want)
            assert _canonical(got)

    @given(_coeff_lists, _coeffs)
    @example([F(2, 3), F(-4, 9)], F(-9, 2))
    def test_scale(self, a, c):
        for got in (Poly(a).scale(c), Poly(a) * c, c * Poly(a)):
            assert _same(got, support.RefPoly(a).scale(c))
            assert _canonical(got)

    @given(_coeff_lists, _nonzero_lists)
    @example([], [F(3)])
    @example([F(1), F(2), F(3)], [F(-2, 3)])
    @example([F(1), F(0), F(0), F(5, 7)], [F(1), F(-3, 2)])
    @example([F(1, 6), F(1, 4)], [F(3), F(1), F(-6)])
    def test_division(self, a, b):
        pa, pb = Poly(a), Poly(b)
        ra, rb = support.RefPoly(a), support.RefPoly(b)
        q, r = divmod(pa, pb)
        rq, rr = divmod(ra, rb)
        assert _same(q, rq) and _same(r, rr)
        assert _canonical(q) and _canonical(r)
        assert pa // pb == q and pa % pb == r
        assert pb.divides(pa) == rr.is_zero()
        assert _same((pa * pb).exact_div(pb), ra)
        assert pb.divides(pa * pb)
        if not rr.is_zero():
            with pytest.raises(ValueError):
                pa.exact_div(pb)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1, 2]), Poly())
        assert not Poly().divides(Poly([1]))
        assert Poly().divides(Poly())

    @given(_coeff_lists)
    @example([F(3, 4), F(-1, 2)])
    def test_monic(self, a):
        got = Poly(a).monic()
        assert _same(got, support.RefPoly(a).monic())
        assert _canonical(got)

    @given(_coeff_lists, _coeff_lists)
    @example([], [F(-2, 3), F(4, 3)])
    @example([F(1), F(2), F(1)], [F(-3), F(-3)])
    def test_gcd_and_lcm(self, a, b):
        pa, pb = Poly(a), Poly(b)
        ra, rb = support.RefPoly(a), support.RefPoly(b)
        if pa.is_zero() and pb.is_zero():
            with pytest.raises(ValueError):
                poly_gcd(pa, pb)
        else:
            assert _same(poly_gcd(pa, pb), support.ref_poly_gcd(ra, rb))
        assert _same(poly_lcm(pa, pb), support.ref_poly_lcm(ra, rb))

    @given(_coeff_lists, st.one_of(st.integers(-5, 5),
                                   st.builds(F, st.integers(-7, 7), st.integers(1, 6))))
    @example([], F(1, 2))
    @example([F(-1, 3), F(0), F(5, 2)], 0)
    def test_evaluate(self, a, x):
        got = Poly(a).evaluate(x)
        want = support.RefPoly(a).evaluate(x)
        assert got == want and type(got) is type(want)

    @given(_coeff_lists)
    def test_evaluate_inexact_points(self, a):
        # complex and float points keep the Fraction-coefficient Horner order
        for x in (1j, 0.5 - 2j, -1.25):
            assert Poly(a).evaluate(x) == support.RefPoly(a).evaluate(x)

    @given(_coeff_lists, _nonzero_lists)
    @example([F(1, 2)], [F(2)])
    def test_canonical_storage(self, a, b):
        # one value reached along different routes has one storage
        pa, pb = Poly(a), Poly(b)
        routes = [pa, pa + Poly(), (pa * pb).exact_div(pb), (pa - pb) + pb,
                  pa.scale(F(-3, 7)).scale(F(-7, 3)), Poly(pa.coeffs)]
        for p in routes:
            assert p == pa and hash(p) == hash(pa)
            assert (p._num, p._den) == (pa._num, pa._den)
            assert _canonical(p)
        assert Poly([F(0), F(0)])._num == [] and Poly([F(0)])._den == 1
        assert (Poly([2, 4]) == Poly([1, 2])) is False


_polys = _coeff_lists.map(Poly)
_nonzero_coeffs = _coeffs.filter(bool)
_nonconstant = st.builds(lambda low, lead: [*low, lead],
                         st.lists(_coeffs, min_size=1, max_size=3), _nonzero_coeffs)


def _storage(rows):
    """The (numerators, denominator) pairs of a matrix of Poly, row by row."""
    return [[(p._num, p._den) for p in row] for row in rows]


@st.composite
def _factor_pair(draw):
    """A (r x k, k x c) pair of polynomial matrices, any of r, k, c zero;
    now and then a whole row of the left or column of the right is zero."""
    r, k, c = (draw(st.integers(0, 3)) for _ in range(3))
    A = [[draw(_polys) for _ in range(k)] for _ in range(r)]
    B = [[draw(_polys) for _ in range(c)] for _ in range(k)]
    if r and draw(st.booleans()):
        A[draw(st.integers(0, r - 1))] = [Poly()] * k
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in B:
            row[j] = Poly()
    return (PolyMatrix(r, k, tuple(map(tuple, A))),
            PolyMatrix(k, c, tuple(map(tuple, B))))


@st.composite
def _op_case(draw):
    """A matrix with at least two rows and columns, two distinct indices of
    each, and a multiplier q that is zero, a constant or any polynomial."""
    nrows, ncols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    mat = [[draw(_polys) for _ in range(ncols)] for _ in range(nrows)]
    i, t = draw(st.permutations(range(nrows)))[:2]
    j, u = draw(st.permutations(range(ncols)))[:2]
    q = draw(st.one_of(st.just(Poly()), _coeffs.map(lambda c: Poly([c])), _polys))
    return mat, (i, t), (j, u), q


_mixed = PolyMatrix.from_rows([[Poly([F(1, 3), F(1, 2)]), Poly([F(2, 7)])],
                               [Poly(), Poly([F(-3, 4), F(0), F(5, 6)])]])


class TestIntegerKernels:
    """Integer-numerator products and fused Smith operations against the
    per-term loops they replace, on identical storage."""

    @given(_factor_pair())
    @example((PolyMatrix.zeros(0, 2), PolyMatrix.zeros(2, 0)))
    @example((PolyMatrix(2, 0, ((), ())), PolyMatrix.zeros(0, 3)))
    @example((_mixed, _mixed))
    @example((_mixed, PolyMatrix.from_rows([[Poly([F(-2, 3)])], [Poly([F(0), F(4, 9)])]])))
    def test_product_matches_per_term_loop(self, pair):
        A, B = pair
        got, want = A @ B, support.ref_polymatmul(A, B)
        assert got.shape == want.shape == (A.rows, B.cols)
        assert _storage(got.data) == _storage(want.data)
        assert all(_canonical(p) for row in got.data for p in row)

    def test_product_shape_mismatch(self):
        with pytest.raises(ValueError):
            PolyMatrix.zeros(2, 3) @ PolyMatrix.zeros(2, 3)

    @given(_op_case())
    @example(([[Poly([F(1, 2)]), Poly([F(1), F(1, 3)])], [Poly([F(2, 3), F(1)]), Poly()]],
              (0, 1), (1, 0), Poly([F(-3, 2)])))
    @example(([[Poly([F(1)]), Poly([F(5)])], [Poly([F(1, 4)]), Poly([F(7, 6), F(1)])]],
              (1, 0), (0, 1), Poly()))
    def test_fused_operations_match_unfused(self, case):
        mat, (i, t), (j, u), q = case
        for fused, unfused, a, b in ((_row_op_sub, support.ref_row_op_sub, i, t),
                                     (_col_op_sub, support.ref_col_op_sub, j, u)):
            got, want = [list(r) for r in mat], [list(r) for r in mat]
            fused(got, a, b, q)
            unfused(want, a, b, q)
            assert _storage(got) == _storage(want)
            assert all(_canonical(p) for row in got for p in row)

    @given(_coeff_lists,
           st.one_of(st.just([]), _nonzero_coeffs.map(lambda c: [c]), _nonconstant),
           st.booleans())
    @example([F(1), F(1)], [], False)
    @example([], [], False)
    @example([F(1, 2), F(3)], [F(-2, 7)], False)
    @example([F(-1), F(0), F(1)], [F(1, 2), F(1, 2)], False)
    @example([F(1), F(0), F(1)], [F(1), F(1)], False)
    def test_divides(self, a, b, multiple):
        # a divisor that is zero, a nonzero constant or of positive degree,
        # and half the time a dividend that it divides by construction
        pa, pb = Poly(a), Poly(b)
        if multiple:
            pa = pa * pb
        ra, rb = support.RefPoly(pa.coeffs), support.RefPoly(b)
        want = ra.is_zero() if rb.is_zero() else divmod(ra, rb)[1].is_zero()
        assert pb.divides(pa) == want


class TestGcd:
    def test_gcd_with_zero(self):
        p = Poly([2, 2])
        assert poly_gcd(p, Poly()) == Poly([1, 1])

    def test_coprime_linear(self):
        assert poly_gcd(Poly([1, 1]), Poly([2, 1])) == POLY_ONE

    def test_shared_factor(self):
        sp1 = Poly([1, 1])
        a = sp1 * sp1 * Poly([-3, 1])
        b = sp1 * Poly([5, 1])
        g = poly_gcd(a, b)
        assert g == sp1
        assert (a % g).is_zero() and (b % g).is_zero()

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(Poly(), Poly())

    def test_lcm(self):
        a = Poly([1, 1]) * Poly([2, 1])
        b = Poly([1, 1]) * Poly([3, 1])
        assert poly_lcm(a, b) == (Poly([1, 1]) * Poly([2, 1]) * Poly([3, 1])).monic()


class TestSystemMatrices:
    def test_feedthrough_gap_pencil(self):
        P = P_of(support.feedthrough_gap())
        expected = PolyMatrix.from_rows([
            [Poly([1, 1]), Poly([-1]), Poly([1])],
            [Poly([1]), Poly(), Poly()],
        ])
        assert P == expected

    def test_integrator_chain_determinant(self):
        P = P_of(support.integrator_chain())
        det = determinant(P)
        assert det == Poly([1, 1])
        assert det == support.cofactor_det(P)

    def test_determinant_matches_cofactor_oracle(self, rng):
        for _ in range(40):
            n = rng.randint(0, 4)
            M = support.random_polymatrix(rng, n, n, max_degree=2)
            assert determinant(M) == support.cofactor_det(M)

    def test_pencil_entries(self):
        E0 = QMatrix.from_rows([[1, 0], [2, Fraction(1, 2)]])
        A0 = QMatrix.from_rows([[3, 0], [0, -1]])
        assert pencil(E0, A0) == PolyMatrix.from_rows([
            [Poly([-3, 1]), Poly()],
            [Poly([0, 2]), Poly([1, Fraction(1, 2)])],
        ])
        with pytest.raises(ValueError):
            pencil(E0, QMatrix.zeros(2, 3))

    def test_degenerate_no_input(self):
        sys = SystemSextuple.from_lists(A=[[0]], C=[[1]], m=0)
        P = P_of(sys)
        assert P.shape == (2, 1)
        assert P == PolyMatrix.from_rows([[Poly([0, 1])], [Poly([1])]])

    def test_inconsistent_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SystemSextuple.from_lists(A=[[0, 1]], C=[[1]])


class TestNormalRank:
    def test_golden_rank_gap(self):
        sys = support.feedthrough_gap()
        assert rank_of(P_of(sys)) == support.ref_normal_rank(P_of(sys)) == 2
        assert rank_of(Pe_of(sys)) == support.ref_normal_rank(Pe_of(sys)) == 3

    def test_golden_rank_equality(self):
        sys = support.integrator_chain()
        assert rank_of(P_of(sys)) == support.ref_normal_rank(P_of(sys)) == 3
        assert rank_of(Pe_of(sys)) == support.ref_normal_rank(Pe_of(sys)) == 3

    def test_zero_matrix(self):
        assert rank_of(PolyMatrix.zeros(2, 3)) == 0
        assert support.ref_normal_rank(PolyMatrix.zeros(2, 3)) == 0

    def test_against_pointwise_evaluation(self, rng):
        # ranks at enough integer points give the normal rank exactly
        for _ in range(40):
            M = support.random_polymatrix(rng, rng.randint(0, 4), rng.randint(0, 4))
            assert rank_of(M) == support.ref_normal_rank(M)


class TestSmith:
    def test_already_diagonal(self):
        M = PolyMatrix.from_rows([[Poly([0, 1]), Poly()], [Poly(), Poly([0, 0, 1])]])
        dec = smith_form(M)
        assert dec.invariant_polys == (Poly([0, 1]), Poly([0, 0, 1]))
        assert dec.U == PolyMatrix.identity(2)
        assert dec.V == PolyMatrix.identity(2)

    def test_golden_invariant_product(self):
        P = P_of(support.integrator_chain())
        dec = smith_form(P)
        prod = POLY_ONE
        for a in dec.invariant_polys:
            prod = prod * a
        assert prod.monic() == Poly([1, 1])

    def test_random_self_verification(self, rng):
        for _ in range(60):
            M = support.random_polymatrix(rng, 3, 4, max_degree=2)
            dec = smith_form(M)  # internal assert checks U P V == S
            assert len(dec.invariant_polys) == support.ref_normal_rank(M)
            du, dv = determinant(dec.U), determinant(dec.V)
            assert du.degree == 0 and not du.is_zero()
            assert dv.degree == 0 and not dv.is_zero()
            for a, b in zip(dec.invariant_polys, dec.invariant_polys[1:]):
                assert a.divides(b)


class TestZeroPolynomial:
    def test_integrator_chain(self):
        sys = support.integrator_chain()
        assert zero_polynomial(P_of(sys)) == Poly([1, 1])
        assert zero_polynomial(Pe_of(sys)) == POLY_ONE

    def test_feedthrough_gap(self):
        sys = support.feedthrough_gap()
        assert zero_polynomial(P_of(sys)) == POLY_ONE
        assert zero_polynomial(Pe_of(sys)) == POLY_ONE

    def test_unimodular_invariance(self, rng):
        for _ in range(15):
            M = support.random_polymatrix(rng, 3, 3, max_degree=1)
            zp = zero_polynomial(M)
            # random elementary row/column operations
            rows = [list(r) for r in M.data]
            for _ in range(4):
                i, j = rng.sample(range(3), 2)
                f = support.random_poly(rng, 1)
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            cols = list(map(list, zip(*rows)))
            for _ in range(4):
                i, j = rng.sample(range(3), 2)
                f = support.random_poly(rng, 1)
                cols[i] = [a + f * b for a, b in zip(cols[i], cols[j])]
            M2 = PolyMatrix.from_rows(list(map(list, zip(*cols))), cols=3)
            assert zero_polynomial(M2) == zp


class TestDecouplingZeros:
    def test_fully_observable(self):
        sys = SystemSextuple.from_lists(A=[[1, 0], [0, 2]], C=[[1, 0], [0, 1]], m=0)
        assert output_decoupling_zero_polynomial(sys) == POLY_ONE

    def test_unstable_chain_observable(self):
        sys = support.unstable_chain()
        assert output_decoupling_zero_polynomial(sys) == POLY_ONE
        # cross-check with the rank test at every rational eigenvalue
        for lam in (Fraction(0), Fraction(1)):
            assert not support.pbh_unobservable(sys, lam)

    def test_hidden_stable_mode(self):
        sys = SystemSextuple.from_lists(A=[[-1, 0], [0, -1]], C=[[1, 0]], m=0)
        assert output_decoupling_zero_polynomial(sys) == Poly([1, 1])
        assert support.pbh_unobservable(sys, Fraction(-1))
