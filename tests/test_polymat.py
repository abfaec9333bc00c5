import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from funcobs import decide, geometry, polymat
from funcobs.exactlin import IntegerMatrix, QMatrix
from funcobs.polymat import (POLY_ONE, Poly, PolyMatrix, _col_op_sub, _row_op_sub, berkowitz,
                             pencil, poly_gcd, poly_lcm, smith_form)
from funcobs.system import SystemSextuple

import support


def P_of(sys):
    return support.pencils(sys)[0]


def Pe_of(sys):
    return support.stack([[M] for M in support.pencils(sys)])


def characteristic_polynomial(A):
    """det(sI - A): ``berkowitz`` on A's numerators over their
    denominators' lcm."""
    M = IntegerMatrix.of(A)
    return berkowitz(M.data, M.den)


def rank_of(M):
    return support.ref_rank_and_zero_polynomial(M)[0]


def zero_polynomial(M):
    return support.ref_rank_and_zero_polynomial(M)[1]


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


# Integer coefficients up to 10^6 in size; a factor has degree 0..3.
_big = st.integers(-10**6, 10**6)
_factors = st.lists(_big, min_size=1, max_size=4).filter(any)
# A rational content of either sign.
_contents = st.builds(F, st.integers(-50, 50).filter(bool), st.integers(1, 60))


def _product(coeff_lists) -> Poly:
    out = POLY_ONE
    for cs in coeff_lists:
        out = out * Poly(cs)
    return out


@st.composite
def _gcd_pairs(draw):
    """Coefficients of (a, b) of degree <= 12: a planted common factor,
    raised to a power up to 3, times cofactors that may share repeated
    factors of their own, each scaled by a rational content; or unrelated
    polynomials, zero and constants among them."""
    if draw(st.booleans()):
        return tuple(Poly(draw(st.lists(_big, max_size=13))).scale(draw(_contents)).coeffs
                     for _ in range(2))
    common = draw(_factors)
    power = draw(st.integers(1, 3))
    room = 12 - power * (len(common) - 1)
    out = []
    for _ in range(2):
        cofactor = draw(st.lists(_factors, max_size=3))
        while sum(len(c) - 1 for c in cofactor) > room:
            cofactor.pop()
        out.append(_product([common] * power + cofactor).scale(draw(_contents)).coeffs)
    return tuple(out)


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

    @given(st.one_of(st.tuples(_coeff_lists, _coeff_lists), _gcd_pairs()))
    @example(([], [F(-2, 3), F(4, 3)]))
    @example(([F(1), F(2), F(1)], [F(-3), F(-3)]))
    @example(([3, 4, 4, 1], [-6, 4, 5, -2, 2, 1]))
    @example(([F(-3, 2)], [0, 0, 10**6]))
    @settings(max_examples=200)
    def test_gcd_and_lcm(self, pair):
        a, b = pair
        pa, pb = Poly(a), Poly(b)
        ra, rb = support.RefPoly(a), support.RefPoly(b)
        if pa.is_zero() and pb.is_zero():
            with pytest.raises(ValueError):
                poly_gcd(pa, pb)
        else:
            got = poly_gcd(pa, pb)
            assert _same(got, support.ref_poly_gcd(ra, rb))
            assert _canonical(got)
        assert _same(poly_lcm(pa, pb), support.ref_poly_lcm(ra, rb))

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

    def test_heuristic_retries_at_a_larger_point(self, monkeypatch):
        # the candidate at the first point does not divide a; the second
        # point gives gcd(a, b) = s + 3
        tried = []
        candidate = polymat._candidate

        def spy(gamma, xi):
            tried.append(candidate(gamma, xi))
            return tried[-1]

        monkeypatch.setattr(polymat, "_candidate", spy)
        assert poly_gcd(Poly([3, 4, 4, 1]), Poly([-6, 4, 5, -2, 2, 1])) == Poly([3, 1])
        assert len(tried) == 2 and tried[0] != tried[1] == [3, 1]

    def test_constant_candidate_needs_no_division(self, monkeypatch):
        # a coprime pair: the candidate at the first point is the constant
        # 1, which divides both, so no pseudo-division is tried
        divided = []
        pseudo_divmod = Poly._pseudo_divmod

        def spy(self, other):
            divided.append(other)
            return pseudo_divmod(self, other)

        monkeypatch.setattr(Poly, "_pseudo_divmod", spy)
        assert poly_gcd(Poly([1, 1]), Poly([2, 1])) == POLY_ONE
        assert poly_gcd(Poly([-1, 0, 3]), Poly([F(1, 2), 5, 0, 1])) == POLY_ONE
        assert divided == []

    def test_euclidean_fallback_gives_the_same_gcds(self, monkeypatch):
        """When the heuristic gives up, the Euclidean remainder sequence
        over Q returns the same monic gcds."""
        rng = random.Random(27)
        pairs = [(Poly([3, 4, 4, 1]), Poly([-6, 4, 5, -2, 2, 1])),
                 (Poly([F(1, 2), 1]), Poly([F(-3, 4)])), (Poly(), Poly([2, 4]))]
        for _ in range(60):
            common = support.random_poly(rng, 3, -9, 9)
            pairs.append(tuple(common * common * support.random_poly(rng, 4, -9, 9)
                               * F(rng.randint(-7, 7) or 1, rng.randint(1, 9))
                               for _ in range(2)))
        pairs = [(a, b) for a, b in pairs if not (a.is_zero() and b.is_zero())]
        heuristic = [poly_gcd(a, b) for a, b in pairs]
        gave_up = []
        monkeypatch.setattr(polymat, "_heuristic_gcd", lambda a, b: gave_up.append(1))
        assert [poly_gcd(a, b) for a, b in pairs] == heuristic
        assert gave_up and any(g.degree > 0 for g in heuristic)

    def test_lcm(self):
        a = Poly([1, 1]) * Poly([2, 1])
        b = Poly([1, 1]) * Poly([3, 1])
        assert poly_lcm(a, b) == (Poly([1, 1]) * Poly([2, 1]) * Poly([3, 1])).monic()


# entries that are zero, negative, or rational over mixed non-unit denominators
_entries = st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9])))


@st.composite
def _sextuples(draw):
    n, m, p, q = (draw(st.integers(0, 3)) for _ in range(4))

    def block(rows, cols):
        data = tuple(tuple(draw(_entries) for _ in range(cols)) for _ in range(rows))
        return QMatrix(rows, cols, data)

    return SystemSextuple(block(n, n), block(n, m), block(p, n), block(p, m),
                          block(q, n), block(q, m))


def _assert_darouach_matches_smith_oracle(sys: SystemSextuple) -> None:
    """Darouach's pencil, read off V* of the plant it becomes with the
    input v = (sI - A)x - Bu_1, against the Smith form of the pencil
    assembled from constant blocks."""
    rank_eq = decide.darouach_fixed_order(sys).certificate.rank_equality
    want = support.ref_rank_and_zero_polynomial(support.ref_darouach_pencil(sys))
    assert (rank_eq.normrank_lhs, rank_eq.zero_poly_lhs) == want


def _assert_same_storage(got: PolyMatrix, want: PolyMatrix) -> None:
    assert got.shape == want.shape
    assert _storage(got.data) == _storage(want.data)
    assert all(_canonical(p) for row in got.data for p in row)


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
        det = support.ref_determinant(P)
        assert det == Poly([1, 1])
        assert det == support.cofactor_det(P)

    def test_determinant_matches_cofactor_oracle(self, rng):
        for _ in range(40):
            n = rng.randint(0, 4)
            M = support.random_polymatrix(rng, n, n, max_degree=2)
            assert support.ref_determinant(M) == support.cofactor_det(M)

    @given(_sextuples())
    @example(SystemSextuple.from_lists(A=[], m=0))
    @example(SystemSextuple.from_lists(A=[], D=[["1/2", 2], [0, "-1/3"]], F=[[1, "1/4"]]))
    @example(SystemSextuple.from_lists(A=[[0, "1/2"], [-1, 0]], C=[["1/3", 0]], E=[[0, 1]], m=0))
    @example(SystemSextuple.from_lists(A=[[1, 0], [1, -2]], B=[["1/5"], [0]], E=[[0, "1/6"]],
                                       F=[[1]]))
    @example(SystemSextuple.from_lists(A=[["1/2", 1], [0, 2]], B=[[0], ["1/3"]], C=[[1, 0]],
                                       D=[["1/4"]]))
    @example(SystemSextuple.from_lists(**support.rational_blocks_lists()))
    def test_build_matches_block_oracle(self, sys):
        # n = 0, m = 0, p = 0, q = 0 and one denominator per block among
        # the examples: S and [E F] share S_e's denominator, and each entry
        # is reduced from it
        forms = decide.PlantForms(sys)
        pencils = pencil(forms.system_matrix, sys.n), pencil(forms.EF, 0)
        for got, want in zip(pencils, support.ref_build_system_matrices(sys)):
            _assert_same_storage(got, want)

    @given(_sextuples())
    @example(SystemSextuple.from_lists(A=[], m=0))
    @example(SystemSextuple.from_lists(A=[], D=[[1, 2], [0, 0]], F=[[1, -1]]))
    @example(SystemSextuple.from_lists(A=[[0, 1], [-1, 0]], C=[[1, 0]], E=[[0, 1]], m=0))
    @example(SystemSextuple.from_lists(A=[[1, 0], [1, -2]], B=[[1], [0]], E=[[0, 1]], F=[[1]]))
    @example(SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[0], [1]], C=[[1, 0]], D=[[0]]))
    @example(SystemSextuple.from_lists(A=[["1/2", 1], [0, "-2/3"]], B=[["1/3"], [1]],
                                       C=[[1, "1/2"]], D=[["1/4"]], E=[["2/3", 0]], F=[[0]]))
    def test_darouach_rank_and_zeros_match_smith_oracle(self, sys):
        # n = 0, m = 0, p = 0, q = 0 and rational entries among the examples
        _assert_darouach_matches_smith_oracle(sys)

    def test_darouach_reanchor_n10_matches_smith_oracle(self):
        _assert_darouach_matches_smith_oracle(support.reanchor_plant(10))

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
            du, dv = support.ref_determinant(dec.U), support.ref_determinant(dec.V)
            assert du.degree == 0 and not du.is_zero()
            assert dv.degree == 0 and not dv.is_zero()
            for a, b in zip(dec.invariant_polys, dec.invariant_polys[1:]):
                assert a.divides(b)


_STACKED_CASES = {
    # the input direction u_1 - u_2 is in Ker B ^ Ker D: P loses a column
    "rank_deficient_p": SystemSextuple.from_lists(A=[[0]], B=[[1, 1]], C=[[1]], D=[[1, 1]],
                                                  E=[[1]], F=[[0, 1]]),
    # [E F] raises the rank: 2 for P, 3 for P_e
    "rank_jump_from_x": support.feedthrough_gap(),
    # P = [s -1; 1 0] is unimodular: every invariant is a unit
    "k_equals_r": SystemSextuple.from_lists(A=[[0]], B=[[1]], C=[[1]], D=[[0]],
                                            E=[[0]], F=[[1]]),
    # P = [s; 1]: full column rank, unit invariants
    "c_equals_k": SystemSextuple.from_lists(A=[[0]], C=[[1]], E=[[1]], m=0),
    "p_without_rows": SystemSextuple.from_lists(A=[], F=[[1, 0]]),
    "p_without_columns": SystemSextuple.from_lists(A=[], C=[[]], E=[[]], m=0),
    "x_without_rows": SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[0], [1]], C=[[1, 0]],
                                                D=[[0]]),
    # sI - diag(0, 0, -1) has the invariants s | s(s + 1)
    "non_unit_invariants": SystemSextuple.from_lists(A=[[0, 0, 0], [0, 0, 0], [0, 0, -1]],
                                                     E=[[1, 1, 1]], m=0),
    # n = 0 and D = 0: P is the zero 1 x 2 matrix
    "zero_p": SystemSextuple.from_lists(A=[], D=[[0, 0]], F=[[1, -1]]),
}


class TestStackedInvariants:
    """The normal ranks and zero polynomials of P and of the stacked
    P_e = [P; E F], read off V*, against the Smith forms of both assembled
    from constant blocks; those Smith forms keep canonical storage."""

    @staticmethod
    def _check(sys):
        cert = decide.strongly_functional_detectable(sys).certificate
        got = ((cert.normrank_p, cert.zero_poly_p), (cert.normrank_pe, cert.zero_poly_pe))
        assert got == support.ref_zero_structure(sys)
        P, EF = support.ref_build_system_matrices(sys)
        Pe = support.stack([[P], [EF]])
        assert (cert.normrank_p, cert.normrank_pe) == (support.ref_normal_rank(P),
                                                       support.ref_normal_rank(Pe))
        # U, S and V keep the working rows' entries: canonical storage
        for form in (smith_form(P), smith_form(Pe)):
            for M in (form.U, form.S, form.V):
                assert all(_canonical(p) for row in M.data for p in row)

    @given(support.plants(4, 3))
    def test_matches_direct_smith_form(self, sys):
        self._check(sys)

    @pytest.mark.parametrize("name", sorted(_STACKED_CASES))
    def test_edge_cases(self, name):
        self._check(_STACKED_CASES[name])

    def test_system_pencils(self, rng):
        # seeded plants, plants without input (m = 0) and without state
        # (n = 0), each with and without its inputs
        plants = [support.random_system(rng) for _ in range(30)]
        plants += [build() for build in support.GOLDEN.values()]
        plants += [SystemSextuple.from_lists(A=[[0]], C=[[1]], E=[[1]], m=0),
                   SystemSextuple.from_lists(A=[], D=[[1]], F=[[1]]),
                   SystemSextuple.from_lists(A=[], F=[[1]])]
        for sys in plants:
            for plant in (sys, support.known_input_reduction(sys)):
                self._check(plant)

    def test_shape_mismatch(self):
        # a V* read against a plant with another state dimension
        chain = decide.PlantForms(support.integrator_chain())
        gap = decide.PlantForms(support.feedthrough_gap())
        v = geometry.vstar(gap.system_matrix, gap.sys.n)
        with pytest.raises(ValueError):
            geometry.rank_and_zeros(chain.system_matrix, chain.sys.n, v)


_square = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3])),
             min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def _char_case(draw):
    """A k x k matrix, k <= 8, with denominators up to 7: dense, zero,
    nilpotent (strictly upper triangular), triangular or a companion
    matrix."""
    k = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["dense", "zero", "nilpotent", "triangular", "companion"]))
    entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if (kind == "dense" or (kind == "nilpotent" and j > i)
                    or (kind == "triangular" and j >= i) or (kind == "companion" and j == k - 1)):
                rows[i][j] = draw(entry)
            elif kind == "companion" and i == j + 1:
                rows[i][j] = Fraction(1)
    return rows


class TestCharacteristicPolynomial:
    """det(sI - A) by Berkowitz's recurrence on integers, against cofactor
    expansion of the pencil sI - A and against a Hessenberg reduction over
    Fraction."""

    @staticmethod
    def _ref(A):
        return support.cofactor_det(support.ref_pencil(QMatrix.identity(A.rows), A))

    @given(_square)
    @example([])
    # a zero on the subdiagonal with a nonzero below it: rows swap
    @example([[1, 2, 3], [0, 4, 5], [6, 7, 8]])
    # a column with nothing to clear below the subdiagonal
    @example([[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 0, 0, 1]])
    def test_matches_cofactor_expansion(self, rows):
        A = QMatrix.from_rows(rows, cols=len(rows))
        got = characteristic_polynomial(A)
        assert got == self._ref(A) and _canonical(got)

    def test_companion_matrix(self):
        # the companion matrix of s^3 + 2s^2 - s + 5/2
        A = QMatrix.from_rows([[0, 0, Fraction(-5, 2)], [1, 0, 1], [0, 1, -2]])
        assert characteristic_polynomial(A) == Poly([Fraction(5, 2), -1, 2, 1])

    @given(_char_case())
    @example([])
    @example([[Fraction(-3, 7)]])
    def test_matches_hessenberg_reduction(self, rows):
        A = QMatrix.from_rows(rows, cols=len(rows))
        got = characteristic_polynomial(A)
        assert got == support.ref_characteristic_polynomial(A) and _canonical(got)

    def test_reanchor_restrictions(self, monkeypatch):
        # every restriction of A + BF to V* (and of A_V^T to the
        # unobservable part) that the n = 30 ladder plant's P and P_e
        # pass in, as an integer matrix over its scale
        seen = []

        def spy(M, d):
            seen.append((M, d))
            return berkowitz(M, d)

        monkeypatch.setattr(geometry, "berkowitz", spy)
        decide.PlantForms(support.reanchor_plant(30)).detectability
        assert seen and max(len(M) for M, _ in seen) >= 20
        for M, d in seen:
            A = QMatrix.from_rows([[Fraction(x, d) for x in row] for row in M], cols=len(M))
            assert berkowitz(M, d) == support.ref_characteristic_polynomial(A)


class TestBerkowitz:
    """det(sI - M/d) for an integer M over a scale d."""

    @staticmethod
    def _ref(M, d):
        return support.ref_characteristic_polynomial(
            QMatrix.from_rows([[Fraction(x, d) for x in row] for row in M], cols=len(M)))

    @pytest.mark.parametrize("d", [1, 7])
    def test_empty_matrix(self, d):
        assert berkowitz([], d) == POLY_ONE

    def test_unit_scale(self):
        # the companion matrix of s^3 + 2s^2 - s + 5
        M = [[0, 0, -5], [1, 0, 1], [0, 1, -2]]
        assert berkowitz(M, 1) == Poly([5, -1, 2, 1])

    def test_negative_entries(self):
        M = [[-3, -1, 4], [-2, -7, -1], [5, -6, -2]]
        for d in (1, 2, 9):
            got = berkowitz(M, d)
            assert got == self._ref(M, d) and _canonical(got)

    def test_scale_sharing_the_content(self, monkeypatch):
        # d = 12 and M's content 6 share 6: the recurrence sees M/6 over 2,
        # the lcm of M/d's denominators, as for the same matrix in lowest
        # terms
        M = [[6, -12, 18], [0, 30, -6], [24, 6, 0]]
        want = self._ref(M, 12)
        assert berkowitz(M, 12) == want == berkowitz([[x // 6 for x in row] for row in M], 2)
        scaled = []
        reduced = polymat._reduced

        def spy(num, den):
            scaled.append(den)
            return reduced(num, den)

        monkeypatch.setattr(polymat, "_reduced", spy)
        berkowitz(M, 12)
        assert scaled == [2 ** 3]

    @given(_square, st.integers(1, 12))
    def test_matches_hessenberg_reduction(self, rows, d):
        M = [[x.numerator for x in row] for row in rows]
        got = berkowitz(M, d)
        assert got == self._ref(M, d) and _canonical(got)


class TestDigits:
    """Symmetric base-xi digits, which the heuristic gcd and the square
    witness read their coefficients from."""

    def test_zero_has_no_digits(self):
        assert polymat._digits(0, 7) == []

    @pytest.mark.parametrize("gamma,xi,digits", [
        (-7, 10, [3, -1]),        # -7 = 3 - 10
        (-1, 7, [-1]),
        (-50, 7, [-1, 0, -1]),    # -50 = -1 - 49
        (3, 7, [3]), (-3, 7, [-3]),    # +-floor(7/2) stay one digit
        (4, 7, [-3, 1]), (-4, 7, [3, -1]),
        (5, 10, [5]), (-5, 10, [5, -1])])    # an even base keeps +xi/2 only
    def test_named_values(self, gamma, xi, digits):
        assert polymat._digits(gamma, xi) == digits
        assert sum(d * xi ** k for k, d in enumerate(digits)) == gamma

    @given(st.integers(1, 60), st.data())
    def test_coefficients_below_half_the_base_come_back(self, h, data):
        # the coefficients of an integer polynomial in [-h, h] are its
        # symmetric digits at any xi > 2h, trailing zeros dropped
        xi = 2 * h + data.draw(st.integers(1, 3))
        coeffs = data.draw(st.lists(st.integers(-h, h), max_size=8))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        assert polymat._digits(polymat._value(coeffs, xi), xi) == coeffs


class TestInterpolate:
    """The oracle's polynomials through their values at distinct integers
    (``support.ref_interpolate``), against the polynomials that gave the
    values."""

    @given(st.lists(st.integers(-6, 6), unique=True, min_size=1, max_size=6),
           st.lists(st.lists(st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 5])),
                             max_size=6), max_size=4),
           st.data())
    def test_recovers_the_polynomials(self, xs, coeff_lists, data):
        polys = [Poly(cs[:len(xs)]) for cs in coeff_lists]
        # dens[k] times polynomial k has integer coefficients, so integer
        # values at integer points
        dens = [data.draw(st.integers(1, 4)) * math.lcm(*(c.denominator for c in p.coeffs))
                for p in polys]
        values = [[int(support.poly_at(p, x) * d) for x in xs] for p, d in zip(polys, dens)]
        got = support.ref_interpolate(xs, values, dens)
        assert got == polys and all(_canonical(p) for p in got)

    def test_one_point_is_a_constant(self):
        assert support.ref_interpolate([3], [[6], [0]], [4, 1]) == [Poly([Fraction(3, 2)]), Poly()]

    def test_skipped_points(self):
        # s^3 - 3s^2 + 2s through 3, 5, 6, 7: nodes need not be consecutive
        p = Poly([0, 2, -3, 1])
        xs = [3, 5, 6, 7]
        assert support.ref_interpolate(xs, [[int(support.poly_at(p, x)) for x in xs]], [1]) == [p]


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
    """The zeros of the P of the input-free plant, [sI - A; C], are the
    unobservable modes."""

    @staticmethod
    def decoupling_polynomial(sys):
        return zero_polynomial(P_of(support.known_input_reduction(sys)))

    def test_fully_observable(self):
        sys = SystemSextuple.from_lists(A=[[1, 0], [0, 2]], C=[[1, 0], [0, 1]], m=0)
        assert self.decoupling_polynomial(sys) == POLY_ONE

    def test_unstable_chain_observable(self):
        sys = support.unstable_chain()
        assert self.decoupling_polynomial(sys) == POLY_ONE
        # cross-check with the rank test at every rational eigenvalue
        for lam in (Fraction(0), Fraction(1)):
            assert not support.pbh_unobservable(sys, lam)

    def test_hidden_stable_mode(self):
        sys = SystemSextuple.from_lists(A=[[-1, 0], [0, -1]], C=[[1, 0]], m=0)
        assert self.decoupling_polynomial(sys) == Poly([1, 1])
        assert support.pbh_unobservable(sys, Fraction(-1))
