from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from funcobs.exactlin import (QMatrix, Subspace, _rref, as_fraction, image_basis,
                              kernel_basis, preimage)
from funcobs.geometry import extend
from funcobs.markov import toeplitz

import support


def frac(x):
    return Fraction(x)


class TestAsFraction:
    def test_literals(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("7/3") == Fraction(7, 3)
        assert as_fraction("0.25") == Fraction(1, 4)
        assert as_fraction("0.1") == Fraction(1, 10)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(0.1)

    def test_bool_rejected(self):
        for flag in (True, False):
            with pytest.raises(TypeError):
                as_fraction(flag)


class TestQMatrix:
    def test_product_and_transpose(self):
        A = QMatrix.from_rows([[1, 2], [3, 4]])
        B = QMatrix.from_rows([[0, 1], [1, 0]])
        assert (A @ B) == QMatrix.from_rows([[2, 1], [4, 3]])
        assert A.transpose() == QMatrix.from_rows([[1, 3], [2, 4]])

    def test_empty_dimensions(self):
        Z = QMatrix.zeros(2, 0)
        assert (Z @ QMatrix.zeros(0, 3)) == QMatrix.zeros(2, 3)
        assert Z.rank() == 0
        assert QMatrix.zeros(0, 4).rank() == 0

    def test_rank_matches_oracle(self, rng):
        for _ in range(60):
            M = support.random_qmatrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert M.rank() == support.ref_rank_q(M)

    def test_rank_nullity(self, rng):
        for _ in range(60):
            M = support.random_qmatrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert M.rank() + kernel_basis(M).dim == M.cols


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(QMatrix.identity(2)).dim == 0

    def test_one_equation_two_unknowns(self):
        K = kernel_basis(QMatrix.from_rows([[1, 1]]))
        assert K.dim == 1
        assert K.basis.columns() == [(frac(1), frac(-1))]

    def test_toeplitz_kernel_against_row_reduction(self):
        sys = support.measured_input()
        M = toeplitz(sys.A, sys.B, sys.C, sys.D, 2).M
        K = kernel_basis(M)
        assert K.dim == M.cols - support.ref_rank_q(M)
        for col in K.basis.columns():
            assert (M @ QMatrix.column_vector(col)).is_zero()

    def test_kernel_vectors_annihilate(self, rng):
        for _ in range(30):
            M = support.random_qmatrix(rng, 3, 5)
            for col in kernel_basis(M).basis.columns():
                assert (M @ QMatrix.column_vector(col)).is_zero()


class TestImage:
    def test_zero_matrix(self):
        assert image_basis(QMatrix.zeros(3, 2)).dim == 0

    def test_extended_input_map_spans_last_coordinates(self):
        ext = extend(support.integrator_chain())
        img = image_basis(ext.B_e)
        assert img.dim == 1
        assert img.basis.columns() == [(frac(0), frac(0), frac(1))]

    def test_rank_one_matrix(self, rng):
        u = [frac(rng.randint(-3, 3)) or frac(1) for _ in range(4)]
        v = [frac(rng.randint(1, 3)), frac(rng.randint(1, 3))]
        M = QMatrix.from_rows([[a * b for b in v] for a in u])
        img = image_basis(M)
        assert img.dim == support.ref_rank_q(M)
        for col in M.columns():
            assert img.contains(col)


class TestSubspaceOps:
    def test_intersection_idempotent(self, rng):
        V = Subspace.span(4, [[1, 2, 0, 1], [0, 1, 1, 1]])
        assert V.intersect(V) == V

    def test_disjoint_axes(self):
        V = Subspace.span(2, [[1, 0]])
        W = Subspace.span(2, [[0, 1]])
        assert V.intersect(W).dim == 0

    def test_grassmann_identity_via_annihilators(self, rng):
        for _ in range(40):
            V = Subspace.span(5, [[rng.randint(-3, 3) for _ in range(5)]
                                  for _ in range(rng.randint(0, 3))])
            W = Subspace.span(5, [[rng.randint(-3, 3) for _ in range(5)]
                                  for _ in range(rng.randint(0, 3))])
            inter = V.intersect(W)
            # independent route: kernel of the stacked annihilators
            ann = QMatrix.vstack([V.annihilator_matrix(), W.annihilator_matrix()])
            assert inter == kernel_basis(ann)
            assert V.dim + W.dim == V.sum(W).dim + inter.dim

    def test_sum_with_zero(self):
        V = Subspace.span(3, [[1, 1, 0]])
        assert V.sum(Subspace.zero(3)) == V

    def test_sum_of_axes(self):
        V = Subspace.span(2, [[1, 0]])
        W = Subspace.span(2, [[0, 1]])
        assert V.sum(W) == Subspace.full(2)

    def test_sum_contains_both(self, rng):
        for _ in range(20):
            V = Subspace.span(4, [[rng.randint(-2, 2) for _ in range(4)]
                                  for _ in range(2)])
            W = Subspace.span(4, [[rng.randint(-2, 2) for _ in range(4)]
                                  for _ in range(2)])
            s = V.sum(W)
            assert V.is_subspace_of(s) and W.is_subspace_of(s)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Subspace.full(2).intersect(Subspace.full(3))


class TestPreimage:
    def test_full_space(self):
        A = QMatrix.from_rows([[1, 2, 3], [0, 1, 0]])
        assert preimage(A, Subspace.full(2)) == Subspace.full(3)

    def test_invertible_preserves_dimension(self, rng):
        A = QMatrix.from_rows([[2, 1], [1, 1]])
        V = Subspace.span(2, [[1, 3]])
        assert preimage(A, V).dim == V.dim

    def test_membership_for_extended_system(self):
        ext = extend(support.integrator_chain())
        K = kernel_basis(ext.C_e)
        pre = preimage(ext.A_e, K)
        for col in pre.basis.columns():
            assert K.contains((ext.A_e @ QMatrix.column_vector(col)).column(0))

    def test_preimage_of_pushed_image(self, rng):
        for _ in range(25):
            A = support.random_qmatrix(rng, 4, 4, -2, 2)
            X = support.random_qmatrix(rng, 4, 2, -2, 2)
            pre = preimage(A, image_basis(A @ X))
            assert image_basis(X).is_subspace_of(pre)


class TestInclusion:
    def test_zero_in_anything(self):
        assert Subspace.zero(3).is_subspace_of(Subspace.span(3, [[1, 0, 0]]))

    def test_reflexive(self):
        V = Subspace.span(3, [[1, 2, 3]])
        assert V.is_subspace_of(V)

    def test_axes_not_nested(self):
        V = Subspace.span(2, [[1, 0]])
        W = Subspace.span(2, [[0, 1]])
        assert not V.is_subspace_of(W)


class TestCanonicity:
    def test_same_space_bit_identical(self, rng):
        for _ in range(25):
            vecs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            V = Subspace.span(4, vecs)
            # rescale and shuffle the spanning set
            mixed = [[2 * x for x in vecs[2]],
                     [a + b for a, b in zip(vecs[0], vecs[1])],
                     vecs[1], vecs[0]]
            W = Subspace.span(4, mixed)
            if V.dim == W.dim and V.is_subspace_of(W):
                assert V.basis == W.basis
                assert hash(V) == hash(W)

    def test_pivot_structure(self):
        V = Subspace.span(3, [[2, 4, 0], [0, 0, 5]])
        cols = V.basis.columns()
        assert cols[0][0] == 1 and cols[1][2] == 1


F = Fraction

# Entries with non-unit denominators of both signs, zero half the time.
_entries = st.one_of(st.just(F(0)),
                     st.builds(F, st.integers(-6, 6), st.integers(1, 5)))


@st.composite
def _spanning_rows(draw):
    """(ambient dimension, rows); some rows are zero or combinations of others."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(_entries), draw(_entries)
            rows.insert(draw(st.integers(0, len(rows))),
                        [ca * x + cb * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * ncols)
    return ncols, rows


class TestIntegerRREF:
    """The fraction-free elimination against Gauss-Jordan over Fraction."""

    @given(_spanning_rows())
    @example((0, []))
    @example((4, []))
    @example((0, [[], []]))
    @example((3, [[F(0), F(0), F(0)], [F(0), F(0), F(0)]]))
    @example((2, [[F(-2, 3), F(4, 5)], [F(-4, 3), F(8, 5)]]))
    @example((3, [[F(0), F(-3, 2), F(1, 7)], [F(-5), F(2), F(0)], [F(-5), F(1, 2), F(1, 7)]]))
    def test_rows_and_pivots_match_oracle(self, case):
        _, rows = case
        got_rows, got_pivots = _rref(rows)
        want_rows, want_pivots = support.ref_rref(rows)
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        assert all(type(x) is Fraction for row in got_rows for x in row)
        assert QMatrix.from_rows(rows, cols=case[0]).rank() == len(want_pivots)

    @given(_spanning_rows())
    @example((3, [[F(0), F(-2), F(6)], [F(0), F(1, 3), F(-1)]]))
    def test_span_basis_bit_identical(self, case):
        ncols, rows = case
        reduced, _ = support.ref_rref(rows)
        nonzero = [r for r in reduced if any(x != 0 for x in r)]
        want = QMatrix.from_rows(nonzero, cols=ncols).transpose()
        got = Subspace.span(ncols, rows).basis
        assert got.shape == want.shape
        assert [[(x.numerator, x.denominator) for x in row] for row in got.data] == \
            [[(x.numerator, x.denominator) for x in row] for row in want.data]
