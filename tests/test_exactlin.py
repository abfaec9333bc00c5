import inspect
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from funcobs.exactlin import (DenseMatrix, IntegerMatrix, QMatrix, Subspace, _echelon_add,
                              _reduce, as_fraction, first_escape, kernel_basis)
from funcobs.markov import toeplitz
from funcobs.polymat import Poly, PolyMatrix
from funcobs.witness import RationalFunction, RationalFunctionMatrix

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
        A = IntegerMatrix.of(QMatrix.from_rows([[1, 2], [3, 4]]))
        B = IntegerMatrix.of(QMatrix.from_rows([[0, 1], [1, 0]]))
        assert (A @ B).fractions() == QMatrix.from_rows([[2, 1], [4, 3]])
        assert A.transpose().fractions() == QMatrix.from_rows([[1, 3], [2, 4]])

    def test_empty_dimensions(self):
        Z = QMatrix.zeros(2, 0)
        product = IntegerMatrix.of(Z) @ IntegerMatrix.of(QMatrix.zeros(0, 3))
        assert product.fractions() == QMatrix.zeros(2, 3)
        assert Z.rank() == 0
        assert QMatrix.zeros(0, 4).rank() == 0

    def test_rank_matches_oracle(self, rng):
        for _ in range(60):
            M = support.random_qmatrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert M.rank() == support.ref_rank_q(M)

    def test_rank_nullity(self, rng):
        for _ in range(60):
            M = support.random_qmatrix(rng, rng.randint(0, 5), rng.randint(0, 5))
            assert M.rank() + kernel_basis(IntegerMatrix.of(M)).dim == M.cols


# each matrix class with an entry maker and its message for ragged data
_CONTAINERS = [
    (QMatrix, Fraction, "inconsistent matrix data"),
    (PolyMatrix, lambda x: Poly([x, 1]), "inconsistent polynomial matrix data"),
    (RationalFunctionMatrix, lambda x: RationalFunction(Poly([1]), Poly([x, 1])),
     "inconsistent rational matrix data"),
]
_CONTAINER_IDS = [cls.__name__ for cls, _, _ in _CONTAINERS]


@pytest.mark.parametrize("cls, entry, message", _CONTAINERS, ids=_CONTAINER_IDS)
class TestDenseMatrix:
    """The container shared by the three matrix classes."""

    @staticmethod
    def _rows(entry, rows, cols, start=0):
        return [[entry(start + cols * i + j) for j in range(cols)] for i in range(rows)]

    def test_wrong_column_count_rejected(self, cls, entry, message):
        with pytest.raises(ValueError, match="^expected 3 columns, found 2$"):
            cls.from_rows(self._rows(entry, 2, 2), cols=3)
        assert cls.from_rows([], cols=3).shape == (0, 3)

    def test_ragged_data_rejected(self, cls, entry, message):
        ragged = [[entry(1), entry(2)], [entry(3)]]
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls.from_rows(ragged)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(2, 2, tuple(map(tuple, ragged)))

    def test_operations_keep_the_subclass(self, cls, entry, message):
        A = cls.from_rows(self._rows(entry, 2, 3))
        B = cls.from_rows(self._rows(entry, 1, 3, start=6))
        V = support.stack([[A], [B]])
        assert type(V) is cls and V.shape == (3, 3) and V[2, 0] == B[0, 0]
        H = support.stack([[A, A]])
        assert type(H) is cls and H.shape == (2, 6) and H[1, 4] == A[1, 1]
        grid = support.stack([[A, cls.zeros(2, 1)], [B, cls.identity(1)]])
        assert type(grid) is cls and grid.shape == (3, 4)
        assert grid[2, 3] == cls.identity(1)[0, 0] and grid[0, 3] == cls.zeros(1, 1)[0, 0]

    def test_equal_data_of_another_class_is_unequal(self, cls, entry, message):
        data = tuple(map(tuple, self._rows(entry, 2, 2)))
        for other, _, _ in _CONTAINERS:
            assert (cls(2, 2, data) == other(2, 2, data)) == (other is cls)
            assert (cls.zeros(0, 2) == other.zeros(0, 2)) == (other is cls)
        assert cls.zeros(0, 2) != cls.zeros(0, 3)

    def test_equal_matrices_hash_equal(self, cls, entry, message):
        A = cls.from_rows(self._rows(entry, 2, 2))
        B = cls.from_rows(self._rows(entry, 2, 2))
        assert A is not B and A == B and hash(A) == hash(B)
        assert len({A, B, cls.from_rows(self._rows(entry, 2, 2, start=4))}) == 2

    def test_container_methods_defined_once(self, cls, entry, message):
        for name in ("__init__", "from_rows", "zeros", "identity", "__getitem__", "shape",
                     "__eq__", "__hash__", "__repr__"):
            assert name in DenseMatrix.__dict__ and name not in cls.__dict__, name
        assert cls.__slots__ == ()
        if cls is QMatrix:
            # the plant's storage computes nothing but the two traced methods
            assert {name for name, v in vars(cls).items() if inspect.isfunction(v)} == \
                {"rank", "rref"}


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(IntegerMatrix.of(QMatrix.identity(2))).dim == 0

    def test_one_equation_two_unknowns(self):
        K = kernel_basis(IntegerMatrix.of(QMatrix.from_rows([[1, 1]])))
        assert K.dim == 1
        assert K.rows == ((frac(1), frac(-1)),)

    def test_toeplitz_kernel_against_row_reduction(self):
        sys = support.measured_input()
        M = toeplitz(*map(IntegerMatrix.of, (sys.A, sys.B, sys.C, sys.D)), 2)
        K = kernel_basis(M)
        assert K.dim == M.cols - support.ref_rank_q(M.fractions())
        for col in K.rows:
            assert support.is_zero(support.ref_qmatmul(M.fractions(), support.column_vector(col)))

    def test_kernel_vectors_annihilate(self, rng):
        for _ in range(30):
            M = support.random_qmatrix(rng, 3, 5)
            for col in kernel_basis(IntegerMatrix.of(M)).rows:
                assert support.is_zero(support.ref_qmatmul(M, support.column_vector(col)))


_RATIONAL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _subspace_pairs(draw):
    """Two subspaces of Q^d, d in 0..5, each spanned by 0..d + 1 rational
    vectors, so either may be zero, full or neither."""
    d = draw(st.integers(0, 5))

    def span():
        k = draw(st.integers(0, d + 1))
        return Subspace.span(d, [[draw(_RATIONAL) for _ in range(d)] for _ in range(k)])

    return span(), span()


class TestSubspaceOps:
    @given(_subspace_pairs())
    @example((Subspace(0, ()), Subspace(0, ())))
    @example((support.zero_subspace(3), support.full_subspace(3)))
    @example((support.full_subspace(3), support.zero_subspace(3)))
    @example((Subspace.span(3, [[Fraction(1, 2), Fraction(-2, 3), 1]]),
              Subspace.span(3, [[3, -4, 6], [0, 1, 0]])))
    def test_intersection_matches_zassenhaus_oracle(self, pair):
        V, W = pair
        assert V.intersect(W) == support.ref_intersect(V, W)

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
            ann = support.ref_kernel(5, list(V.rows)) + support.ref_kernel(5, list(W.rows))
            assert inter == Subspace.span(5, support.ref_kernel(5, ann))
            assert V.dim + W.dim == V.sum(W).dim + inter.dim

    def test_sum_with_zero(self):
        V = Subspace.span(3, [[1, 1, 0]])
        assert V.sum(support.zero_subspace(3)) == V

    def test_sum_of_axes(self):
        V = Subspace.span(2, [[1, 0]])
        W = Subspace.span(2, [[0, 1]])
        assert V.sum(W) == support.full_subspace(2)

    def test_sum_contains_both(self, rng):
        for _ in range(20):
            V = Subspace.span(4, [[rng.randint(-2, 2) for _ in range(4)]
                                  for _ in range(2)])
            W = Subspace.span(4, [[rng.randint(-2, 2) for _ in range(4)]
                                  for _ in range(2)])
            s = V.sum(W)
            assert support.is_subspace_of(V, s) and support.is_subspace_of(W, s)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            support.full_subspace(2).intersect(support.full_subspace(3))


class TestInclusion:
    def test_zero_in_anything(self):
        assert support.is_subspace_of(support.zero_subspace(3), Subspace.span(3, [[1, 0, 0]]))

    def test_reflexive(self):
        V = Subspace.span(3, [[1, 2, 3]])
        assert support.is_subspace_of(V, V)

    def test_axes_not_nested(self):
        V = Subspace.span(2, [[1, 0]])
        W = Subspace.span(2, [[0, 1]])
        assert not support.is_subspace_of(V, W)


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
            if V.dim == W.dim and support.is_subspace_of(V, W):
                assert V.rows == W.rows
                assert hash(V) == hash(W)

    def test_pivot_structure(self):
        V = Subspace.span(3, [[2, 4, 0], [0, 0, 5]])
        rows = V.rows
        assert rows[0][0] == 1 and rows[1][2] == 1


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
        ncols, rows = case
        got, got_pivots = QMatrix.from_rows(rows, cols=ncols).rref()
        got_rows = [list(r) for r in got.data]
        want_rows, want_pivots = support.ref_rref(rows)
        assert list(got_pivots) == want_pivots
        assert got_rows == want_rows
        assert all(type(x) is Fraction for row in got_rows for x in row)
        assert QMatrix.from_rows(rows, cols=ncols).rank() == len(want_pivots)

    @given(_spanning_rows())
    @example((3, [[F(0), F(-2), F(6)], [F(0), F(1, 3), F(-1)]]))
    def test_span_basis_bit_identical(self, case):
        ncols, rows = case
        reduced, _ = support.ref_rref(rows)
        nonzero = [r for r in reduced if any(x != 0 for x in r)]
        got = Subspace.span(ncols, rows).rows
        assert [[(x.numerator, x.denominator) for x in row] for row in got] == \
            [[(x.numerator, x.denominator) for x in row] for row in nonzero]

    @given(_spanning_rows())
    @example((4, []))
    @example((3, [[F(0), F(0), F(0)]]))
    @example((4, [[F(1), F(2), F(0), F(3)], [F(0), F(0), F(5), F(-1, 2)]]))
    def test_kernel_rows_are_canonical(self, case):
        """One elimination of M with its columns reversed gives the
        canonical rows of Ker M, bit for bit."""
        ncols, rows = case
        reduced, pivots = support.ref_rref(support.ref_kernel(ncols, rows))
        got = kernel_basis(IntegerMatrix.of(QMatrix.from_rows(rows, cols=ncols))).rows
        assert got == tuple(map(tuple, reduced[:len(pivots)]))
        assert all(type(x) is Fraction for row in got for x in row)


@st.composite
def _integer_rows(draw):
    """(width, integer rows) in random order: some rows repeat, some are
    zero or combinations of others, and a triangular basis makes some
    draws full rank."""
    width = draw(st.integers(0, 5))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6))
    if draw(st.booleans()):
        rows += [[0] * i + [draw(entry.filter(bool))] + draw(st.lists(entry, min_size=width - i - 1,
                                                                       max_size=width - i - 1))
                 for i in range(width)]
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(entry), draw(entry)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.append([0] * width)
    return width, draw(st.permutations(rows))


class TestForwardEchelon:
    """``_echelon_add`` grows a row echelon with the pivots of the reduced
    row echelon form, and ``_reduce`` brings its rows to that form, against
    Gauss-Jordan over Fraction."""

    @given(_integer_rows())
    @example((0, []))
    @example((0, [[], []]))
    @example((4, []))
    @example((3, [[0, 0, 0], [0, 0, 0]]))
    @example((3, [[2, 4, 6], [1, 2, 3], [0, 0, 0], [-1, -2, -3]]))
    @example((3, [[0, 0, 2], [0, 3, 1], [0, 3, 1], [5, 1, 1], [1, 1, 1]]))
    @example((4, [[0, 2, 0, 4], [3, 1, 0, 0], [0, 0, 5, 1], [3, 5, 0, 8]]))
    def test_pivots_then_reduced_rows_match_oracle(self, case):
        width, rows = case
        want, pivots = support.ref_rref([[F(x) for x in r] for r in rows])
        echelon: dict[int, list[int]] = {}
        for r in rows:
            _echelon_add(echelon, r)
        assert sorted(echelon) == pivots
        for p, r in echelon.items():
            assert len(r) == width and r[p] and not any(r[:p]) and gcd(*r) == 1
        _reduce(echelon)
        assert sorted(echelon) == pivots
        for p, rref_row in zip(pivots, want):
            got = echelon[p]
            assert gcd(*got) == 1
            assert [F(x, got[p]) for x in got] == rref_row
        if len(pivots) == width:
            assert [echelon[p] for p in pivots] == \
                [[int(i == j) for j in range(width)] for i in range(width)]


class TestFirstEscape:
    """The escape search against a matrix product per basis column."""

    @given(_spanning_rows(), _spanning_rows())
    @example((2, [[F(1), F(0)]]), (2, [[F(0), F(1)]]))
    @example((3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]), (3, [[F(0), F(1), F(0)]]))
    @example((3, []), (3, [[F(1), F(2), F(3)]]))
    @example((2, [[F(1), F(1)]]), (2, []))
    # rows over different denominators: M annihilates (1, -3/2) only in
    # integers scaled by each row's own lcm
    @example((2, [[F(2), F(-3)], [F(0), F(0)]]), (2, [[F(1, 2), F(1, 3)], [F(3, 4), F(1, 2)]]))
    @example((2, [[F(2), F(-3)]]), (2, [[F(1, 2), F(1, 5)]]))
    def test_matches_reference_and_inclusion(self, space, matrix):
        d, vectors = space
        _, rows = matrix
        # the matrix rows are cut or padded to the ambient dimension of V
        M = QMatrix.from_rows([(list(r) + [F(0)] * d)[:d] for r in rows], cols=d)
        V = Subspace.span(d, vectors)
        got = first_escape(V, IntegerMatrix.of(M))
        assert got == support.ref_first_escape(V, M)
        assert (got is None) == support.is_subspace_of(V, kernel_basis(IntegerMatrix.of(M)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            first_escape(support.full_subspace(2), IntegerMatrix.zeros(1, 3))


_nonzero = st.builds(F, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 5))


@st.composite
def _subspace_case(draw, d=None):
    """(d, spanning rows) with d in 0..5; the rows span the zero space, the
    full space (a triangular basis plus extra rows) or anything between."""
    d = draw(st.integers(0, 5)) if d is None else d
    kind = draw(st.sampled_from(["zero", "full", "any"]))
    if kind == "zero":
        return d, [[F(0)] * d for _ in range(draw(st.integers(0, 2)))]
    rows = draw(st.lists(st.lists(_entries, min_size=d, max_size=d), max_size=5))
    if kind == "full":
        for i in range(d):
            tail = draw(st.lists(_entries, min_size=d - i - 1, max_size=d - i - 1))
            rows.insert(draw(st.integers(0, len(rows))), [F(0)] * i + [draw(_nonzero)] + tail)
    return d, rows


@st.composite
def _subspace_pair(draw):
    d, rows = draw(_subspace_case())
    return d, rows, draw(_subspace_case(d))[1]


def _ref_rows(rows):
    """The nonzero rows of the Gauss-Jordan oracle's RREF, as tuples."""
    return tuple(tuple(r) for r in support.ref_rref(rows)[0] if any(x != 0 for x in r))


class TestCanonicalRows:
    """A subspace is held as the nonzero rows of its RREF."""

    @given(_subspace_case())
    @example((0, []))
    @example((4, []))
    @example((3, [[F(0)] * 3]))
    @example((3, [[F(2), F(1), F(0)], [F(0), F(-1, 3), F(0)], [F(0), F(0), F(5)]]))
    def test_rows_are_nonzero_rref_rows(self, case):
        d, rows = case
        V = Subspace.span(d, rows)
        assert V.rows == _ref_rows(rows)
        assert all(type(x) is Fraction for row in V.rows for x in row)

    @given(_subspace_pair())
    @example((0, [], []))
    @example((3, [], [[F(1), F(2), F(3)]]))
    @example((2, [[F(1), F(0)], [F(0), F(1)]], [[F(1), F(1)]]))
    @example((2, [[F(1), F(0)]], [[F(0), F(1)]]))
    @example((3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]], [[F(0), F(1), F(1)], [F(0), F(0), F(1)]]))
    def test_intersection_is_canonical_and_matches_annihilator_kernel(self, case):
        d, rows_v, rows_w = case
        V, W = Subspace.span(d, rows_v), Subspace.span(d, rows_w)
        X = V.intersect(W)
        assert Subspace.span(d, X.rows).rows == X.rows
        ann_v, ann_w = support.ref_kernel(d, rows_v), support.ref_kernel(d, rows_w)
        assert X.rows == _ref_rows(support.ref_kernel(d, ann_v + ann_w))
        assert V.sum(W).rows == _ref_rows(rows_v + rows_w)
        assert support.is_subspace_of(X, V) and support.is_subspace_of(X, W)

    @given(_subspace_case(), st.data())
    @example((0, []), None)
    @example((2, [[F(1), F(2)]]), None)
    def test_equal_spaces_share_rows_and_hash(self, case, data):
        d, rows = case
        V = Subspace.span(d, rows)
        # another spanning set of V: its rows scaled, combined, shuffled and
        # padded with a zero row, with entries given as strings
        mixed = [[c * x for x in r] for r, c in zip(V.rows, [F(-3), F(1, 2), F(7)] * d)]
        for i in range(1, len(mixed)):
            mixed[i] = [x + y for x, y in zip(mixed[i], mixed[i - 1])]
        if data is not None:
            mixed = data.draw(st.permutations(mixed))
        other = Subspace.span(d, [[str(x) for x in r] for r in mixed] + [[0] * d])
        assert other.rows == V.rows
        assert other == V and hash(other) == hash(V)

    @given(_subspace_case(), st.data())
    def test_integer_rows_are_canonical(self, case, data):
        """The integer rows of a span are the same for any spanning set:
        its rows scaled by nonzero rationals, duplicated, padded with zero
        rows and shuffled.  Each row is primitive with a positive pivot,
        and over its pivot it is the oracle's RREF row."""
        d, rows = case
        V = Subspace.span(d, rows)
        scales = data.draw(st.lists(_nonzero, min_size=len(rows), max_size=len(rows)))
        others = [[c * x for x in r] for r, c in zip(rows, scales)]
        if others:
            others += data.draw(st.lists(st.sampled_from(others), max_size=3))
        others += [[F(0)] * d] * data.draw(st.integers(0, 2))
        assert Subspace.span(d, data.draw(st.permutations(others))).ints == V.ints
        for r in V.ints:
            pivot = next(x for x in r if x)
            assert all(type(x) is int for x in r) and gcd(*r) == 1 and pivot > 0
        assert V.rows == _ref_rows(rows)

    def test_zero_and_full(self):
        # the spans of nothing and of a shuffled basis of Q^d
        assert Subspace.span(3, []).rows == ()
        assert Subspace.span(2, [[0, 3], [2, 1]]).rows == ((F(1), F(0)), (F(0), F(1)))
        assert Subspace.span(3, []).ambient_dim == 3
        assert Subspace.span(0, [[]]).rows == () and Subspace.span(0, []) == Subspace(0, ())

    def test_constructor_checks_row_length(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            Subspace(3, ((1, 0),))


def _fraction_storage(M: QMatrix):
    return [[(type(x), x.numerator, x.denominator) for x in row] for row in M.data]


@st.composite
def _qfactor_pair(draw):
    """A (r x k, k x c) pair of rational matrices, any of r, k, c zero; now
    and then a whole row of the left or column of the right is zero."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    A = [[draw(_entries) for _ in range(k)] for _ in range(r)]
    B = [[draw(_entries) for _ in range(c)] for _ in range(k)]
    if r and draw(st.booleans()):
        A[draw(st.integers(0, r - 1))] = [F(0)] * k
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in B:
            row[j] = F(0)
    return QMatrix.from_rows(A, cols=k), QMatrix.from_rows(B, cols=c)


class TestIntegerProduct:
    """The ``IntegerMatrix`` product, read back as Fractions, against a
    running ``Fraction`` sum per term, on identical storage."""

    @given(_qfactor_pair())
    @example((QMatrix.zeros(0, 3), QMatrix.zeros(3, 0)))
    @example((QMatrix.zeros(2, 0), QMatrix.zeros(0, 3)))
    @example((QMatrix.from_rows([[F(1, 2), F(-2, 3)], [F(0), F(5, 4)]]),
              QMatrix.from_rows([[F(3, 5), F(0)], [F(3, 4), F(7)]])))
    def test_matches_per_term_sum(self, pair):
        A, B = pair
        got = (IntegerMatrix.of(A) @ IntegerMatrix.of(B)).fractions()
        want = support.ref_qmatmul(A, B)
        assert got.shape == want.shape == (A.rows, B.cols)
        assert _fraction_storage(got) == _fraction_storage(want)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            IntegerMatrix.zeros(2, 3) @ IntegerMatrix.zeros(2, 3)



class TestIntegerMatrix:
    """The integer form of a rational matrix against the QMatrix it came
    from: reading back, products, stacks and transposes give the same
    Fractions."""

    @given(_qfactor_pair())
    @example((QMatrix.zeros(0, 3), QMatrix.zeros(3, 0)))
    @example((QMatrix.zeros(2, 0), QMatrix.zeros(0, 3)))
    def test_matches_fraction_matrices(self, pair):
        A, B = pair
        Ai, Bi = IntegerMatrix.of(A), IntegerMatrix.of(B)
        assert Ai.den == lcm(*(x.denominator for row in A.data for x in row))
        assert _fraction_storage(Ai.fractions()) == _fraction_storage(A)
        assert Ai.transpose().fractions() == support.transpose(A)
        assert (Ai @ Bi).fractions() == support.ref_qmatmul(A, B)
        # B^T has A's column count k, so it stacks under A
        Bt, k = support.transpose(B), A.cols
        got = IntegerMatrix.vstack([Ai, IntegerMatrix.of(Bt), IntegerMatrix.of(QMatrix.identity(k))])
        assert got.fractions() == support.stack([[A], [Bt], [QMatrix.identity(k)]])
        got = IntegerMatrix.hstack([Ai, IntegerMatrix.zeros(A.rows, 2), Ai])
        assert got.fractions() == support.stack([[A, QMatrix.zeros(A.rows, 2), A]])

    def test_hstack_rejects_unequal_rows(self):
        with pytest.raises(ValueError, match=r"hstack: 2x1, 3x1"):
            IntegerMatrix.hstack([IntegerMatrix.zeros(2, 1), IntegerMatrix.zeros(3, 1)])

    def test_vstack_rejects_unequal_columns(self):
        with pytest.raises(ValueError, match=r"vstack: 1x2, 1x3"):
            IntegerMatrix.vstack([IntegerMatrix.zeros(1, 2), IntegerMatrix.zeros(1, 3)])
