"""Exact rational linear algebra.

Dense matrices over arbitrary-precision rationals (``fractions.Fraction``)
plus canonical subspace arithmetic: kernels, images, sums, intersections,
preimages and inclusion tests.  Everything in this module is exact; no
floating point is used anywhere.  Matrices with zero rows or zero columns
are first-class citizens (plants without inputs need them).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction
_ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce an exact rational literal (int, Fraction, or string).

    Strings may be integers ("7"), ratios ("7/3") or decimals ("0.25");
    decimals convert with a power-of-ten denominator, never through binary
    floating point.  Floats are rejected to keep the exactness contract,
    and so are booleans, which Python counts as integers.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational literal: {value!r}")


def _common_den(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of xs over the lcm of their denominators."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, divided by its content."""
    ints, _ = _common_den(row)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _integer_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Every row stays a nonzero integer multiple of the row that Gauss-Jordan
    over Q would hold at the same step (pivot rows unnormalised), so zero
    patterns, row swaps and pivot columns agree with it exactly.  Rows are
    kept primitive (content 1) to stop coefficient growth.
    """
    mat = [_integer_row(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(nrows):
            f = mat[i][c]
            if i == r or not f:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            new = [a * x - b * y for x, y in zip(mat[i], prow)]
            g = gcd(*new)
            mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return mat, pivots


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q with pivot columns.

    Eliminates on integers and divides by the pivots only when the rows are
    emitted, so the result is the canonical RREF, entry for entry.
    """
    mat, pivots = _integer_echelon(rows)
    ncols = len(mat[0]) if mat else 0
    out = []
    for i, row in enumerate(mat):
        if i < len(pivots):
            p = row[pivots[i]]
            out.append([Fraction(x, p) if x else _ZERO for x in row])
        else:
            out.append([_ZERO] * ncols)
    return out, pivots


class QMatrix:
    """Immutable dense matrix over exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[tuple[Fraction, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent matrix data")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "QMatrix":
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        nrows = len(data)
        if nrows:
            ncols = len(data[0])
            if cols is not None and ncols != cols:
                raise ValueError(f"expected {cols} columns, found {ncols}")
        elif cols is not None:
            ncols = cols
        else:
            ncols = 0
        return cls(nrows, ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        zero = Fraction(0)
        return cls(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @classmethod
    def column_vector(cls, entries: Sequence) -> "QMatrix":
        return cls.from_rows([[x] for x in entries], cols=1)

    @classmethod
    def hstack(cls, mats: Sequence["QMatrix"]) -> "QMatrix":
        if not mats:
            raise ValueError("hstack needs at least one matrix")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack: row count mismatch")
        data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(rows))
        return cls(rows, sum(m.cols for m in mats), data)

    @classmethod
    def vstack(cls, mats: Sequence["QMatrix"]) -> "QMatrix":
        if not mats:
            raise ValueError("vstack needs at least one matrix")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column count mismatch")
        data = tuple(row for m in mats for row in m.data)
        return cls(sum(m.rows for m in mats), cols, data)

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["QMatrix"]]) -> "QMatrix":
        return cls.vstack([cls.hstack(list(row)) for row in grid])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.data[i][j]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self.data]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        return QMatrix(self.rows, self.cols,
                       tuple(tuple(a + b for a, b in zip(ra, rb))
                             for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in subtraction")
        return QMatrix(self.rows, self.cols,
                       tuple(tuple(a - b for a, b in zip(ra, rb))
                             for ra, rb in zip(self.data, other.data)))

    def __neg__(self) -> "QMatrix":
        return QMatrix(self.rows, self.cols,
                       tuple(tuple(-a for a in row) for row in self.data))

    def scale(self, c) -> "QMatrix":
        c = as_fraction(c)
        return QMatrix(self.rows, self.cols,
                       tuple(tuple(c * a for a in row) for row in self.data))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in product: {self.shape} @ {other.shape}")
        # rows and columns over one denominator each: an integer dot
        # product and one Fraction per entry
        rows = [_common_den(row) for row in self.data]
        cols = [_common_den(other.column(j)) for j in range(other.cols)]
        data = tuple(tuple(Fraction(sum(map(mul, a, b)), da * db) for b, db in cols)
                     for a, da in rows)
        return QMatrix(self.rows, other.cols, data)

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       tuple(tuple(self.data[i][j] for i in range(self.rows))
                             for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def rank(self) -> int:
        return len(_integer_echelon(self.data)[1])

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        rows, pivots = _rref(self.to_lists())
        return QMatrix.from_rows(rows, cols=self.cols), tuple(pivots)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix({self.rows}x{self.cols}: [{body}])"


class Subspace:
    """Linear subspace of Q^d held by a canonical basis matrix.

    The basis is the transpose of the reduced row echelon form of any
    spanning set, so two equal subspaces always carry bit-identical basis
    matrices: columns have unit pivot entries at strictly increasing row
    indices and zeros elsewhere in the pivot rows.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: QMatrix):
        if basis.rows != ambient_dim:
            raise ValueError("basis ambient dimension mismatch")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [[as_fraction(x) for x in v] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("spanning vector of wrong length")
        reduced, _ = _rref(rows)
        reduced = [r for r in reduced if any(x != 0 for x in r)]
        basis = QMatrix.from_rows(reduced, cols=ambient_dim).transpose()
        return cls(ambient_dim, basis)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.span(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, QMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains(self, vector: Sequence) -> bool:
        v = [as_fraction(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector of wrong length")
        stacked = QMatrix.hstack([self.basis, QMatrix.column_vector(v)])
        return stacked.rank() == self.dim

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        if self.dim == 0:
            return True
        stacked = QMatrix.hstack([other.basis, self.basis])
        return stacked.rank() == other.dim

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.ambient_dim, self.basis.columns() + other.basis.columns())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus block trick."""
        self._check_ambient(other)
        d = self.ambient_dim
        rows: list[list[Fraction]] = []
        for v in self.basis.columns():
            rows.append(list(v) + list(v))
        for w in other.basis.columns():
            rows.append(list(w) + [Fraction(0)] * d)
        reduced, _ = _rref(rows)
        inter = [r[d:] for r in reduced
                 if all(x == 0 for x in r[:d]) and any(x != 0 for x in r[d:])]
        return Subspace.span(d, inter)

    def annihilator_matrix(self) -> QMatrix:
        """Matrix whose rows span the functionals vanishing on this subspace."""
        ker = kernel_basis(self.basis.transpose())
        return ker.basis.transpose()

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(M: QMatrix) -> Subspace:
    """Canonical basis of {v : M v = 0}."""
    reduced, pivots = _rref(M.to_lists())
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [Fraction(0)] * M.cols
        v[f] = Fraction(1)
        for idx, p in enumerate(pivots):
            v[p] = -reduced[idx][f]
        vectors.append(v)
    return Subspace.span(M.cols, vectors)


def first_escape(V: Subspace, M: QMatrix) -> tuple[Fraction, ...] | None:
    """First canonical basis vector of V that M does not annihilate.

    None exactly when V lies inside Ker M; the search stops at the first
    escaping vector.
    """
    if M.cols != V.ambient_dim:
        raise ValueError("first_escape: column count must match ambient dimension")
    for vec in V.basis.columns():
        if any(sum(a * b for a, b in zip(row, vec)) for row in M.data):
            return vec
    return None


def image_basis(M: QMatrix) -> Subspace:
    """Canonical basis of the column space of M."""
    return Subspace.span(M.rows, M.columns())


def preimage(A: QMatrix, V: Subspace) -> Subspace:
    """The subspace {x : A x in V}, computed as the kernel of N_V A."""
    if A.rows != V.ambient_dim:
        raise ValueError("preimage: row count must match ambient dimension")
    N = V.annihilator_matrix()
    if N.rows == 0:
        return Subspace.full(A.cols)
    return kernel_basis(N @ A)
