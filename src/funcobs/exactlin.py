"""Exact rational linear algebra.

Dense matrices over arbitrary-precision rationals (``fractions.Fraction``)
plus canonical subspace arithmetic: spans, kernels, sums and
intersections.  A subspace is held as the nonzero rows of its reduced row
echelon form, the form elimination produces, so no operation transposes
or re-coerces its data.  Every elimination grows one fraction-free
echelon of integer rows (``_echelon_add``).  Everything in this module is
exact; no floating point is used anywhere.  Matrices with zero rows or
zero columns are first-class citizens (plants without inputs need them).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

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


def _integer_matrix(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The numerators of a matrix's rows over the lcm of all its
    denominators, and that lcm."""
    den = lcm(*(x.denominator for row in rows for x in row))
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _primitive(row: list[int]) -> list[int]:
    """An integer row divided by its content."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, divided by its content."""
    return _primitive(_common_den(row)[0])


def _scaled(rows: list[list[int]], k: int) -> list[list[int]]:
    return rows if k == 1 else [[k * x for x in row] for row in rows]


def _echelon_add(echelon: dict[int, list[int]], row: list[int]) -> None:
    """Grow a fraction-free Gauss-Jordan echelon by one integer row.

    ``echelon`` maps each pivot column to a primitive integer row that is
    zero in every other pivot column: row for row a nonzero multiple of the
    reduced row echelon form of the rows added so far.  The new row is
    reduced against the kept pivots in one pass (their rows are zero at
    each other's pivots, so its entries there fix every multiplier), then
    its pivot column is cleared from the kept rows.  A row in the span
    already leaves the echelon as it was.
    """
    hits = [(c, row[c]) for c in echelon if row[c]]
    if hits:
        scale = lcm(*(echelon[c][c] // gcd(echelon[c][c], f) for c, f in hits))
        if scale != 1:
            row = [scale * x for x in row]
        for c, f in hits:
            prow = echelon[c]
            k = scale * f // prow[c]
            row = [x - k * y for x, y in zip(row, prow)]
    pivot = next((j for j, x in enumerate(row) if x), None)
    if pivot is None:
        return
    row = _primitive(row)
    p = row[pivot]
    for c, krow in echelon.items():
        f = krow[pivot]
        if f:
            g = gcd(p, f)
            a, b = p // g, f // g
            echelon[c] = _primitive([a * x - b * y for x, y in zip(krow, row)])
    echelon[pivot] = row


def _integer_echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """The pivot rows of ``_echelon_add`` grown from nothing, in pivot
    order, and their pivot columns: primitive integer multiples of the
    nonzero rows of the reduced row echelon form."""
    echelon: dict[int, list[int]] = {}
    width = len(rows[0]) if rows else 0
    for r in rows:
        if len(echelon) == width:
            break
        _echelon_add(echelon, _integer_row(r))
    pivots = sorted(echelon)
    return [echelon[p] for p in pivots], pivots


def adjugate_solve(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """det M and adj(M) @ R, for the rows of an integer [M | R] with M
    square; (0, []) when M is singular.

    One fraction-free elimination (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968) keeps every entry a minor of the row-swapped [M | R], so each
    division is exact and the last pivot is det M up to the sign of the
    swaps.  The back-substitution works on det M times the solution, which
    is integral by Cramer's rule, so its divisions are exact too.
    """
    n = len(rows)
    mat = [list(r) for r in rows]
    upper = []  # row k of the echelon form from column k on
    sign, prev = 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if mat[i][0]), None)
        if pr is None:
            return 0, []
        if pr != k:
            mat[k], mat[pr] = mat[pr], mat[k]
            sign = -sign
        prow = mat[k]
        p, tail = prow[0], prow[1:]
        upper.append(prow)
        for i in range(k + 1, n):
            row = mat[i]
            f = row[0]
            if f:
                mat[i] = [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
            elif p != prev:
                mat[i] = [p * x // prev for x in row[1:]]
            else:
                mat[i] = row[1:]
        prev = p
    det = sign * prev
    sol: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        u = upper[i]
        acc = [det * c for c in u[n - i:]]
        for a, x in zip(u[1:n - i], sol[i + 1:]):
            if a:
                acc = [s - a * y for s, y in zip(acc, x)]
        sol[i] = [s // u[0] for s in acc]
    return det, sol


def _rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q with pivot columns.

    Eliminates on integers and divides by the pivots only when the rows are
    emitted, so the result is the canonical RREF, entry for entry.
    """
    mat, pivots = _integer_echelon(rows)
    out = [[Fraction(x, row[p]) if x else _ZERO for x in row] for row, p in zip(mat, pivots)]
    ncols = len(rows[0]) if rows else 0
    out.extend([_ZERO] * ncols for _ in range(len(rows) - len(out)))
    return out, pivots


class DenseMatrix:
    """Immutable dense matrix: a tuple of row tuples and its shape.

    The container behind QMatrix, PolyMatrix and RationalFunctionMatrix.
    A subclass sets its entry coercion ``_entry``, its ``_zero`` and
    ``_one`` entries and its ``_data_error`` message.
    """

    __slots__ = ("rows", "cols", "data")
    _data_error = "inconsistent matrix data"

    def __init__(self, rows: int, cols: int, data: tuple[tuple, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(self._data_error)
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None):
        entry = cls._entry
        data = tuple(tuple(entry(x) for x in row) for row in rows)
        if not data:
            return cls(0, cols or 0, data)
        ncols = len(data[0])
        if cols is not None and ncols != cols:
            raise ValueError(f"expected {cols} columns, found {ncols}")
        return cls(len(data), ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int):
        zero = cls._zero
        return cls(rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int):
        zero, one = cls._zero, cls._one
        return cls(n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def hstack(cls, mats: Sequence["DenseMatrix"]):
        if not mats:
            raise ValueError("hstack needs at least one matrix")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack: row count mismatch")
        data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(rows))
        return cls(rows, sum(m.cols for m in mats), data)

    @classmethod
    def vstack(cls, mats: Sequence["DenseMatrix"]):
        if not mats:
            raise ValueError("vstack needs at least one matrix")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column count mismatch")
        data = tuple(row for m in mats for row in m.data)
        return cls(sum(m.rows for m in mats), cols, data)

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["DenseMatrix"]]):
        return cls.vstack([cls.hstack(list(row)) for row in grid])

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        return self.data[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self):
        return type(self)(self.cols, self.rows,
                          tuple(tuple(self.data[i][j] for i in range(self.rows))
                                for j in range(self.cols)))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self.data)
        return f"{type(self).__name__}({self.rows}x{self.cols}: [{body}])"


class QMatrix(DenseMatrix):
    """Immutable dense matrix over exact rationals."""

    __slots__ = ()
    _entry = staticmethod(as_fraction)
    _zero = Fraction(0)
    _one = Fraction(1)

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

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

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def rank(self) -> int:
        return len(_integer_echelon(self.data)[1])

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        rows, pivots = _rref(self.data)
        return QMatrix.from_rows(rows, cols=self.cols), tuple(pivots)


class IntegerMatrix:
    """A rational matrix as integer rows over one positive denominator.

    ``of`` reads a ``QMatrix`` once, over the lcm of its entries'
    denominators.  Products and stacks stay in this form with no gcd, so
    the denominator may share a factor with every entry; ``fractions``
    makes the ``QMatrix`` back, only where a certificate reports it.
    """

    __slots__ = ("rows", "cols", "data", "den")

    def __init__(self, rows: int, cols: int, data: list[list[int]], den: int):
        self.rows, self.cols, self.data, self.den = rows, cols, data, den

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix) and self.den == other.den
                and (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data))

    @staticmethod
    def of(M: QMatrix | IntegerMatrix) -> IntegerMatrix:
        if isinstance(M, IntegerMatrix):
            return M
        data, den = _integer_matrix(M.data)
        return IntegerMatrix(M.rows, M.cols, data, den)

    @staticmethod
    def zeros(rows: int, cols: int) -> IntegerMatrix:
        return IntegerMatrix(rows, cols, [[0] * cols for _ in range(rows)], 1)

    @staticmethod
    def identity(n: int) -> IntegerMatrix:
        return IntegerMatrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)], 1)

    @staticmethod
    def hstack(mats: Sequence[IntegerMatrix]) -> IntegerMatrix:
        den = lcm(*(M.den for M in mats))
        parts = [_scaled(M.data, den // M.den) for M in mats]
        return IntegerMatrix(mats[0].rows, sum(M.cols for M in mats),
                             [[x for row in rows for x in row] for rows in zip(*parts)], den)

    @staticmethod
    def vstack(mats: Sequence[IntegerMatrix]) -> IntegerMatrix:
        den = lcm(*(M.den for M in mats))
        return IntegerMatrix(sum(M.rows for M in mats), mats[0].cols,
                             [row for M in mats for row in _scaled(M.data, den // M.den)], den)

    def transpose(self) -> IntegerMatrix:
        return IntegerMatrix(self.cols, self.rows,
                             [[row[j] for row in self.data] for j in range(self.cols)], self.den)

    def rank(self) -> int:
        """The rank, from the echelon that ``_echelon_add`` grows from the
        integer rows; the denominator does not change it."""
        echelon: dict[int, list[int]] = {}
        for row in self.data:
            _echelon_add(echelon, row)
        return len(echelon)

    def __matmul__(self, other: IntegerMatrix) -> IntegerMatrix:
        cols = other.transpose().data
        return IntegerMatrix(self.rows, other.cols,
                             [[sum(map(mul, row, col)) for col in cols] for row in self.data],
                             self.den * other.den)

    def fractions(self) -> QMatrix:
        den = self.den
        return QMatrix(self.rows, self.cols,
                       tuple(tuple(Fraction(x, den) if x else _ZERO for x in row)
                             for row in self.data))


class Subspace:
    """Linear subspace of Q^d held by its canonical rows.

    ``rows`` are the nonzero rows of the reduced row echelon form of any
    spanning set, so two equal subspaces always carry bit-identical rows:
    unit pivot entries in strictly increasing columns, and zeros elsewhere
    in the pivot columns.  ``basis`` shows them as the columns of a matrix.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: tuple[tuple[Fraction, ...], ...]):
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("basis ambient dimension mismatch")
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [[as_fraction(x) for x in v] for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("spanning vector of wrong length")
        reduced, pivots = _rref(rows)
        return cls(ambient_dim, tuple(tuple(r) for r in reduced[:len(pivots)]))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> QMatrix:
        return QMatrix(self.dim, self.ambient_dim, self.rows).transpose()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.span(self.ambient_dim, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus block trick: the right halves of
        the RREF rows of [v v; w 0] that pivot there.  RREF clears every
        pivot column, so they are the canonical rows already.  Each row is
        brought to its primitive integer row once, at half width, and only
        the rows returned are made Fractions."""
        self._check_ambient(other)
        d = self.ambient_dim
        zeros = [0] * d
        echelon: dict[int, list[int]] = {}
        for v in self.rows:
            half = _integer_row(v)
            _echelon_add(echelon, half + half)
        for w in other.rows:
            _echelon_add(echelon, _integer_row(w) + zeros)
        return Subspace(d, tuple(tuple(Fraction(x, r[p]) if x else _ZERO for x in r[d:])
                                 for p, r in sorted(echelon.items()) if p >= d))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(M: QMatrix | IntegerMatrix) -> Subspace:
    """Canonical basis of {v : M v = 0}, from one elimination.  M may be
    an ``IntegerMatrix``: a row's content is all that elimination drops.

    M is eliminated with its columns reversed.  Read back in the original
    order, the kernel vector of that RREF at free column f has its unit at
    d - 1 - f, zeros at the other free columns and its other entries
    further right, so these vectors, last free column first, are Ker M's
    canonical rows already.
    """
    d = M.cols
    mat, pivots = _integer_echelon([row[::-1] for row in M.data])
    at = dict(zip(pivots, mat))
    one = Fraction(1)
    rows = []
    for f in range(d - 1, -1, -1):
        if f in at:
            continue
        vec = [_ZERO] * d
        vec[d - 1 - f] = one
        for p, r in at.items():
            if r[f]:
                vec[d - 1 - p] = Fraction(-r[f], r[p])
        rows.append(tuple(vec))
    return Subspace(d, tuple(rows))


def first_escape(V: Subspace, M: QMatrix | IntegerMatrix) -> tuple[Fraction, ...] | None:
    """First canonical basis vector of V that M does not annihilate.

    None exactly when V lies inside Ker M; the search stops at the first
    escaping vector.  M's rows are brought to integers once (an
    ``IntegerMatrix``'s are already) and each vector to its primitive
    integer row, so every test is an integer dot product.
    """
    if M.cols != V.ambient_dim:
        raise ValueError("first_escape: column count must match ambient dimension")
    rows = M.data if isinstance(M, IntegerMatrix) else [_common_den(row)[0] for row in M.data]
    for vec in V.rows:
        ints = _integer_row(vec)
        if any(sum(map(mul, row, ints)) for row in rows):
            return vec
    return None
