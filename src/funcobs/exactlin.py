"""Exact rational linear algebra.

A plant's blocks are ``QMatrix`` entries (``fractions.Fraction``), and
every product, stack, rank and kernel runs on ``IntegerMatrix`` forms,
integer rows over one denominator.  Subspaces (spans, kernels, sums and
intersections) are canonical.  Every elimination grows one fraction-free
row echelon of integer rows (``_echelon_add``), reduced where its rows are
read (``_reduce``) to canonical integer rows: the least positive integer
multiples of the nonzero RREF rows, the form a ``Subspace`` holds.  One
routine reads a kernel basis off such rows (``_integer_kernel``).
Fractions are made from integer rows only for a report or a test:
``Subspace.rows``, the vector ``first_escape`` returns and
``IntegerMatrix.fractions``.  No floating point is used anywhere.
Matrices with zero rows or zero columns are first-class citizens (plants
without inputs need them).
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
        _check_literal(value)
        return Fraction(value)
    raise TypeError(f"not an exact rational literal: {value!r}")


LITERAL_DIGITS = 4300  # Python's default int-string limit


def _check_literal(text: str) -> None:
    """A ValueError for a literal with more than ``LITERAL_DIGITS`` digits
    in a numerator, denominator or exponent, or with a decimal exponent
    above ``LITERAL_DIGITS`` in magnitude, read before any integer is built:
    the number it would make is bounded, and so is the time to make it."""
    for part in text.lower().split("/"):
        mantissa, _, exp = part.partition("e")
        digits = max(sum(map(str.isdecimal, mantissa)), sum(map(str.isdecimal, exp)))
        if digits > LITERAL_DIGITS:
            raise ValueError(f"literal of {digits} digits (at most {LITERAL_DIGITS})")
        exp = exp.strip().lstrip("+-").replace("_", "")
        if exp.isdecimal() and int(exp) > LITERAL_DIGITS:
            raise ValueError(f"literal with exponent {exp} "
                             f"(at most {LITERAL_DIGITS} in magnitude)")


def _common_den(xs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of xs over the lcm of their denominators."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


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
    """Grow a fraction-free row echelon by one integer row.

    ``echelon`` maps each pivot column to a primitive integer row whose
    first nonzero entry sits there, and spans the rows added so far.  The
    new row's leading entry is cleared against the kept row at that column
    until it leads in a column no row holds, and the primitive remainder
    is kept there.  No kept row is rewritten, and a full echelon (a pivot
    in every column) takes no row at all.
    """
    width = len(row)
    if len(echelon) == width:
        return
    lead = next((j for j, x in enumerate(row) if x), width)
    while lead in echelon:
        prow = echelon[lead]
        p, f = prow[lead], row[lead]
        g = gcd(p, f)
        a, b = p // g, f // g
        row = [a * x - b * y for x, y in zip(row, prow)]
        lead = next((j for j in range(lead + 1, width) if row[j]), width)
    if lead < width:
        echelon[lead] = _primitive(row)


def _reduce(echelon: dict[int, list[int]]) -> None:
    """Back-substitution in place: each row of ``_echelon_add``'s echelon
    becomes the least positive integer multiple of its RREF row.  Rows are
    taken from the last pivot back, each cleared in one pass against the
    reduced rows after it; a full echelon is the identity, with no
    arithmetic."""
    width = len(next(iter(echelon.values()), ()))
    if len(echelon) == width:
        for c in echelon:
            echelon[c] = [int(j == c) for j in range(width)]
        return
    done: list[int] = []
    for c in sorted(echelon, reverse=True):
        row = echelon[c]
        hits = [(d, row[d]) for d in done if row[d]]
        if hits:
            scale = lcm(*(echelon[d][d] // gcd(echelon[d][d], f) for d, f in hits))
            row = [scale * x for x in row]
            for d, f in hits:
                prow = echelon[d]
                k = scale * f // prow[d]
                row = [x - k * y for x, y in zip(row, prow)]
            row = _primitive(row)
        echelon[c] = [-x for x in row] if row[c] < 0 else row
        done.append(c)


def _integer_echelon(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """The rows of ``_echelon_add``'s echelon grown from integer ``rows``
    and reduced, in pivot order: the canonical integer rows of their
    span."""
    echelon: dict[int, list[int]] = {}
    for r in rows:
        _echelon_add(echelon, r)
    _reduce(echelon)
    return [echelon[p] for p in sorted(echelon)]


def _integer_kernel(Y: Sequence[Sequence[int]], d: int) -> tuple[list[list[int]], list[int], int]:
    """An integer basis of Ker Y, as columns, its free columns and its
    scale L, the lcm of the pivots of Y's rows y_i (integer rows zero at
    each other's pivots p_i, as a reduced echelon's are): column f has L
    at f and -y_i[f] L / y_i[p_i] at p_i, L times the canonical kernel
    vector."""
    at = {next(j for j, x in enumerate(y) if x): y for y in Y}
    L = lcm(*(y[p] for p, y in at.items()))
    free = [j for j in range(d) if j not in at]
    scale = [(p, y, L // y[p]) for p, y in at.items()]
    columns = []
    for f in free:
        col = [0] * d
        col[f] = L
        for p, y, k in scale:
            col[p] = -y[f] * k
        columns.append(col)
    return columns, free, L


def _fraction_row(row: Sequence[int]) -> tuple[Fraction, ...]:
    """The RREF row of a canonical integer row: each entry over the pivot."""
    p = next(x for x in row if x)
    return tuple(Fraction(x, p) if x else _ZERO for x in row)


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

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        return self.data[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

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
    """Immutable dense matrix over exact rationals, a plant's blocks as
    read; ``IntegerMatrix.of`` reads it for any arithmetic."""

    __slots__ = ()
    _entry = staticmethod(as_fraction)
    _zero = Fraction(0)
    _one = Fraction(1)

    # no caller in the package; the benchmark tracer wraps it by name
    def rank(self) -> int:
        return IntegerMatrix.of(self).rank()

    # no caller in the package; the benchmark tracer wraps it by name
    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        rows = Subspace.span(self.cols, self.data).rows
        pivots = tuple(next(j for j, x in enumerate(r) if x) for r in rows)
        zeros = ((_ZERO,) * self.cols,) * (self.rows - len(rows))
        return QMatrix(self.rows, self.cols, rows + zeros), pivots


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
    def of(M: QMatrix) -> IntegerMatrix:
        den = lcm(*{x.denominator for row in M.data for x in row})
        if den == 1:
            return IntegerMatrix(M.rows, M.cols, [[x.numerator for x in row] for row in M.data], 1)
        return IntegerMatrix(M.rows, M.cols, [[x.numerator * (den // x.denominator) for x in row]
                                              for row in M.data], den)

    @staticmethod
    def zeros(rows: int, cols: int) -> IntegerMatrix:
        return IntegerMatrix(rows, cols, [[0] * cols for _ in range(rows)], 1)

    @staticmethod
    def hstack(mats: Sequence[IntegerMatrix]) -> IntegerMatrix:
        _check_stack("hstack", mats, "rows")
        den = lcm(*(M.den for M in mats))
        parts = [_scaled(M.data, den // M.den) for M in mats]
        return IntegerMatrix(mats[0].rows, sum(M.cols for M in mats),
                             [[x for row in rows for x in row] for rows in zip(*parts)], den)

    @staticmethod
    def vstack(mats: Sequence[IntegerMatrix]) -> IntegerMatrix:
        _check_stack("vstack", mats, "cols")
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
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in product: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        cols = other.transpose().data
        return IntegerMatrix(self.rows, other.cols,
                             [[sum(map(mul, row, col)) for col in cols] for row in self.data],
                             self.den * other.den)

    def fractions(self) -> QMatrix:
        den = self.den
        return QMatrix(self.rows, self.cols,
                       tuple(tuple(Fraction(x, den) if x else _ZERO for x in row)
                             for row in self.data))


def _check_stack(kind: str, mats: Sequence[IntegerMatrix], size: str) -> None:
    if len({getattr(M, size) for M in mats}) > 1:
        raise ValueError(f"shape mismatch in {kind}: "
                         + ", ".join(f"{M.rows}x{M.cols}" for M in mats))


class Subspace:
    """Linear subspace of Q^d held by its canonical integer rows.

    ``ints`` are the nonzero rows of the reduced row echelon form of any
    spanning set, each times the least positive integer that clears its
    denominators, so two equal subspaces always carry identical rows.
    ``rows`` makes the RREF rows as Fractions, for a report or a test.
    """

    __slots__ = ("ambient_dim", "ints")

    def __init__(self, ambient_dim: int, ints: Iterable[Sequence[int]]):
        ints = tuple(map(tuple, ints))
        if any(len(r) != ambient_dim for r in ints):
            raise ValueError("basis ambient dimension mismatch")
        self.ambient_dim = ambient_dim
        self.ints = ints

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [[as_fraction(x) for x in v] for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("spanning vector of wrong length")
        return cls(ambient_dim, _integer_echelon(map(_integer_row, rows)))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(_fraction_row, self.ints))

    @property
    def dim(self) -> int:
        return len(self.ints)

    # no caller in the package; the benchmark tracer wraps it by name
    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(self.ambient_dim, _integer_echelon(self.ints + other.ints))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus block trick: the right halves of
        the rows of [v v; w 0]'s echelon that pivot there, the canonical
        rows once reduced.  Only those rows are reduced."""
        self._check_ambient(other)
        d = self.ambient_dim
        zeros = (0,) * d
        echelon: dict[int, list[int]] = {}
        for v in self.ints:
            _echelon_add(echelon, v + v)
        for w in other.ints:
            _echelon_add(echelon, w + zeros)
        # rows that pivot in the right half are zero in the left: reduce them alone
        right = {p: r for p, r in echelon.items() if p >= d}
        _reduce(right)
        return Subspace(d, [right[p][d:] for p in sorted(right)])

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.ints == other.ints)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.ints))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(M: IntegerMatrix) -> Subspace:
    """Canonical basis of {v : M v = 0}, from one elimination of M's
    integer rows; the denominator does not change the kernel.

    M is eliminated with its columns reversed, and ``_integer_kernel``
    reads that echelon's kernel off.  Read back in the original order, its
    column at free column f leads at d - 1 - f, is zero at the other free
    columns and has its other entries further right, so these columns,
    last free column first and made primitive, are Ker M's canonical rows.
    """
    columns = _integer_kernel(_integer_echelon(r[::-1] for r in M.data), M.cols)[0]
    return Subspace(M.cols, [_primitive(col[::-1]) for col in reversed(columns)])


def first_escape(V: Subspace, M: IntegerMatrix) -> tuple[Fraction, ...] | None:
    """First canonical basis vector of V that M does not annihilate.

    None exactly when V lies inside Ker M; the search stops at the first
    escaping vector.  Every test is an integer dot product of one of M's
    integer rows with one of V's rows; only the vector returned is made
    Fractions, its RREF row.
    """
    if M.cols != V.ambient_dim:
        raise ValueError("first_escape: column count must match ambient dimension")
    for vec in V.ints:
        if any(sum(map(mul, row, vec)) for row in M.data):
            return _fraction_row(vec)
    return None
