"""Univariate polynomials over Q, polynomial matrices, and Smith form.

The polynomial matrices of interest are pencils s E0 - A0, above all the
system pencils

    P(s)   = [ sI - A   -B ]        P_e(s) = [ P(s) ]
             [   C       D ]                 [ E  F ]

Every pencil is built by ``pencil`` and eliminated once, by the Smith
normal form (gcd-driven elementary row/column operations with both
unimodular transformers tracked); its normal rank is the number of
invariant polynomials and its invariant zeros are their roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactlin import QMatrix, as_fraction
from .system import SystemSextuple


class Poly:
    """Polynomial with exact rational coefficients, ascending order.

    Stored as integer numerators over one positive denominator in lowest
    terms: gcd(numerators, den) == 1, no trailing zero numerator, and the
    zero polynomial is ([], 1).  Equal polynomials therefore have equal
    storage.  The numerator list is never mutated after construction.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Sequence = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so no gcd is needed
        den = lcm(*(c.denominator for c in cs))
        self._num = [c.numerator * (den // c.denominator) for c in cs]
        self._den = den

    # -- basics -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced fractions, ascending."""
        den = self._den
        if den == 1:
            return tuple(Fraction(c) for c in self._num)
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _sum(self, other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return _sum(self, other, -1)

    def __neg__(self) -> "Poly":
        return _raw([-c for c in self._num], self._den)

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly:
            return self.scale(other)
        out: list[int] = []
        _convolve_into(out, self._num, other._num)
        return _reduced(out, self._den * other._den)

    def __rmul__(self, other) -> "Poly":
        return self.scale(other)

    def scale(self, c) -> "Poly":
        c = as_fraction(c)
        if not c:
            return POLY_ZERO
        p = c.numerator
        return _reduced([p * x for x in self._num], self._den * c.denominator)

    def _pseudo_divmod(self, other: "Poly") -> tuple[list[int], list[int], int]:
        """Integer pseudo-division of the numerators, a = self._num and
        b = other._num: returns q, r, f with f a == q b + r and
        deg r < deg b.  Each step scales by lead(b) / gcd(top, lead(b))
        only, so f stays 1 whenever the leading numerators divide."""
        b = other._num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._num)
        bdeg = len(b) - 1
        shift = len(rem) - 1 - bdeg
        if shift < 0:
            return [], rem, 1
        lead = b[-1]
        low = b[:-1]
        quo = [0] * (shift + 1)
        f = 1
        for k in range(shift, -1, -1):
            c = rem.pop()
            if not c:
                continue
            g = gcd(c, lead)
            m = lead // g
            if m != 1:
                rem = [x * m for x in rem]
                quo = [x * m for x in quo]
                f *= m
            c //= g
            quo[k] = c
            for i, y in enumerate(low, k):
                rem[i] -= c * y
        return quo, rem, f

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        # f a == q b + r on the numerators gives, over the denominators,
        # self == (q den_b / (f den_a)) other + r / (f den_a)
        q, r, f = self._pseudo_divmod(other)
        den = f * self._den
        return _reduced(_times(q, other._den), den), _reduced(r, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        q, _, f = self._pseudo_divmod(other)
        return _reduced(_times(q, other._den), f * self._den)

    def __mod__(self, other: "Poly") -> "Poly":
        _, r, f = self._pseudo_divmod(other)
        return _reduced(r, f * self._den)

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        if len(self._num) == 1:  # a nonzero constant divides everything
            return True
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        num = self._num
        if not num or num[-1] == self._den:
            return self
        return _reduced(list(num), num[-1])

    def evaluate(self, x):
        """Horner evaluation at x (exact for rational x)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparisons / display -----------------------------------------------

    def __eq__(self, other) -> bool:
        return (type(other) is Poly and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._den, *self._num))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def __str__(self) -> str:
        return self.format()

    def format(self, var: str = "s") -> str:
        if self.is_zero():
            return "0"
        terms = []
        cs = self.coeffs
        for k in range(self.degree, -1, -1):
            c = cs[k]
            if c == 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)


def _reduced(num: list[int], den: int) -> Poly:
    """The Poly num / den (den != 0) in canonical form; num is consumed."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return POLY_ZERO
    if den < 0:
        num = [-x for x in num]
        den = -den
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _raw(num, den)


def _times(num: list[int], c: int) -> list[int]:
    return [c * x for x in num] if c != 1 else num


def _raw(num: list[int], den: int) -> Poly:
    """A Poly from storage that is already canonical."""
    p = object.__new__(Poly)
    p._num = num
    p._den = den
    return p


def _convolve_into(out: list[int], a: list[int], b: list[int]) -> None:
    """out += a * b on numerator lists; out grows as needed."""
    if not a or not b:
        return
    need = len(a) + len(b) - 1
    if len(out) < need:
        out.extend([0] * (need - len(out)))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y


def _add_mul(x: Poly, q: Poly, y: Poly) -> Poly:
    """x + q * y with one reduction: over lcm(den x, den q * den y)."""
    if not q._num or not y._num:
        return x
    dx, dqy = x._den, q._den * y._den
    g = gcd(dx, dqy)
    mx, mq = dqy // g, dx // g
    out = [mx * c for c in x._num] if mx != 1 else list(x._num)
    _convolve_into(out, _times(q._num, mq), y._num)
    return _reduced(out, dx * mx)


def _common_den(polys: Sequence[Poly]) -> tuple[list[list[int]], int]:
    """The numerators of polys over the lcm of their denominators."""
    den = lcm(*(p._den for p in polys))
    return [_times(p._num, den // p._den) for p in polys], den


def _sum(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b over the lcm of the two denominators."""
    x, y = a._num, b._num
    if not y:
        return a
    if not x:
        return b if sign == 1 else -b
    da, db = a._den, b._den
    if da == db:
        ma, mb, den = 1, sign, da
    else:
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        den = da * ma
    if len(x) < len(y):
        x, y, ma, mb = y, x, mb, ma
    out = [c * ma for c in x] if ma != 1 else list(x)
    for i, c in enumerate(y):
        out[i] += c * mb
    return _reduced(out, den)


POLY_ZERO = Poly()
POLY_ONE = Poly([1])
POLY_S = Poly([0, 1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; errors when both arguments are zero."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = a.monic(), b.monic()
    while not b.is_zero():
        r = a % b
        a, b = b, (r.monic() if not r.is_zero() else r)
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return POLY_ZERO
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly([as_fraction(x)])


class PolyMatrix:
    """Immutable dense matrix of polynomials."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[tuple[Poly, ...], ...]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent polynomial matrix data")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "PolyMatrix":
        data = tuple(tuple(_as_poly(x) for x in row) for row in rows)
        nrows = len(data)
        ncols = len(data[0]) if nrows else (cols if cols is not None else 0)
        if nrows and cols is not None and ncols != cols:
            raise ValueError(f"expected {cols} columns, found {ncols}")
        return cls(nrows, ncols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(rows, cols, tuple(tuple(POLY_ZERO for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls(n, n, tuple(tuple(POLY_ONE if i == j else POLY_ZERO for j in range(n))
                               for i in range(n)))

    @classmethod
    def vstack(cls, mats: Sequence["PolyMatrix"]) -> "PolyMatrix":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column count mismatch")
        return cls(sum(m.rows for m in mats), cols, tuple(r for m in mats for r in m.data))

    def __getitem__(self, key: tuple[int, int]) -> Poly:
        i, j = key
        return self.data[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.cols, self.rows,
                          tuple(tuple(self.data[i][j] for i in range(self.rows))
                                for j in range(self.cols)))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in product: {self.shape} @ {other.shape}")
        # each row of self and each column of other over one denominator,
        # then one integer convolution sum and one reduction per entry
        rows = [_common_den(row) for row in self.data]
        cols = [_common_den([row[j] for row in other.data]) for j in range(other.cols)]
        data = []
        for a, da in rows:
            entries = []
            for b, db in cols:
                out: list[int] = []
                for x, y in zip(a, b):
                    if x and y:
                        _convolve_into(out, x, y)
                entries.append(_reduced(out, da * db))
            data.append(tuple(entries))
        return PolyMatrix(self.rows, other.cols, tuple(data))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return PolyMatrix(self.rows, self.cols,
                          tuple(tuple(a - b for a, b in zip(ra, rb))
                                for ra, rb in zip(self.data, other.data)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def evaluate(self, s0) -> QMatrix:
        return QMatrix.from_rows([[e.evaluate(as_fraction(s0)) for e in row] for row in self.data],
                                 cols=self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.shape == other.shape
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.data)
        return f"PolyMatrix({self.rows}x{self.cols}: [{body}])"


def pencil(E0: QMatrix, A0: QMatrix) -> PolyMatrix:
    """The pencil s E0 - A0 of two constant matrices of one shape."""
    if E0.shape != A0.shape:
        raise ValueError(f"pencil blocks differ in shape: {E0.shape} vs {A0.shape}")
    return PolyMatrix(A0.rows, A0.cols,
                      tuple(tuple(Poly([-a, e]) for e, a in zip(row_e, row_a))
                            for row_e, row_a in zip(E0.data, A0.data)))


def build_system_matrices(sys: SystemSextuple) -> tuple[PolyMatrix, PolyMatrix]:
    """The system pencil P(s) = [sI-A, -B; C, D] and its extension with [E F]."""
    n, m, p = sys.n, sys.m, sys.p
    P = pencil(QMatrix.from_blocks([[QMatrix.identity(n), QMatrix.zeros(n, m)],
                                    [QMatrix.zeros(p, n + m)]]),
               QMatrix.from_blocks([[sys.A, sys.B], [-sys.C, -sys.D]]))
    EF = pencil(QMatrix.zeros(sys.q, n + m), -QMatrix.hstack([sys.E, sys.F]))
    return P, PolyMatrix.vstack([P, EF])


def determinant(M: PolyMatrix) -> Poly:
    """Exact determinant via single-step fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return POLY_ONE
    a = [list(row) for row in M.data]
    sign = 1
    prev = POLY_ONE
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if piv is None:
            return POLY_ZERO
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = POLY_ZERO
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ P @ V == S with U, V unimodular and S the diagonal Smith form."""
    U: PolyMatrix
    S: PolyMatrix
    V: PolyMatrix
    invariant_polys: tuple[Poly, ...]


def _row_op_sub(mat: list[list[Poly]], i: int, t: int, q: Poly) -> None:
    """Row i -= q * row t."""
    q = -q
    mat[i] = [_add_mul(x, q, y) for x, y in zip(mat[i], mat[t])]


def _col_op_sub(mat: list[list[Poly]], j: int, t: int, q: Poly) -> None:
    """Column j -= q * column t."""
    q = -q
    for row in mat:
        row[j] = _add_mul(row[j], q, row[t])


def _swap_cols(mat: list[list[Poly]], a: int, b: int) -> None:
    for row in mat:
        row[a], row[b] = row[b], row[a]


def smith_form(P: PolyMatrix) -> SmithDecomposition:
    """Smith normal form with unimodular transformers.

    Gcd-driven elementary operations: the minimum-degree entry of the
    working submatrix is promoted to the pivot, its row and column are
    cleared by division with remainder (remainders re-enter the pivot),
    and a divisibility pass guarantees the invariant-polynomial chain.
    The self-check U @ P @ V == S runs on every call.
    """
    m, n = P.rows, P.cols
    S = [list(row) for row in P.data]
    U = [list(row) for row in PolyMatrix.identity(m).data]
    V = [list(row) for row in PolyMatrix.identity(n).data]
    t = 0
    while t < min(m, n):
        # minimum-degree nonzero entry of the trailing submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = S[i][j]
                if not e.is_zero() and (best is None or e.degree < best[2]):
                    best = (i, j, e.degree)
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            S[t], S[bi] = S[bi], S[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            _swap_cols(S, t, bj)
            _swap_cols(V, t, bj)
        while True:
            changed = False
            for i in range(t + 1, m):
                if S[i][t].is_zero():
                    continue
                q = S[i][t] // S[t][t]
                if not q.is_zero():
                    _row_op_sub(S, i, t, q)
                    _row_op_sub(U, i, t, q)
                if not S[i][t].is_zero():
                    S[t], S[i] = S[i], S[t]
                    U[t], U[i] = U[i], U[t]
                    changed = True
                    break
            if changed:
                continue
            for j in range(t + 1, n):
                if S[t][j].is_zero():
                    continue
                q = S[t][j] // S[t][t]
                if not q.is_zero():
                    _col_op_sub(S, j, t, q)
                    _col_op_sub(V, j, t, q)
                if not S[t][j].is_zero():
                    _swap_cols(S, t, j)
                    _swap_cols(V, t, j)
                    changed = True
                    break
            if changed:
                continue
            if any(not S[i][t].is_zero() for i in range(t + 1, m)):
                continue
            # pivot must divide the rest of the submatrix
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not S[t][t].divides(S[i][j]):
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                S[t] = [x + y for x, y in zip(S[t], S[bad])]
                U[t] = [x + y for x, y in zip(U[t], U[bad])]
                continue
            break
        t += 1
    # monic normalisation of the diagonal (constant row scalings)
    for i in range(min(m, n)):
        d = S[i][i]
        if not d.is_zero() and d.leading != 1:
            inv = Fraction(1) / d.leading
            S[i] = [x.scale(inv) for x in S[i]]
            U[i] = [x.scale(inv) for x in U[i]]
    Sm = PolyMatrix.from_rows(S, cols=n)
    Um = PolyMatrix.from_rows(U, cols=m)
    Vm = PolyMatrix.from_rows(V, cols=n)
    invariants = tuple(Sm[i, i] for i in range(min(m, n)) if not Sm[i, i].is_zero())
    dec = SmithDecomposition(Um, Sm, Vm, invariants)
    _assert_smith(P, dec)
    return dec


def _assert_smith(P: PolyMatrix, dec: SmithDecomposition) -> None:
    if dec.U @ P @ dec.V != dec.S:
        raise AssertionError("Smith self-check failed: U P V != S")
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j and not dec.S[i, j].is_zero():
                raise AssertionError("Smith form not diagonal")
    polys = dec.invariant_polys
    for a, b in zip(polys, polys[1:]):
        if not a.divides(b):
            raise AssertionError("invariant polynomial chain broken")
    for a in polys:
        if a.leading != 1:
            raise AssertionError("invariant polynomial not monic")


def rank_and_zero_polynomial(P: PolyMatrix) -> tuple[int, Poly]:
    """Normal rank and zero polynomial of P from one Smith form.

    The rank is the number of invariant polynomials; the zero polynomial
    is their monic product, whose roots (with multiplicity) are the
    invariant zeros of P.
    """
    invariants = smith_form(P).invariant_polys
    prod = POLY_ONE
    for a in invariants:
        if a.degree > 0:
            prod = prod * a
    return len(invariants), prod.monic()


def output_decoupling_zero_polynomial(sys: SystemSextuple) -> Poly:
    """Zero polynomial of [sI - A; C]; roots are the unobservable modes."""
    n = sys.n
    E0 = QMatrix.vstack([QMatrix.identity(n), QMatrix.zeros(sys.p, n)])
    return rank_and_zero_polynomial(pencil(E0, QMatrix.vstack([sys.A, -sys.C])))[1]
