"""Univariate polynomials over Q, polynomial matrices, and Smith form.

The polynomial matrices of interest are pencils s E0 - A0, above all the
system pencils

    P(s)   = [ sI - A   -B ]        P_e(s) = [ P(s) ]
             [   C       D ]                 [ E  F ]

``pencil_rows`` writes the rows of P, or the constant rows [E F], from
the integer rows of a system matrix, the matrix ``geometry.vstar`` takes:
each row is integers over its own denominator.  No decision builds a
polynomial matrix: they read normal ranks and zeros off
``geometry.vstar`` and ``berkowitz``, the characteristic polynomial of an
integer matrix over a scale.  The rows serve the witness: a square P's
unique solution, like the heuristic gcd, is read off one integer value as
its symmetric digits (``_digits``), and only the other plants build the
pencil as a ``PolyMatrix`` (``pencil``) for the Smith form (gcd-driven
elementary row/column operations with both unimodular transformers
tracked).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .exactlin import DenseMatrix, IntegerMatrix, as_fraction


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
        return _add_mul(self, POLY_ONE, other)

    def __sub__(self, other: "Poly") -> "Poly":
        return _add_mul(self, _POLY_MINUS_ONE, other)

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

    # -- comparisons / display -----------------------------------------------

    def __eq__(self, other) -> bool:
        return (type(other) is Poly and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._den, *self._num))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def __str__(self) -> str:
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
                body = f"{head}s" if k == 1 else f"{head}s^{k}"
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


POLY_ZERO = Poly()
POLY_ONE = Poly([1])
_POLY_MINUS_ONE = Poly([-1])


def _value(num: list[int], x: int) -> int:
    acc = 0
    for c in reversed(num):
        acc = acc * x + c
    return acc


def _digits(gamma: int, xi: int) -> list[int]:
    """gamma's symmetric base-xi digits (xi >= 2), lowest first: each in
    (-xi/2, xi/2], no trailing zero, none for gamma = 0.  An integer
    polynomial whose coefficients lie in [-h, h] with xi > 2h is the one
    whose digits these are at xi, since the representation is unique."""
    digits = []
    while gamma:
        d = gamma % xi
        if d > xi // 2:
            d -= xi
        digits.append(d)
        gamma = (gamma - d) // xi
    return digits


def _candidate(gamma: int, xi: int) -> list[int]:
    """The primitive polynomial, leading coefficient positive, whose
    coefficients are ``_digits(gamma, xi)`` divided by their content."""
    digits = _digits(gamma, xi)
    g = gcd(*digits) * (1 if digits[-1] > 0 else -1)
    return [d // g for d in digits]


def _heuristic_gcd(a: Poly, b: Poly) -> list[int] | None:
    """GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989) on
    primitive integer polynomials of positive degree (denominator 1): the
    numerators of their primitive gcd, leading coefficient positive, or
    None after six evaluation points.

    At a point xi the candidate G is ``_candidate`` of gamma = gcd(a(xi),
    b(xi)); it is accepted only when it divides a and b exactly.  Every xi
    is at least 2 min(|a|, |b|) + 2 in the max norm, and then an accepted G
    is the gcd g: G divides g, and a cofactor h = g / G of positive degree
    has its roots, which are roots of a and of b, inside the Cauchy bound
    1 + min(|a|, |b|) <= xi / 2, so |h(xi)| > xi / 2; yet h(xi) divides the
    content of gamma's digits, which is at most xi / 2.  A constant G
    divides a and b, so it is accepted with no trial division.
    """
    xi = 2 * min(max(map(abs, a._num)), max(map(abs, b._num))) + 29
    for _ in range(6):
        g = _candidate(gcd(_value(a._num, xi), _value(b._num, xi)), xi)
        if len(g) == 1:
            return g
        G = _raw(g, 1)
        if (a % G).is_zero() and (b % G).is_zero():
            return g
        xi = xi * 73794 // 27011
    return None


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; errors when both arguments are zero.

    The heuristic gcd runs first, on the primitive integer numerators.  If
    it gives up, a Euclidean remainder sequence over Q finds the gcd.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero() or b.is_zero():
        return (a if b.is_zero() else b).monic()
    if a.degree == 0 or b.degree == 0:
        return POLY_ONE
    g = _heuristic_gcd(*(_reduced(list(p._num), gcd(*p._num)) for p in (a, b)))
    if g is not None:
        return _raw(g, g[-1])
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


class PolyMatrix(DenseMatrix):
    """Immutable dense matrix of polynomials."""

    __slots__ = ()
    _data_error = "inconsistent polynomial matrix data"
    _entry = staticmethod(_as_poly)
    _zero = POLY_ZERO
    _one = POLY_ONE

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


class PencilRow(NamedTuple):
    """Row i of a pencil, (e s u_i + k) / r with u_i the i-th unit row:
    integer numerators k, the s-coefficient e on the diagonal and the lcm
    r of the row's entries' denominators."""
    k: list[int]
    e: int
    r: int


def pencil_rows(S: IntegerMatrix, n: int) -> list[PencilRow]:
    """The rows of the pencil [sI - A, -B; C, D] of the plant with n
    states and system matrix S = [A B; C D] (``geometry.vstar``'s
    arguments), each over its own denominator r = S.den / g, g = gcd(S.den,
    row): row i < n is (r s u_i - row / g) / r, row i >= n is (row / g) / r.
    With n = 0, S's rows as constants.  The only writer of P's layout."""
    d = S.den
    out = []
    for i, row in enumerate(S.data):
        g = gcd(d, *row)
        if i < n:
            out.append(PencilRow([-x // g for x in row], d // g, d // g))
        else:
            out.append(PencilRow([x // g for x in row] if g > 1 else row, 0, d // g))
    return out


def pencil(S: IntegerMatrix, n: int) -> PolyMatrix:
    """The pencil of ``pencil_rows(S, n)`` as a ``PolyMatrix``, each entry
    reduced from its row's numerators over the row's denominator."""
    return PolyMatrix(S.rows, S.cols, tuple(
        tuple(_reduced([x, e] if j == i else [x], r) for j, x in enumerate(k))
        for i, (k, e, r) in enumerate(pencil_rows(S, n))))


class SmithDecomposition(NamedTuple):
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
    # monic normalisation of the diagonal (constant row scalings): dividing
    # by the leading coefficient lead/den multiplies the numerators by den
    # and the denominators by lead
    for i in range(min(m, n)):
        d = S[i][i]
        if d._num and d._num[-1] != d._den:
            lead, den = d._num[-1], d._den
            S[i] = [_reduced([den * c for c in x._num], lead * x._den) for x in S[i]]
            U[i] = [_reduced([den * c for c in x._num], lead * x._den) for x in U[i]]
    invariants = tuple(S[i][i] for i in range(min(m, n)) if S[i][i]._num)
    # the working rows hold canonical entries already
    dec = SmithDecomposition(PolyMatrix(m, m, tuple(map(tuple, U))),
                             PolyMatrix(m, n, tuple(map(tuple, S))),
                             PolyMatrix(n, n, tuple(map(tuple, V))), invariants)
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


def berkowitz(M: Sequence[Sequence[int]], d: int) -> Poly:
    """det(sI - M/d) for an integer k x k matrix M and an integer d > 0.

    The gcd g of d and M's entries is divided out first, so the recurrence
    sees M/g and d/g, the lcm of the denominators of M/d.  Berkowitz's
    division-free recurrence (Inf. Process. Lett. 18, 1984) gives
    det(tI - M) on integers, and det(sI - M/d) = d^-k det(d s I - M)."""
    k = len(M)
    g = gcd(d, *(x for row in M for x in row))
    if g > 1:
        M, d = [[x // g for x in row] for row in M], d // g
    c = [1]  # det(tI - M[:r, :r]), descending
    for r in range(k):
        # M[:r+1, :r+1] = [M_r S; R a]: c times the lower triangular
        # Toeplitz matrix with first column 1, -a, -R S, -R M_r S, ...
        R, top = M[r][:r], [row[:r] for row in M[:r]]
        col, v = [1, -M[r][r]], [row[r] for row in M[:r]]
        for j in range(r):
            col.append(-sum(map(mul, R, v)))
            if j < r - 1:
                v = [sum(map(mul, row, v)) for row in top]
        out = [0] * (r + 2)
        for j, x in enumerate(c):
            if x:
                for i, y in enumerate(col[:r + 2 - j], j):
                    out[i] += x * y
        c = out
    return _reduced([x * d ** j for j, x in enumerate(reversed(c))], d ** k)
