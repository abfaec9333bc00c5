"""Shared fixtures: golden systems, random generators, independent oracles.

The oracles here deliberately avoid the library's own elimination code:
ranks come from a plain forward Gaussian elimination, the canonical RREF
from Gauss-Jordan over Fraction, polynomial arithmetic from Fraction
coefficient lists, normal ranks from ranks at enough integer points,
determinants from cofactor expansion, controllability from the Krylov
matrix, kernel-inclusion witnesses from a matrix product per basis
column, matrix products and Smith row/column operations term by term
(one sum of ``Fraction`` or ``Poly`` values per term), root locations
from numpy's companion-matrix solver,
trajectories from a stage-by-stage RK4 loop fed by scalar input
evaluation.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from funcobs.exactlin import QMatrix, Subspace, as_fraction
from funcobs.polymat import Poly, PolyMatrix
from funcobs.system import SystemSextuple


# -- golden systems -----------------------------------------------------------

def feedthrough_gap() -> SystemSextuple:
    """Scalar stable plant; the target output alone carries feedthrough."""
    return SystemSextuple.from_lists(A=[[-1]], B=[[1, -1]], C=[[1]],
                                     D=[[0, 0]], E=[[1]], F=[[1, 1]])


def integrator_chain() -> SystemSextuple:
    """Two-state chain with the input as estimation target."""
    return SystemSextuple.from_lists(A=[[0, 0], [1, 0]], B=[[1], [0]],
                                     C=[[1, 1]], D=[[0]], E=[[0, 0]], F=[[1]])


def stable_pair() -> SystemSextuple:
    """Uncontrolled stable pair, full state measured, first state targeted."""
    return SystemSextuple.from_lists(A=[[-1, 0], [0, -1]], C=[[1, 0], [0, 1]],
                                     E=[[1, 0]], m=0)


def measured_input() -> SystemSextuple:
    """Double integrator whose measurement is the input itself."""
    return SystemSextuple.from_lists(A=[[0, 1], [0, 0]], B=[[1], [1]],
                                     C=[[0, 0]], D=[[1]], E=[[1, -1]], F=[[0]])


def unstable_chain() -> SystemSextuple:
    """Autonomous shift chain with an unstable tail mode."""
    return SystemSextuple.from_lists(A=[[0, 1, 0], [0, 0, 1], [0, 0, 1]],
                                     C=[[1, 0, 0]], E=[[0, 1, 0]], m=0)


GOLDEN = {
    "feedthrough_gap": feedthrough_gap,
    "integrator_chain": integrator_chain,
    "stable_pair": stable_pair,
    "measured_input": measured_input,
    "unstable_chain": unstable_chain,
}


# -- random generators ----------------------------------------------------------

def random_system(rng: random.Random, max_nm: int = 6, max_p: int = 2,
                  max_q: int = 2, lo: int = -2, hi: int = 2) -> SystemSextuple:
    n = rng.randint(0, 4)
    m = rng.randint(0, min(3, max_nm - n))
    p = rng.randint(0, max_p)
    q = rng.randint(0, max_q)

    def block(r, c):
        return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]

    return SystemSextuple.from_lists(
        A=block(n, n),
        B=block(n, m) if m else None,
        C=block(p, n),
        D=block(p, m) if m else None,
        E=block(q, n),
        F=block(q, m) if m else None,
        m=m)


def random_qmatrix(rng: random.Random, rows: int, cols: int,
                   lo: int = -5, hi: int = 5) -> QMatrix:
    return QMatrix.from_rows([[Fraction(rng.randint(lo, hi),
                                        rng.choice([1, 1, 2, 3]))
                               for _ in range(cols)] for _ in range(rows)],
                             cols=cols)


def random_poly(rng: random.Random, max_degree: int = 3,
                lo: int = -3, hi: int = 3) -> Poly:
    deg = rng.randint(0, max_degree)
    return Poly([rng.randint(lo, hi) for _ in range(deg + 1)])


def random_polymatrix(rng: random.Random, rows: int, cols: int,
                      max_degree: int = 2) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[random_poly(rng, max_degree) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


# -- independent oracles ----------------------------------------------------------

def ref_rank(rows: list[list[Fraction]]) -> int:
    """Forward Gaussian elimination, structurally unlike the library RREF."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r0 = 0
    for c in range(ncols):
        if r0 == nrows:
            break
        piv = next((i for i in range(r0, nrows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r0], mat[piv] = mat[piv], mat[r0]
        for i in range(r0 + 1, nrows):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[r0][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r0])]
        r0 += 1
    return r0


def ref_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan over Fraction: the pivot row is normalised to 1, then
    cleared from every other row."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_qmatmul(A: QMatrix, B: QMatrix) -> QMatrix:
    """Product with a running ``Fraction`` sum per term."""
    cols = [B.column(j) for j in range(B.cols)]
    return QMatrix(A.rows, B.cols,
                   tuple(tuple(sum((a * b for a, b in zip(row, col)), Fraction(0))
                               for col in cols)
                         for row in A.data))


def ref_polymatmul(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """Product with one ``Poly`` product and one ``Poly`` sum per term."""
    data = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = Poly()
            for k in range(A.cols):
                a, b = A.data[i][k], B.data[k][j]
                if not (a.is_zero() or b.is_zero()):
                    acc = acc + a * b
            row.append(acc)
        data.append(tuple(row))
    return PolyMatrix(A.rows, B.cols, tuple(data))


def ref_row_op_sub(mat: list[list[Poly]], i: int, t: int, q: Poly) -> None:
    """Row i -= q * row t, building q * y and then subtracting it."""
    mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]


def ref_col_op_sub(mat: list[list[Poly]], j: int, t: int, q: Poly) -> None:
    """Column j -= q * column t, building q * y and then subtracting it."""
    for row in mat:
        row[j] = row[j] - q * row[t]


def ref_first_escape(V: Subspace, M: QMatrix):
    """First basis column of V whose image under M is nonzero, by a full
    matrix product per column; None when every column is annihilated."""
    for vec in V.basis.columns():
        if not ref_qmatmul(M, QMatrix.column_vector(vec)).is_zero():
            return vec
    return None


def ref_rank_q(M: QMatrix) -> int:
    return ref_rank(M.to_lists())


def ref_controllable(sys: SystemSextuple) -> bool:
    """Rank n of the Krylov matrix [B AB ... A^(n-1) B]."""
    blocks, power = [], QMatrix.identity(sys.n)
    for _ in range(sys.n):
        blocks.append(ref_qmatmul(power, sys.B))
        power = ref_qmatmul(sys.A, power)
    return sys.n == 0 or ref_rank_q(QMatrix.hstack(blocks)) == sys.n


def ref_normal_rank(M: PolyMatrix) -> int:
    """Normal rank as the largest rank of M at min(rows, cols) * maxdeg + 1
    integer points.

    Exact: a nonzero r x r minor has degree at most r * maxdeg, so it cannot
    vanish at all of these points, and no evaluation exceeds the normal rank.
    """
    maxdeg = max((e.degree for row in M.data for e in row), default=0)
    npoints = min(M.rows, M.cols) * max(maxdeg, 0) + 1
    return max(ref_rank_q(M.evaluate(s0)) for s0 in range(npoints))


def cofactor_det(M: PolyMatrix) -> Poly:
    """Recursive cofactor expansion; only for small matrices."""
    n = M.rows
    if n != M.cols:
        raise ValueError("square only")
    if n == 0:
        return Poly([1])
    if n == 1:
        return M[0, 0]
    acc = Poly()
    for j in range(n):
        entry = M[0, j]
        if entry.is_zero():
            continue
        minor = PolyMatrix.from_rows(
            [[M[i, k] for k in range(n) if k != j] for i in range(1, n)],
            cols=n - 1)
        term = entry * cofactor_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def numeric_roots(p: Poly) -> np.ndarray:
    return np.roots([float(c) for c in reversed(p.coeffs)])


def pbh_unobservable(sys: SystemSextuple, lam: Fraction) -> bool:
    """Rank test of [lam I - A; C] below n at a rational candidate."""
    n = sys.n
    rows = [[(lam if i == j else Fraction(0)) - sys.A[i, j] for j in range(n)]
            for i in range(n)]
    rows += [[sys.C[i, j] for j in range(n)] for i in range(sys.p)]
    return ref_rank(rows) < n


class RefPoly:
    """Polynomial on a tuple of Fraction coefficients, ascending: the
    arithmetic that ``Poly`` replaces with integer numerators."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return RefPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    def scale(self, c):
        c = as_fraction(c)
        return RefPoly([c * x for x in self.coeffs])

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return RefPoly(), self
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        ddeg = other.degree
        qcoeffs = [Fraction(0)] * (self.degree - ddeg + 1)
        for k in range(self.degree - ddeg, -1, -1):
            c = rem[k + ddeg] / dlead
            qcoeffs[k] = c
            for i, dc in enumerate(other.coeffs):
                rem[k + i] -= c * dc
        return RefPoly(qcoeffs), RefPoly(rem)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def ref_poly_gcd(a: RefPoly, b: RefPoly) -> RefPoly:
    """Monic Euclid on Fraction coefficients."""
    a, b = a.monic(), b.monic()
    while not b.is_zero():
        a, b = b, divmod(a, b)[1].monic()
    return a.monic()


def ref_poly_lcm(a: RefPoly, b: RefPoly) -> RefPoly:
    if a.is_zero() or b.is_zero():
        return RefPoly()
    q, r = divmod(a * b, ref_poly_gcd(a, b))
    assert r.is_zero()
    return q.monic()


def ref_input(signal, t: float, m: int) -> np.ndarray:
    """u(t) of an InputSignal at one time, evaluated channel by channel."""
    if signal.kind == "zero":
        return np.zeros(m)
    if signal.kind == "constant":
        return np.asarray(signal.value, dtype=float)
    if signal.kind == "polynomial":
        out = []
        for chan in signal.coefficients:
            acc = 0.0
            for a in reversed(chan):
                acc = acc * t + a
            out.append(acc)
        return np.array(out)
    if signal.kind == "sinusoids":
        return np.array([sum(a * math.sin(w * t + ph) for a, w, ph in chan)
                         for chan in signal.terms])
    if signal.kind == "table":
        vals = np.asarray(signal.values, dtype=float)
        return np.array([np.interp(t, signal.times, vals[:, i])
                         for i in range(vals.shape[1])])
    raise ValueError(f"unknown input kind {signal.kind!r}")


def ref_rk4(A: np.ndarray, B: np.ndarray, u_of, w0, h: float, nsteps: int) -> np.ndarray:
    """States at 0, h, ..., nsteps h of w' = A w + B u(t) by classical RK4,
    the four stages evaluated at every step."""
    def deriv(t: float, w: np.ndarray) -> np.ndarray:
        return A @ w + B @ u_of(t)

    w = np.asarray(w0, dtype=float)
    states = [w]
    for k in range(nsteps):
        t = k * h
        k1 = deriv(t, w)
        k2 = deriv(t + h / 2, w + (h / 2) * k1)
        k3 = deriv(t + h / 2, w + (h / 2) * k2)
        k4 = deriv(t + h, w + h * k3)
        w = w + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(w)
    return np.array(states)
