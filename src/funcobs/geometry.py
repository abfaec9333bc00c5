"""The weakly unobservable subspace V* and what is read off it.

Every rank and zero condition of the decisions is read off ``vstar``: the
largest subspace V* from which some input holds Cx + Du at zero (Morse,
SIAM J. Control 11, 1973; Trentelman, Stoorvogel & Hautus, Control Theory
for Linear Systems, 2001, ch. 7-8).  P = [sI - A, -B; C, D] has normal
rank n + rank [Y*B; D] (V* = Ker Y*), and its zeros are those of A + BF on
V*/R*, F a friend of V* and R* the span of A + BF on B Ker [Y*B; D].
P_e = [P; E F] is the same call on [C; E] and [D; F], grown from Y*.
With m = 0, V* is the unobservable subspace of (A, C).  The call keeps
one fraction-free integer echelon across its steps, so each row of the
stack is eliminated once.

``rank_and_zeros`` runs on integers from V*'s rows to the zero
polynomial.  The bases of V* and Ker [Y*B; D] are integer columns, the
canonical kernel vectors times the lcm L of the pivots of their rows'
primitive integer multiples; with s the lcm of the denominators of
A + BF, the restriction to V* is the integer matrix sL A_V, and it goes
with its scale sL to Berkowitz's recurrence (``polymat.berkowitz``).
R*'s annihilator, the unobservable subspace of (A_V^T, G^T), is grown by
``vstar``'s integer loop on that matrix's transpose, and its zeros are
read off the same way with the scale carried.

The decision surface for the properness side of observer existence is
``strong_star_inclusion``: every finite input chain whose trajectory stays
inside Ker [C D] must keep the target rows [E F] silent as well.  The
chain's state is a pair (x, u) in Q^(n+m).  The states such chains reach
form the strongly reachable subspace T*, the limit of

    T_0 = 0,    T_{k+1} = [A B] ((T_k + Q^m)  ^  Ker [C D]),

and T* is the annihilator of the V* of the dual plant (A^T, C^T, B^T,
D^T) (ibid., ch. 8): its canonical rows are that ``vstar`` call's rows, and
the call's step count is the first k with T_{k+1} = T_k.  The reachable
pairs are (T* + Q^m) ^ Ker [C D], and the verdict is "reachable pairs
contained in Ker [E F]".  That matches the block-Toeplitz kernel
inclusions of the markov module for every order, and it is what separates
a merely stable estimate from a causally realizable one.  The certificate
keeps only what decides the verdict and re-checks it: the reachable
pairs, T*'s step count and, on failure, a reachable pair that [E F] does
not annihilate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .exactlin import (QMatrix, Subspace, _echelon_add, _integer_matrix, _integer_row,
                       first_escape, kernel_basis)
from .polymat import POLY_ONE, Poly, berkowitz
from .system import SystemSextuple


class VStar(NamedTuple):
    """V* = Ker Y* and what the last RREF gives: a friend F (m x n), with
    (A + BF) V* in V* and (C + DF) V* = 0, and the rows of [Y*B; D]."""
    rows: Subspace
    steps: int
    friend: QMatrix
    input_rows: Subspace


def _grow(cols: list[list[int]], m: int, rows: list[list[int]],
          seed: list[list[int]]) -> tuple[dict[int, list[int]], int]:
    """``vstar``'s loop on integers: the echelon of [D C]'s ``rows`` grown
    by the products [y B, y A] (``cols`` are [B A]'s columns over one
    denominator), from the rows y of ``seed``, and the step count."""
    n = len(cols) - m
    echelon: dict[int, list[int]] = {}
    for r in rows:
        _echelon_add(echelon, r)
    new = seed
    seen = {m + next(j for j, x in enumerate(y) if x) for y in new}
    # Y gains a row at every step but the last, and has n at most
    for step in range(n + 1):
        for y in new:
            _echelon_add(echelon, [sum(map(mul, y, col)) for col in cols])
        state = [p for p in echelon if p >= m]
        if len(state) == len(seen):
            break
        new = [echelon[p][m:] for p in state if p not in seen]
        seen.update(state)
    return echelon, step


def vstar(A: QMatrix, B: QMatrix, C: QMatrix, D: QMatrix,
          seed: Subspace | None = None) -> VStar:
    """V*(A, B, C, D) = Ker Y*: Y_{k+1} are the rows of the RREF of
    [Y_k B, Y_k A; D, C] (inputs first) that pivot in a state column, from
    Y_0 = ``seed`` (rows that annihilate V*, as P's do for P_e's) or none.

    One fraction-free echelon, kept across the steps, holds integer
    multiples of those RREF rows.  Y and its pivots only grow, so a step
    hands it only the products [y B, y A] of the rows at new pivots.
    """
    n, m = A.rows, B.cols
    BA, _ = _integer_matrix([b + a for b, a in zip(B.data, A.data)])
    echelon, step = _grow([[row[j] for row in BA] for j in range(m + n)], m,
                          [_integer_row(d + c) for d, c in zip(D.data, C.data)],
                          [_integer_row(y) for y in seed.rows] if seed is not None else [])
    # an input-pivot row reads u_j + (free inputs) + f x = 0: take u_j = -f x
    pivots = sorted(echelon)
    held = [(echelon[p], p) for p in pivots if p < m]
    friend = [(Fraction(0),) * n] * m
    for r, p in held:
        friend[p] = tuple(Fraction(-x, r[p]) for x in r[m:])
    return VStar(Subspace(n, tuple(tuple(Fraction(x, echelon[p][p]) for x in echelon[p][m:])
                                   for p in pivots if p >= m)),
                 step, QMatrix(m, n, tuple(friend)),
                 Subspace(m, tuple(tuple(Fraction(x, r[p]) for x in r[:m]) for r, p in held)))


def unobservable(A: QMatrix, C: QMatrix, seed: Subspace | None = None) -> VStar:
    """The m = 0 V* of (A, C), its unobservable subspace, grown from
    ``seed`` (rows that annihilate it) when given."""
    return vstar(A, QMatrix.zeros(A.rows, 0), C, QMatrix.zeros(C.rows, 0), seed)


def unobservable_modes(A: QMatrix, v: VStar) -> Poly:
    """A's characteristic polynomial on the unobservable subspace ``v`` of
    (A, C): the zero polynomial of [sI - A; C]."""
    return rank_and_zeros(A, QMatrix.zeros(A.rows, 0), v)[1]


def _integer_kernel(Y: list[list[int]], d: int) -> tuple[list[list[int]], list[int], int]:
    """An integer basis of Ker Y, as columns, its free columns and its
    scale L, the lcm of the pivots of Y's rows y_i (integer rows zero at
    each other's pivots p_i): column f has L at f and -y_i[f] L / y_i[p_i]
    at p_i, L times the canonical kernel vector."""
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


def _invariant(Y: list[list[int]], image: list[list[int]]) -> None:
    """Check that the columns of ``image`` lie in Ker Y."""
    if any(sum(map(mul, y, col)) for col in image for y in Y):
        raise AssertionError("subspace not invariant")


def _restriction(A: list[list[int]],
                 Y: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """A's restriction to Ker Y on integers: with N the integer basis of
    Ker Y and L its scale, A N = N (L A_V), checked as Y A N = 0, and N
    is L times the identity at the free columns, so L A_V is A N there.
    Returns L A_V, the free columns and L."""
    N, free, L = _integer_kernel(Y, len(A))
    image = [[sum(map(mul, row, col)) for row in A] for col in N]
    _invariant(Y, image)
    return [[col[f] for col in image] for f in free], free, L


def rank_and_zeros(A: QMatrix, B: QMatrix, v: VStar) -> tuple[int, Poly]:
    """Normal rank and zero polynomial of [sI - A, -B; C, D] from its V*.

    Y* and the rows of [Y*B; D] are read from ``v`` as primitive integer
    rows, and the bases N of V* = Ker Y* and K of Ker [Y*B; D] as integer
    columns scaled by their pivots' lcm.  On N, s(A + BF) (s clears every
    denominator) restricts to an integer multiple of A_V, checked as
    Y*(A + BF)N = 0, and B K to one of G, checked as Y*BK = 0.  R* = 0
    when K = 0; else its annihilator is the unobservable subspace of
    (A_V^T, G^T), where A_V^T has A_V's characteristic polynomial on
    V*/R*.  Every step runs on integers, and the scale goes to
    ``berkowitz``."""
    n, m, Y, U = A.rows, B.cols, v.rows, v.input_rows
    if (Y.ambient_dim, U.ambient_dim) != (n, m):
        raise ValueError("V* of a plant of another shape")
    if Y.dim == n:
        return n + U.dim, POLY_ONE
    y = [_integer_row(r) for r in Y.rows]
    Ai, da = _integer_matrix(A.data)
    Bi, db = _integer_matrix(B.data)
    Fi, df = _integer_matrix(v.friend.data)
    s = lcm(da, db * df)
    a, b = s // da, s // (db * df)
    fcols = list(zip(*Fi))
    AF = [[a * x + b * sum(map(mul, brow, fcol)) for x, fcol in zip(arow, fcols)]
          for arow, brow in zip(Ai, Bi)] if m else [[a * x for x in row] for row in Ai]
    M, free, L = _restriction(AF, y)
    if U.dim == m:
        return n + U.dim, berkowitz(M, s * L)
    K = _integer_kernel([_integer_row(r) for r in U.rows], m)[0]
    BK = [[sum(map(mul, row, col)) for row in Bi] for col in K]
    _invariant(y, BK)
    return n + U.dim, _unobserved_zeros(M, s * L, [[col[f] for f in free] for col in BK])


def _unobserved_zeros(M: list[list[int]], d: int, C: list[list[int]]) -> Poly:
    """The characteristic polynomial of (M/d)^T on the unobservable
    subspace of ((M/d)^T, C), on integers: ``vstar``'s loop with m = 0
    (the columns of M^T are M's rows), and the restriction to its kernel
    with the scale carried."""
    echelon, _ = _grow(M, 0, C, [])
    if len(echelon) == len(M):
        return POLY_ONE
    R, _, L = _restriction([list(row) for row in zip(*M)], [echelon[p] for p in sorted(echelon)])
    return berkowitz(R, d * L)


@dataclass(frozen=True)
class InclusionCertificate:
    """Verdict plus what re-checks it: recompute ``reachable`` from the
    fixed point T*, then check it lies in Ker [E F], or that [E F] does not
    annihilate ``violation``."""
    holds: bool
    reachable: Subspace
    reachable_steps: int
    violation: tuple[Fraction, ...] | None


def strong_star_inclusion(sys: SystemSextuple) -> InclusionCertificate:
    """Decide the properness inclusion between measured and target chains.

    Holds iff every pair reachable inside Ker [C D] by an input chain lies
    in Ker [E F]; on failure the certificate carries a reachable pair that
    the target rows can see.
    """
    n, d = sys.n, sys.n + sys.m
    dual = vstar(sys.A.transpose(), sys.C.transpose(), sys.B.transpose(), sys.D.transpose())
    # T* + 0 pivots in the state columns and 0 + Q^m, unit rows, in the
    # input columns: together they are canonical rows already
    tail = (Fraction(0),) * sys.m
    pairs = Subspace(d, tuple(t + tail for t in dual.rows.rows) + QMatrix.identity(d).data[n:])
    reach = pairs.intersect(kernel_basis(QMatrix.hstack([sys.C, sys.D])))
    violation = first_escape(reach, QMatrix.hstack([sys.E, sys.F]))
    return InclusionCertificate(holds=violation is None, reachable=reach,
                                reachable_steps=dual.steps, violation=violation)
