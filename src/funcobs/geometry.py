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

from .exactlin import (QMatrix, Subspace, _echelon_add, _integer_row, _kernel_columns,
                       first_escape, kernel_basis)
from .polymat import POLY_ONE, Poly, characteristic_polynomial
from .system import SystemSextuple


class VStar(NamedTuple):
    """V* = Ker Y* and what the last RREF gives: a friend F (m x n), with
    (A + BF) V* in V* and (C + DF) V* = 0, and the rows of [Y*B; D]."""
    rows: Subspace
    steps: int
    friend: QMatrix
    input_rows: Subspace


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
    BA = [b + a for b, a in zip(B.data, A.data)]
    den = lcm(*(x.denominator for row in BA for x in row))
    cols = [[row[j].numerator * (den // row[j].denominator) for row in BA] for j in range(m + n)]
    echelon: dict[int, list[int]] = {}
    for d, c in zip(D.data, C.data):
        _echelon_add(echelon, _integer_row(d + c))
    new = [_integer_row(y) for y in seed.rows] if seed is not None else []
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


def _kernel(K: Subspace) -> tuple[QMatrix, list[int]]:
    """A basis of Ker K as columns, read off K's canonical rows, and its
    free columns."""
    pivots = [next(j for j, x in enumerate(r) if x) for r in K.rows]
    columns, free = _kernel_columns(K.rows, pivots, K.ambient_dim)
    return QMatrix(K.ambient_dim, len(free), columns), free


def _restricted(Y: Subspace, free: list[int], image: QMatrix) -> QMatrix:
    """X with N X == image for N = ``_kernel(Y)``, checked as Y image == 0:
    X is image at the free columns, so image - N X is Y image at Y's pivots."""
    if not (QMatrix(Y.dim, Y.ambient_dim, Y.rows) @ image).is_zero():
        raise AssertionError("subspace not invariant")
    return QMatrix(len(free), image.cols, tuple(image.data[f] for f in free))


def unobservable(A: QMatrix, C: QMatrix, seed: Subspace | None = None) -> VStar:
    """The m = 0 V* of (A, C), its unobservable subspace, grown from
    ``seed`` (rows that annihilate it) when given."""
    return vstar(A, QMatrix.zeros(A.rows, 0), C, QMatrix.zeros(C.rows, 0), seed)


def unobservable_modes(A: QMatrix, v: VStar) -> Poly:
    """A's characteristic polynomial on the unobservable subspace ``v`` of
    (A, C): the zero polynomial of [sI - A; C]."""
    return rank_and_zeros(A, QMatrix.zeros(A.rows, 0), v)[1]


def rank_and_zeros(A: QMatrix, B: QMatrix, v: VStar) -> tuple[int, Poly]:
    """Normal rank and zero polynomial of [sI - A, -B; C, D] from its V*.
    N and L, bases of V* = Ker Y* and Ker [Y*B; D], are read off the rows
    of ``v``; on N, A + BF is A_V and B L is G, checked as Y*(A + BF)N = 0
    and Y*BL = 0.  R* = 0 when L = 0; else its annihilator is the
    unobservable subspace of (A_V^T, G^T), where A_V^T has A_V's
    characteristic polynomial on V*/R*."""
    n, m, Y, U = A.rows, B.cols, v.rows, v.input_rows
    if (Y.ambient_dim, U.ambient_dim) != (n, m):
        raise ValueError("V* of a plant of another shape")
    if Y.dim == n:
        return n + U.dim, POLY_ONE
    N, free = _kernel(Y)
    A_V = _restricted(Y, free, (A + B @ v.friend) @ N)
    if U.dim == m:
        return n + U.dim, characteristic_polynomial(A_V)
    G = _restricted(Y, free, B @ _kernel(U)[0])
    A_T = A_V.transpose()
    return n + U.dim, unobservable_modes(A_T, unobservable(A_T, G.transpose()))


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
