"""The weakly unobservable subspace V* and what is read off it.

Every rank and zero condition of the decisions is read off ``vstar``: the
largest subspace V* from which some input holds Cx + Du at zero (Morse,
SIAM J. Control 11, 1973; Trentelman, Stoorvogel & Hautus, Control Theory
for Linear Systems, 2001, ch. 7-8).  A call takes one matrix, the plant's
constant system matrix S = [A B; C D] (states first), and n: the module
works on matrices, and ``decide.PlantForms`` reads the plant.  P =
[sI - A, -B; C, D] has normal rank n + rank [Y*B; D] (V* = Ker Y*), and
its zeros are those of A + BF on V*/R*, F a friend of V* and R* the span
of A + BF on B Ker [Y*B; D].  P_e = [P; E F] is the same call on S with
[E F] below it, grown from Y*.  With no input, S = [A; C] and V* is the
unobservable subspace of (A, C).  The call keeps one fraction-free
integer echelon across its steps, so each row is eliminated once, and
returns it reduced (``VStar``): its rows at state pivots are Y*'s
canonical integer rows, the ``Subspace`` that seeds a later call.

``rank_and_zeros`` runs on integers from V*'s echelon to the zero
polynomial.  The bases of V* and Ker [Y*B; D] are integer columns, the
canonical kernel vectors times the lcm L of the pivots of their rows'
primitive integer multiples; with s clearing the denominators of
A + BF, the restriction to V* is the integer matrix sL A_V, and its
transpose, read off the image, goes with its scale sL to Berkowitz's
recurrence (``polymat.berkowitz``).  R*'s annihilator is the unobservable
subspace of (A_V^T, G^T), and R*'s zeros are A_V^T's on it: one more
``vstar`` call, on [A_V^T; G^T], so ``vstar`` is the module's one
fixed-point loop.  Every kernel basis here is
``exactlin._integer_kernel``'s.

The decision surface for the properness side of observer existence is
``strong_star_inclusion``, on S and [E F]: every finite input chain whose
trajectory stays inside Ker [C D] must keep the target rows [E F] silent
as well.  The chain's state is a pair (x, u) in Q^(n+m).  The states such
chains reach form the strongly reachable subspace T*, the limit of

    T_0 = 0,    T_{k+1} = [A B] ((T_k + Q^m)  ^  Ker [C D]),

and T* is the annihilator of the V* of the dual plant, whose system
matrix is S^T (ibid., ch. 8): its canonical rows are that ``vstar`` call's
rows, and the call's step count is the first k with T_{k+1} = T_k.  The
reachable pairs are (T* + Q^m) ^ Ker [C D], and the verdict is "reachable
pairs contained in Ker [E F]", all on integer rows: the only Fraction
made is a violating pair's.  That matches the block-Toeplitz kernel
inclusions of the markov module for every order, and it is what separates
a merely stable estimate from a causally realizable one.  The certificate
keeps only what decides the verdict and re-checks it: the reachable
pairs, T*'s step count and, on failure, a reachable pair that [E F] does
not annihilate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .exactlin import (IntegerMatrix, Subspace, _echelon_add, _integer_kernel, _primitive,
                       _reduce, _scaled, first_escape, kernel_basis)
from .polymat import POLY_ONE, Poly, berkowitz


class VStar(NamedTuple):
    """V* = Ker Y* as ``vstar`` grows it: the reduced fraction-free
    echelon of [Y*B, Y*A; D, C] (inputs first), {pivot column: canonical
    integer row}, the step count (at index 1, which a benchmark tracer
    reads) and the input and state counts.  The rows that pivot in a state
    column are zero in the input columns and give Y*'s ``rows``; those
    that pivot in an input column read u_p + (free inputs) + f x = 0, so
    they give a friend F (m x n, u_p = -f x), with (A + BF) V* in V* and
    (C + DF) V* = 0, and the rows of [Y*B; D]."""
    echelon: dict[int, list[int]]
    steps: int
    m: int
    n: int

    @property
    def rows(self) -> Subspace:
        """Y*'s integer ``Subspace``, the seed of a later ``vstar`` call."""
        m = self.m
        return Subspace(self.n, [r[m:] for p, r in sorted(self.echelon.items()) if p >= m])


def vstar(S: IntegerMatrix, n: int, seed: Subspace | None = None) -> VStar:
    """V* of the plant with n states whose system matrix is S = [A B; C D],
    m = S.cols - n.  S may have no input columns: V* of S = [A; C] is the
    unobservable subspace of (A, C).  The dual plant's matrix is S^T.

    Y_{k+1} are the rows of the RREF of [Y_k B, Y_k A; D, C] (inputs
    first) that pivot in a state column, from Y_0 = ``seed`` (the ``rows``
    of a call whose V* holds this one's, as P's does P_e's) or none.  One
    fraction-free echelon, kept across the steps, holds integer multiples
    of those RREF rows.  Y and its pivots only grow, and no kept row is
    rewritten, so a step hands it only the products [y B, y A] of the rows
    at new pivots.  A positive factor of a row leaves that echelon as it
    is, so every row is taken over S's one denominator.  The echelon is
    reduced only when the loop ends: a row echelon has the RREF's pivot
    columns, and with the inputs first its rows at state pivots span Y at
    every step, so the RREF loop's steps are kept.
    """
    m = S.cols - n
    # the columns of [B A], and each later row of S as [D C]: inputs first
    cols = [*zip(*S.data[:n])]
    cols = cols[n:] + cols[:n]
    echelon: dict[int, list[int]] = {}
    for r in S.data[n:]:
        _echelon_add(echelon, r[n:] + r[:n])
    new = seed.ints if seed else ()
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
    _reduce(echelon)
    return VStar(echelon, step, m, n)


def _invariant(Y: list[list[int]], image: list[list[int]]) -> None:
    """Check that the columns of ``image`` lie in Ker Y."""
    if any(sum(map(mul, y, col)) for col in image for y in Y):
        raise AssertionError("subspace not invariant")


def rank_and_zeros(S: IntegerMatrix, n: int, v: VStar) -> tuple[int, Poly]:
    """Normal rank and zero polynomial of [sI - A, -B; C, D] from its V*.

    S has n states, and ``v`` must have n states and S.cols - n inputs.
    A and B are S's first n rows, over its one denominator, and no later
    row is read: with m = 0, S may be A alone, and the zeros are A's modes
    on ``v``.  Y*, the friend F and the rows of [Y*B; D] are read straight
    off ``v``'s echelon, and the bases N of V* = Ker Y* and K of
    Ker [Y*B; D] as integer columns scaled by their pivots' lcm.  On N,
    s(A + BF) (s clears every denominator) restricts to an integer
    multiple of A_V, checked as Y*(A + BF)N = 0, and B K to one of G,
    checked as Y*BK = 0.  R* = 0 when K = 0; else its annihilator is the
    unobservable subspace of (A_V^T, G^T), and A_V^T has A_V's
    characteristic polynomial on V*/R*.  Every step runs on integers, and
    the scale goes to ``berkowitz``."""
    m = S.cols - n
    if (v.n, v.m) != (n, m) or S.rows < n:
        raise ValueError("V* of a plant of another shape")
    held = [(r, p) for p, r in sorted(v.echelon.items()) if p < m]
    y = v.rows.ints
    if len(y) == n:
        return n + len(held), POLY_ONE
    # F's row p is -r[m:] / r[p], whose entries' denominators have the lcm
    # |r[p]| / gcd(r[p], r[m:]); df is the lcm of those over every row
    df = lcm(*(abs(r[p]) // gcd(r[p], *r[m:]) for r, p in held))
    s = S.den * df
    top = S.data[:n]
    AF = _scaled([row[:n] for row in top], df)
    for r, p in held:
        f = [-x * df // r[p] for x in r[m:]]
        for i, row in enumerate(top):
            c = row[n + p]
            if c:
                AF[i] = [x + c * g for x, g in zip(AF[i], f)]
    # N is L times the identity at the free columns, so s L A_V is AF N there
    N, free, L = _integer_kernel(y, n)
    image = [[sum(map(mul, row, col)) for row in AF] for col in N]
    _invariant(y, image)
    # s L A_V^T, whose characteristic polynomial is A_V's
    Mt = [[col[f] for f in free] for col in image]
    # every input held: [Y*B; D] has full column rank, so K = 0 and R* = 0;
    # the R* route below would end in the same polynomial, one call later
    if len(held) == m:
        return n + m, berkowitz(Mt, s * L)
    K = _integer_kernel([_primitive(r[:m]) for r, _ in held], m)[0]
    BK = [[sum(map(mul, row[n:], col)) for row in top] for col in K]
    _invariant(y, BK)
    # [A_V^T; G^T] over the scale s L: a positive factor of G's rows
    # leaves the unobservable subspace as it is; R has no input column
    R = IntegerMatrix(len(Mt) + len(BK), len(free),
                      Mt + [[col[f] for f in free] for col in BK], s * L)
    return n + len(held), rank_and_zeros(R, R.cols, vstar(R, R.cols))[1]


class InclusionCertificate(NamedTuple):
    """Verdict plus what re-checks it: recompute ``reachable`` from the
    fixed point T*, then check it lies in Ker [E F], or that [E F] does not
    annihilate ``violation``."""
    holds: bool
    reachable: Subspace
    reachable_steps: int
    violation: tuple[Fraction, ...] | None


def strong_star_inclusion(S: IntegerMatrix, EF: IntegerMatrix, n: int) -> InclusionCertificate:
    """Decide the properness inclusion between measured and target chains.

    Holds iff every pair reachable inside Ker [C D] by an input chain lies
    in Ker [E F]; on failure the certificate carries a reachable pair that
    the target rows can see.  S = [A B; C D] has n states: S^T is the dual
    plant's system matrix, and S's rows after the n-th are [C D].
    """
    dual = vstar(S.transpose(), n)
    # T* + 0 pivots in the state columns and 0 + Q^m, unit rows, in the
    # input columns: together they are canonical rows already
    d = S.cols
    tail = (0,) * (d - n)
    pairs = Subspace(d, [t + tail for t in dual.rows.ints]
                     + [[int(j == i) for j in range(d)] for i in range(n, d)])
    reach = pairs.intersect(kernel_basis(IntegerMatrix(S.rows - n, S.cols, S.data[n:], S.den)))
    violation = first_escape(reach, EF)
    return InclusionCertificate(holds=violation is None, reachable=reach,
                                reachable_steps=dual.steps, violation=violation)
