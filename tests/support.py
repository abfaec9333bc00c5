"""Shared fixtures: golden systems, random generators, independent oracles.

The oracles here deliberately avoid the library's own elimination code:
ranks come from a plain forward Gaussian elimination, the canonical RREF
from Gauss-Jordan over Fraction, intersections from Zassenhaus on that
RREF, polynomial arithmetic from Fraction coefficient lists, normal
ranks from ranks at enough integer points,
determinants from cofactor expansion and from Bareiss elimination,
characteristic polynomials from a Hessenberg reduction over Fraction,
controllability from the Krylov matrix, kernel-inclusion witnesses from a matrix product per basis
column, system pencils and Darouach's pencil from constant blocks and one
coerced ``Poly`` per entry, the normal ranks and zeros of P, P_e and
Darouach's pencil from Smith forms of those block-assembled pencils
(``ref_rank_and_zero_polynomial``), where the library reads them off V*
and builds no pencil, the canonical witness from
the Smith form of P for every plant and, for a square P, from n + 1
integer solves and a Lagrange interpolation (``ref_unique_solution``),
the residual of a witness from a ``PolyMatrix`` product over each row's
denominator lcm (``ref_residual_is_zero``), V* from its textbook
recursion on Gauss-Jordan kernels and from ``vstar``'s loop re-run over
the whole stack at every step, subspace inclusion from the rank of
stacked rows,
matrix products and Smith row/column operations term by term
(one sum of ``Fraction`` or ``Poly`` values per term), root locations
from numpy's companion-matrix solver,
trajectories from a stage-by-stage RK4 loop fed by scalar input
evaluation, the affine RK4 recurrence from one matrix-vector product per
step, trajectory CSV rows formatted value by value, the fading scenario's
document from its table built as tuples of Python floats, and any
scenario's document field by field (``scenario_document``).  It also holds
conveniences the library does not need: V*'s friend and the
rows of [Y*B; D] read off ``VStar.echelon``, subspace bases as columns,
transposes, sums and negations of ``QMatrix``, and polynomial values by
``RefPoly``'s Horner rule.
"""

from __future__ import annotations

import csv
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from funcobs.exactlin import QMatrix, Subspace, _common_den, adjugate_solve, as_fraction, \
    kernel_basis
from funcobs.polymat import Poly, PolyMatrix, smith_form
from funcobs.system import SystemSextuple
from funcobs.witness import (RationalFunction, RationalFunctionMatrix, WitnessReport, classify,
                             denominator_lcm)


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


# -- small constructors the library does not need ------------------------------

def known_input_reduction(sys: SystemSextuple) -> SystemSextuple:
    """The plant with its input channels dropped (B, D, F zero-width)."""
    return SystemSextuple(sys.A, QMatrix.zeros(sys.n, 0), sys.C, QMatrix.zeros(sys.p, 0),
                          sys.E, QMatrix.zeros(sys.q, 0))


def zero_subspace(d: int) -> Subspace:
    return Subspace(d, ())


def full_subspace(d: int) -> Subspace:
    return Subspace(d, QMatrix.identity(d).data)


def contains(V: Subspace, vector) -> bool:
    """Whether V holds the vector: appending it keeps the rank."""
    v = tuple(as_fraction(x) for x in vector)
    return ref_rank([list(r) for r in V.rows + (v,)]) == V.dim


def is_subspace_of(V: Subspace, W: Subspace) -> bool:
    """V inside W: stacking V's rows under W's adds no rank."""
    if V.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return V.dim == 0 or ref_rank([list(r) for r in W.rows + V.rows]) == W.dim


def columns(M: QMatrix) -> list[tuple[Fraction, ...]]:
    return [M.column(j) for j in range(M.cols)]


def transpose(M: QMatrix) -> QMatrix:
    return QMatrix(M.cols, M.rows, tuple(M.column(j) for j in range(M.cols)))


def basis(V: Subspace) -> QMatrix:
    """V's canonical rows as the columns of a matrix."""
    return transpose(QMatrix(V.dim, V.ambient_dim, V.rows))


def is_zero(M: QMatrix) -> bool:
    return all(x == 0 for row in M.data for x in row)


def ref_add(A: QMatrix, B: QMatrix) -> QMatrix:
    """Entrywise sum, one ``Fraction`` sum per entry."""
    if A.shape != B.shape:
        raise ValueError("shape mismatch in addition")
    return QMatrix(A.rows, A.cols, tuple(tuple(a + b for a, b in zip(ra, rb))
                                         for ra, rb in zip(A.data, B.data)))


def ref_neg(M: QMatrix) -> QMatrix:
    return QMatrix(M.rows, M.cols, tuple(tuple(-x for x in row) for row in M.data))


def column_vector(entries) -> QMatrix:
    return QMatrix.from_rows([[x] for x in entries], cols=1)


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


@st.composite
def plants(draw, max_n: int, max_mpq: int, square: bool = False,
           rational: bool = False) -> SystemSextuple:
    """Hypothesis strategy: plants with n in 0..max_n, m, p and q in
    0..max_mpq, and integer entries in -2..2; with ``square``, p = m, and
    with ``rational``, entries in -2..2 over 1, 2 or 3."""
    n = draw(st.integers(0, max_n))
    m, p, q = (draw(st.integers(0, max_mpq)) for _ in range(3))
    if square:
        p = m
    entry = (st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
             if rational else st.integers(-2, 2))

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return SystemSextuple.from_lists(A=block(n, n), B=block(n, m), C=block(p, n),
                                     D=block(p, m), E=block(q, n), F=block(q, m), m=m)


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


def ref_intersect(V: Subspace, W: Subspace) -> Subspace:
    """V ^ W by Zassenhaus on the Gauss-Jordan oracle: the right halves
    of the reduced rows of [v v; w 0] that pivot in the right half."""
    d = V.ambient_dim
    rows, pivots = ref_rref([list(v) * 2 for v in V.rows]
                            + [list(w) + [Fraction(0)] * d for w in W.rows])
    return Subspace(d, tuple(tuple(r[d:]) for r, p in zip(rows, pivots) if p >= d))


def ref_kernel(d: int, rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Vectors spanning {x in Q^d : r . x = 0 for every row r}, one per free
    column of the Gauss-Jordan oracle."""
    reduced, pivots = ref_rref(rows)
    vectors = []
    for f in (c for c in range(d) if c not in pivots):
        v = [Fraction(0)] * d
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        vectors.append(v)
    return vectors


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


def ref_pencil(E0: QMatrix, A0: QMatrix) -> PolyMatrix:
    """The pencil s E0 - A0 with one coerced ``Poly([-a, e])`` per entry."""
    return PolyMatrix(A0.rows, A0.cols,
                      tuple(tuple(Poly([-a, e]) for e, a in zip(row_e, row_a))
                            for row_e, row_a in zip(E0.data, A0.data)))


def ref_build_system_matrices(sys: SystemSextuple) -> tuple[PolyMatrix, PolyMatrix]:
    """P = [sI-A, -B; C, D] and [E F] assembled from constant blocks."""
    n, m = sys.n, sys.m
    P = ref_pencil(QMatrix.from_blocks([[QMatrix.identity(n), QMatrix.zeros(n, m)],
                                        [QMatrix.zeros(sys.p, n + m)]]),
                   QMatrix.from_blocks([[sys.A, sys.B], [ref_neg(sys.C), ref_neg(sys.D)]]))
    EF = ref_pencil(QMatrix.zeros(sys.q, n + m), ref_neg(QMatrix.hstack([sys.E, sys.F])))
    return P, EF


def ref_darouach_pencil(sys: SystemSextuple) -> PolyMatrix:
    """Darouach's pencil [E(sI-A), -EB, 0; C, D, 0; CA, CB, D] assembled
    from constant blocks."""
    n, m, p, q = sys.n, sys.m, sys.p, sys.q
    ca, cb = ref_qmatmul(sys.C, sys.A), ref_qmatmul(sys.C, sys.B)
    ea, eb = ref_qmatmul(sys.E, sys.A), ref_qmatmul(sys.E, sys.B)
    zq_m, zp_m = QMatrix.zeros(q, m), QMatrix.zeros(p, m)
    return ref_pencil(QMatrix.from_blocks([[sys.E, zq_m, zq_m],
                                           [QMatrix.zeros(2 * p, n + 2 * m)]]),
                      QMatrix.from_blocks([[ea, eb, zq_m],
                                           [ref_neg(sys.C), ref_neg(sys.D), zp_m],
                                           [ref_neg(ca), ref_neg(cb), ref_neg(sys.D)]]))


def ref_row_op_sub(mat: list[list[Poly]], i: int, t: int, q: Poly) -> None:
    """Row i -= q * row t, building q * y and then subtracting it."""
    mat[i] = [x - q * y for x, y in zip(mat[i], mat[t])]


def ref_col_op_sub(mat: list[list[Poly]], j: int, t: int, q: Poly) -> None:
    """Column j -= q * column t, building q * y and then subtracting it."""
    for row in mat:
        row[j] = row[j] - q * row[t]


def ref_first_escape(V: Subspace, M: QMatrix):
    """First canonical basis vector of V whose image under M is nonzero, by
    a full matrix product per vector; None when every one is annihilated."""
    for vec in V.rows:
        if not is_zero(ref_qmatmul(M, column_vector(vec))):
            return vec
    return None


def ref_rank_q(M: QMatrix) -> int:
    return ref_rank([list(r) for r in M.data])


def ref_controllable(sys: SystemSextuple) -> bool:
    """Rank n of the Krylov matrix [B AB ... A^(n-1) B]."""
    blocks, power = [], QMatrix.identity(sys.n)
    for _ in range(sys.n):
        blocks.append(ref_qmatmul(power, sys.B))
        power = ref_qmatmul(sys.A, power)
    return sys.n == 0 or ref_rank_q(QMatrix.hstack(blocks)) == sys.n


def ref_reachable(sys: SystemSextuple) -> tuple[Subspace, int]:
    """The chain-reachable subspace on the extended system, with the step
    count of its state part T*.

    The input becomes m integrator states: A_e = [A B; 0 0],
    B_e = [0; I_m], C_e = [C D], and R_0 = Im B_e ^ Ker C_e,
    R_{j+1} = (A_e R_j + Im B_e) ^ Ker C_e, iterated to its fixed point.
    A_e R_j is T_{j+1} + 0, so T_{j+1} = [A B] ((T_j + Q^m) ^ Ker [C D])
    from T_0 = 0, and the count is the first k with T_{k+1} = T_k; R can
    stop one step before T does.
    """
    n, m = sys.n, sys.m
    A_e = QMatrix.from_blocks([[sys.A, sys.B], [QMatrix.zeros(m, n), QMatrix.zeros(m, m)]])
    B_e = QMatrix.vstack([QMatrix.zeros(n, m), QMatrix.identity(m)])
    K = kernel_basis(QMatrix.hstack([sys.C, sys.D]))
    im_b = Subspace.span(n + m, columns(B_e))
    current, reached = im_b.intersect(K), zero_subspace(n + m)
    for step in range(n + 1):
        pushed = Subspace.span(n + m, columns(ref_qmatmul(A_e, basis(current))))
        if pushed == reached:
            return current, step
        current, reached = pushed.sum(im_b).intersect(K), pushed
    raise AssertionError("reachability iteration failed to stabilise")


def ref_rank_and_zero_polynomial(M: PolyMatrix) -> tuple[int, Poly]:
    """Normal rank and zero polynomial of M from its Smith form: the
    number of invariant polynomials and their monic product."""
    invariants = smith_form(M).invariant_polys
    prod = Poly([1])
    for a in invariants:
        prod = prod * a
    return len(invariants), prod.monic()


def ref_zero_structure(sys: SystemSextuple) -> tuple[tuple[int, Poly], tuple[int, Poly]]:
    """Normal rank and zero polynomial of P and of P_e = [P; E F], each
    from a Smith form of the pencil assembled from constant blocks."""
    P, EF = ref_build_system_matrices(sys)
    return ref_rank_and_zero_polynomial(P), ref_rank_and_zero_polynomial(PolyMatrix.vstack([P, EF]))


def ref_witness(sys: SystemSextuple) -> WitnessReport:
    """The canonical solution of [M N] P = [E F] read off the Smith form
    U P V = S of P, for every plant: with W = [E F] V and r invariant
    polynomials d_j, unsolvable when a column j >= r of W is nonzero,
    else [M N] = W diag(d_r / d_j) U / d_r on the first r columns."""
    P, EF = ref_build_system_matrices(sys)
    dec = smith_form(P)
    d = dec.invariant_polys
    r = len(d)
    W = EF @ dec.V
    bad = next((j for j in range(r, W.cols)
                if not all(W[i, j].is_zero() for i in range(W.rows))), None)
    if bad is not None:
        return WitnessReport(False, None, None, None, None, None, P.rows - r, bad)
    L = d[-1] if r else Poly([1])
    Y = PolyMatrix.from_rows([[W[i, j] * L.exact_div(d[j]) if j < r else Poly()
                               for j in range(P.rows)] for i in range(W.rows)], cols=P.rows)
    MN = RationalFunctionMatrix.from_rows(
        [[RationalFunction(e, L) for e in row] for row in (Y @ dec.U).data], cols=P.rows)
    cls = classify(MN)
    return WitnessReport(True, MN, ref_residual_is_zero(MN, P, EF), cls.proper,
                         cls.pole_polynomial, cls.pole_report, P.rows - r, None)


def ref_residual_is_zero(MN: RationalFunctionMatrix, P: PolyMatrix, EF: PolyMatrix) -> bool:
    """Whether MN @ P == EF: row i of MN is brought onto the lcm l_i of its
    denominators, and its numerators must satisfy nums_i @ P == l_i EF_i
    as polynomials, by one ``PolyMatrix`` product per row."""
    if MN.shape != (EF.rows, P.rows) or EF.cols != P.cols:
        raise ValueError(f"residual shapes differ: {MN.shape} @ {P.shape} vs {EF.shape}")
    for row, target in zip(MN.data, EF.data):
        ell = denominator_lcm(row)
        nums = PolyMatrix(1, MN.cols, (tuple(e.num * ell.exact_div(e.den) for e in row),))
        if (nums @ P).data[0] != tuple(ell * x for x in target):
            return False
    return True


def ref_interpolate(xs: list[int], values: list[list[int]], dens: list[int]) -> list[Poly]:
    """For each k, the polynomial of degree < len(xs) that takes the value
    values[k][j] / dens[k] at the distinct integer xs[j].

    One integer Lagrange basis serves every polynomial: with
    w_j = prod_{i != j} (x_j - x_i) and D = lcm |w_j|, the basis
    polynomial l_j = (D / w_j) prod_{i != j} (s - x_i) has integer
    coefficients, and each polynomial is sum_j values[k][j] l_j over
    D dens[k].
    """
    node = [1]  # prod_i (s - x_i), ascending
    for x in xs:
        node = [a - x * b for a, b in zip([0, *node], [*node, 0])]
    basis = []
    for x in xs:
        q, acc = [0] * len(xs), 0  # node / (s - x), by synthetic division
        for t in range(len(xs), 0, -1):
            acc = node[t] + x * acc
            q[t - 1] = acc
        basis.append((q, math.prod(x - y for y in xs if y != x)))
    D = math.lcm(*(w for _, w in basis))
    cols = list(zip(*([D // w * c for c in q] for q, w in basis)))
    return [Poly([Fraction(sum(a * b for a, b in zip(v, col)), D * den) for col in cols])
            for v, den in zip(values, dens)]


def ref_unique_solution(sys: SystemSextuple) -> RationalFunctionMatrix | None:
    """[E F] P^-1 for a square P (p = m, n + m > 0) from integer solves at
    s = 0, 1, 2, ...; None when det P vanishes at n + 1 of them, hence
    identically.

    Row i of P and row k of [E F] are scaled by the lcms r_i and e_k of
    their denominators, so X' P' = [E F]' holds on integer rows and
    [M N] = X' with entry (k, i) times r_i / e_k.  One ``adjugate_solve``
    of [P'(s)^T | [E F]'^T] per point gives det P'(s) and det P'(s) X'(s),
    and both have degree <= n, since s enters P only on the n diagonal
    entries of sI - A: n + 1 points where det P'(s) != 0 interpolate them.
    """
    n, q = sys.n, sys.q
    rows = ([tuple(-x for x in a + b) for a, b in zip(sys.A.data, sys.B.data)]
            + [c + d for c, d in zip(sys.C.data, sys.D.data)])
    N = len(rows)
    scaled = [_common_den(row) for row in rows]
    targets = [_common_den(e + f) for e, f in zip(sys.E.data, sys.F.data)]
    r = [den for _, den in scaled]
    base = [list(col) for col in zip(*(ints for ints, _ in scaled + targets))]
    xs, dets, sols, s = [], [], [], 0
    while len(xs) <= n:
        if s - len(xs) > n:
            return None
        aug = [list(row) for row in base]
        for j in range(n):
            aug[j][j] += s * r[j]
        det, sol = adjugate_solve(aug)
        if det:
            xs.append(s)
            dets.append(det)
            sols.append(sol)
        s += 1
    det, *nums = ref_interpolate(
        xs, [dets] + [[sol[i][k] * r[i] for sol in sols] for k in range(q) for i in range(N)],
        [1] + [e for _, e in targets for _ in range(N)])
    return RationalFunctionMatrix(q, N, tuple(
        tuple(RationalFunction(num, det) for num in nums[k * N:(k + 1) * N])
        for k in range(q)))


def ref_vstar(sys: SystemSextuple) -> Subspace:
    """V*(A, B, C, D) by its textbook recursion: V_0 = Q^n and V_{k+1} the
    x-part of the kernel of [A B; C D] restricted to Ax + Bu in V_k, i.e.
    of [W A, W B; C, D] for W spanning the annihilator of V_k."""
    n, m = sys.n, sys.m
    V = full_subspace(n)
    for _ in range(n + 1):
        W = QMatrix.from_rows(ref_kernel(n, [list(r) for r in V.rows]), cols=n)
        rows = ([list(a) + list(b) for a, b in zip(ref_qmatmul(W, sys.A).data,
                                                    ref_qmatmul(W, sys.B).data)]
                + [list(c) + list(d) for c, d in zip(sys.C.data, sys.D.data)])
        nxt = Subspace.span(n, [v[:n] for v in ref_kernel(n + m, rows)])
        if nxt == V:
            return V
        V = nxt
    raise AssertionError("V* recursion failed to stabilise")


class RefVStar(NamedTuple):
    """What ``geometry.VStar`` reports, in Fractions."""
    rows: Subspace
    steps: int
    friend: QMatrix
    input_rows: Subspace


def vstar_friend(v) -> QMatrix:
    """A friend F of a ``geometry.VStar``, read off its echelon: a row r
    that pivots in input column p < m gives F's row p = -r[m:] / r[p],
    and every other row of F is zero."""
    m, n = v.m, v.n
    friend = [[Fraction(0)] * n for _ in range(m)]
    for p, r in v.echelon.items():
        if p < m:
            friend[p] = [Fraction(-x, r[p]) for x in r[m:]]
    return QMatrix.from_rows(friend, cols=n)


def vstar_input_rows(v) -> Subspace:
    """The canonical rows of [Y*B; D] of a ``geometry.VStar``: the input
    parts of its echelon's rows that pivot in an input column, over their
    pivots."""
    m = v.m
    return Subspace(m, tuple(tuple(Fraction(x, r[p]) for x in r[:m])
                             for p, r in sorted(v.echelon.items()) if p < m))


def vstar_fields(v) -> RefVStar:
    """A ``geometry.VStar``'s rows, steps, friend and input rows."""
    return RefVStar(v.rows, v.steps, vstar_friend(v), vstar_input_rows(v))


def ref_vstar_restacked(A: QMatrix, B: QMatrix, C: QMatrix, D: QMatrix,
                        seed: Subspace | None = None) -> RefVStar:
    """``geometry.vstar`` by its whole-stack loop: every step runs the
    Gauss-Jordan oracle over the whole stack [Y_k B, Y_k A; D, C] again,
    the rows kept from the step before included, and multiplies only the
    rows at new state pivots by [B A]."""
    n, m = A.rows, B.cols
    BA = [list(b) + list(a) for b, a in zip(B.data, A.data)]
    new = [list(y) for y in seed.rows] if seed is not None else []
    seen = {m + next(j for j, x in enumerate(y) if x) for y in new}
    rows = [list(d) + list(c) for d, c in zip(D.data, C.data)]
    for step in range(n + 1):
        rows, pivots = ref_rref(rows + [[sum((y[i] * BA[i][j] for i in range(n)), Fraction(0))
                                         for j in range(m + n)] for y in new])
        state = [(r, p) for r, p in zip(rows, pivots) if p >= m]
        if len(state) == len(seen):
            break
        new = [r[m:] for r, p in state if p not in seen]
        seen.update(p for _, p in state)
    held = list(zip(rows, pivots))[:len(pivots) - len(state)]
    friend = [[Fraction(0)] * n for _ in range(m)]
    for r, p in held:
        friend[p] = [-x for x in r[m:]]
    return RefVStar(Subspace(n, tuple(tuple(r[m:]) for r, _ in state)), step,
                    QMatrix.from_rows(friend, cols=n),
                    Subspace(m, tuple(tuple(r[:m]) for r, _ in held)))


def reanchor_plant(n: int) -> SystemSextuple:
    """The n-ladder plant of the benchmark's baseline, m = p = q = 2 and
    entries in -2..2, drawn as ``perfbench/plants.plant_lists`` draws it
    from ``random.Random(f"reanchor/{n}")``."""
    rng = random.Random(f"reanchor/{n}")
    blocks = {name: [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
              for name, rows, cols in (("A", n, n), ("B", n, 2), ("C", 2, n),
                                       ("D", 2, 2), ("E", 2, n), ("F", 2, 2))}
    return SystemSextuple.from_lists(**blocks, m=2)


def seeded_n6_lists(p: int = 2) -> dict:
    """A plant document with n = 6, m = q = 2, p outputs and entries in
    -2..2, drawn from ``random.Random(6)``; with p = 1 its zeros come
    through R*."""
    rng = random.Random(6)

    def block(rows, cols):
        return [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]

    return {"A": block(6, 6), "B": block(6, 2), "C": block(p, 6),
            "D": block(p, 2), "E": block(2, 6), "F": block(2, 2), "m": 2}


def _ref_unit_kernel(K: Subspace) -> tuple[QMatrix, list[int]]:
    """A basis of Ker K as columns, read off K's canonical rows k_i, and
    its free columns: column f has a unit at f and -k_i[f] at k_i's
    pivot."""
    d = K.ambient_dim
    at = {next(j for j, x in enumerate(k) if x): k for k in K.rows}
    free = [j for j in range(d) if j not in at]
    return QMatrix.from_rows([[-at[j][f] if j in at else Fraction(int(f == j)) for f in free]
                              for j in range(d)], cols=len(free)), free


def _ref_restricted(Y: Subspace, free: list[int], image: QMatrix) -> QMatrix:
    """X with N X == image for N the unit basis of Ker Y, checked as
    Y image == 0: X is image at the free columns."""
    if not is_zero(ref_qmatmul(QMatrix.from_rows(Y.rows, cols=Y.ambient_dim), image)):
        raise AssertionError("subspace not invariant")
    return QMatrix.from_rows([image.data[f] for f in free], cols=image.cols)


def ref_rank_and_zeros(A: QMatrix, B: QMatrix, v) -> tuple[int, Poly]:
    """``geometry.rank_and_zeros`` by Fraction matrix products: A_V is
    (A + BF) N and G is B L at N's free columns, for N and L the unit
    bases of Ker Y* and Ker [Y*B; D]; the zeros come from the Hessenberg
    oracle, through R* from the whole-stack V* of (A_V^T, G^T).  ``v`` is
    a ``geometry.VStar`` or a ``RefVStar``."""
    if not isinstance(v, RefVStar):
        v = vstar_fields(v)
    n, m, Y, U = A.rows, B.cols, v.rows, v.input_rows
    if Y.dim == n:
        return n + U.dim, Poly([1])
    N, free = _ref_unit_kernel(Y)
    A_V = _ref_restricted(Y, free, ref_qmatmul(ref_add(A, ref_qmatmul(B, v.friend)), N))
    if U.dim == m:
        return n + U.dim, ref_characteristic_polynomial(A_V)
    G = _ref_restricted(Y, free, ref_qmatmul(B, _ref_unit_kernel(U)[0]))
    A_T, none = transpose(A_V), QMatrix.zeros(len(free), 0)
    w = ref_vstar_restacked(A_T, none, transpose(G), QMatrix.zeros(G.cols, 0))
    return n + U.dim, ref_rank_and_zeros(A_T, none, w)[1]


def ref_normal_rank(M: PolyMatrix) -> int:
    """Normal rank as the largest rank of M at min(rows, cols) * maxdeg + 1
    integer points.

    Exact: a nonzero r x r minor has degree at most r * maxdeg, so it cannot
    vanish at all of these points, and no evaluation exceeds the normal rank.
    """
    maxdeg = max((e.degree for row in M.data for e in row), default=0)
    npoints = min(M.rows, M.cols) * max(maxdeg, 0) + 1
    return max(ref_rank_q(polymatrix_at(M, s0)) for s0 in range(npoints))


def poly_at(p: Poly, x):
    """p(x) by ``RefPoly``'s Horner evaluation on p's coefficients."""
    return RefPoly(p.coeffs).evaluate(x)


def polymatrix_at(M: PolyMatrix, s0) -> QMatrix:
    return QMatrix.from_rows([[poly_at(e, as_fraction(s0)) for e in row] for row in M.data],
                             cols=M.cols)


def rational_matrix_at(MN: RationalFunctionMatrix, x) -> list[list]:
    """The entries num(x) / den(x) of a rational matrix at x."""
    return [[poly_at(e.num, x) / poly_at(e.den, x) for e in row] for row in MN.data]


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


def ref_determinant(M: PolyMatrix) -> Poly:
    """Exact determinant via single-step fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return Poly([1])
    a = [list(row) for row in M.data]
    sign = 1
    prev = Poly([1])
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if piv is None:
            return Poly()
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
            a[i][k] = Poly()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def ref_characteristic_polynomial(A: QMatrix) -> Poly:
    """det(sI - A) by an exact similarity to upper Hessenberg form H over
    Fraction and the recurrence on the leading minors of sI - H (Cohen, A
    Course in Computational Algebraic Number Theory, Algorithm 2.2.9)."""
    n = A.rows
    H = [list(row) for row in A.data]
    for r in range(1, n - 1):
        i = next((i for i in range(r, n) if H[i][r - 1]), r)
        H[i], H[r] = H[r], H[i]
        for row in H:
            row[i], row[r] = row[r], row[i]
        for i in range(r + 1, n):
            if H[i][r - 1]:  # row i -= u row r, then column r += u column i
                u = H[i][r - 1] / H[r][r - 1]
                H[i] = [x - u * y for x, y in zip(H[i], H[r])]
                for row in H:
                    row[r] += u * row[i]
    p = [Poly([1])]  # p[k] = det(sI - H[:k, :k]), expanded along column k - 1
    for k in range(n):
        pk, t = Poly([-H[k][k], 1]) * p[k], Fraction(1)
        for i in range(k - 1, -1, -1):
            t *= H[i + 1][i]
            pk = pk - p[i].scale(t * H[i][k])
        p.append(pk)
    return p[n]


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


def ref_recurrence(T: np.ndarray, w: np.ndarray) -> None:
    """w[k + 1] += T w[k] for k = 0, ..., len(w) - 2, in place: one
    matrix-vector product per step."""
    for k in range(len(w) - 1):
        w[k + 1] += T @ w[k]


def ref_write_csv(traj, path) -> None:
    """Trajectory CSV with every row built list by list from repr of each
    float; the header is the one ``sim.write_csv`` documents."""
    n, nu, q = traj.x.shape[1], traj.xi.shape[1], traj.z.shape[1]
    header = (["t"] + [f"x_{i+1}" for i in range(n)] + [f"xi_{i+1}" for i in range(nu)]
              + [f"z_{i+1}" for i in range(q)] + [f"zhat_{i+1}" for i in range(q)]
              + [f"e_{i+1}" for i in range(q)])
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(len(traj.t)):
            row = ([repr(float(traj.t[k]))]
                   + [repr(float(v)) for v in traj.x[k]]
                   + [repr(float(v)) for v in traj.xi[k]]
                   + [repr(float(v)) for v in traj.z[k]]
                   + [repr(float(v)) for v in traj.zhat[k]]
                   + [repr(float(v)) for v in traj.e[k]])
            writer.writerow(row)


def _nested_lists(x):
    if isinstance(x, np.ndarray):  # a table field
        return x.tolist()
    return [_nested_lists(v) for v in x] if isinstance(x, tuple) else x


def scenario_document(sc) -> dict:
    """The JSON document of a ``sim.Scenario``: the input holds its kind
    and every field ``INPUT_FIELDS`` names for that kind, as nested lists."""
    from funcobs.sim import INPUT_FIELDS

    sig = sc.input_signal
    fields = {name: _nested_lists(getattr(sig, name)) for name in INPUT_FIELDS[sig.kind]}
    return {"x0": list(sc.x0), "xi0": list(sc.xi0), "input": {"kind": sig.kind, **fields},
            "horizon": sc.horizon, "step": sc.step}


def ref_fading_document(horizon: float, step: float, table_step: float) -> dict:
    """The JSON document of ``scenarios.fading_output_scenario``, its table
    built element by element as tuples of Python floats and written list
    by list; u and y'' come from the same routines the scenario calls."""
    from funcobs.scenarios import _SHIFT, _y, _ydot, _yddot_grid
    from funcobs.sim import rk4_linear

    nsamples = int(round(horizon / table_step)) + 1
    u = rk4_linear(np.array([[-1.0]]), np.array([[1.0]]), table_step, (0.0,),
                   _yddot_grid(2 * nsamples - 1, table_step / 2))[:, 0]
    times = tuple(float(t) for t in np.arange(nsamples) * table_step)
    values = tuple((float(v),) for v in u)
    x1 = _ydot(_SHIFT) - u[0]
    return {"x0": [x1, _y(_SHIFT) - x1], "xi0": [],
            "input": {"kind": "table", "times": list(times),
                      "values": [list(row) for row in values]},
            "horizon": horizon, "step": step}
