"""Rational-function witnesses for [M N] P = [E F].

Solvability over the field of rational functions needs only rank
consistency.  Two routes build the canonical solution, and the data alone
picks one:

* P square with det P not identically zero: the solution [E F] P^-1 is
  unique, so its reduced entries do not depend on the route, and no
  transformer is needed.  det P and the numerators [E F] adj P come from
  one fraction-free integer solve at one integer S past a bound on their
  coefficients, which are read off the values as symmetric base-S digits.
* every other plant: the Smith decomposition U P V = S makes the canonical
  solution explicit, [M N] = [E F] V S^+ U where S^+ inverts the nonzero
  diagonal entries d_1 | ... | d_r, formed over the single denominator d_r
  with polynomial arithmetic.  With a left kernel the family of solutions
  is ([E F] V S^+ + [0 K]) U, with a rational K on the columns that
  [E F] V S^+ leaves zero (the left-kernel rows of U), and K = 0 picks the
  canonical one, which depends on U.

The residual of the returned solution is re-verified exactly on every
solve, by one integer evaluation per row past a bound on its
coefficients; properness and pole locations of the constructed solution are
classified.  Stability is never missed: U is unimodular, so each solution
has at least the poles of the canonical one; the canonical solution is
stable exactly when some solution is.  Properness can be missed: the
canonical representative may be improper when another member of the
family is proper -- the existence questions themselves are settled by the
decide module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul

from . import decide, polymat
from .exactlin import DenseMatrix, _common_den, adjugate_solve
from .polymat import (POLY_ONE, POLY_ZERO, Poly, PolyMatrix, _digits, _reduced, _value,
                      build_system_matrices, poly_gcd, poly_lcm, smith_form)
from .stability import HurwitzReport, is_hurwitz
from .system import SystemSextuple


class RationalFunction:
    """Reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = POLY_ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = POLY_ZERO, POLY_ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lead = den.leading
            if lead != 1:
                inv = Fraction(1) / lead
                num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_proper(self) -> bool:
        return self.is_zero() or self.num.degree <= self.den.degree

    def limit_at_infinity(self) -> Fraction:
        """Finite limit for proper functions (0 when strictly proper)."""
        if not self.is_proper():
            raise ValueError("improper rational function has no limit at infinity")
        if self.is_zero() or self.num.degree < self.den.degree:
            return Fraction(0)
        return self.num.leading / self.den.leading

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == POLY_ONE:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if " " in num:
            num = f"({num})"
        if " " in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


class RationalFunctionMatrix(DenseMatrix):
    """Immutable dense matrix of reduced rational functions."""

    __slots__ = ()
    _data_error = "inconsistent rational matrix data"
    _entry = staticmethod(lambda e: e)  # entries are built as RationalFunction
    _zero = RationalFunction(POLY_ZERO)
    _one = RationalFunction(POLY_ONE)


def denominator_lcm(entries) -> Poly:
    """Monic lcm of the distinct denominators; one that already divides
    the running lcm costs one division instead of a gcd."""
    acc = POLY_ONE
    for den in dict.fromkeys(e.den for e in entries):
        if not den.divides(acc):
            acc = poly_lcm(acc, den)
    return acc


@dataclass(frozen=True)
class Classification:
    proper: bool
    pole_polynomial: Poly
    stable: bool
    pole_report: HurwitzReport


def classify(MN: RationalFunctionMatrix) -> Classification:
    """Properness by entrywise degree comparison; stability of the monic
    lcm of the reduced denominators (constants count as stable)."""
    entries = [e for row in MN.data for e in row]
    pole = denominator_lcm(entries)
    rep = is_hurwitz(pole)
    return Classification(all(e.is_proper() for e in entries), pole, rep.is_hurwitz, rep)


@dataclass(frozen=True)
class WitnessReport:
    solvable_over_field: bool
    MN: RationalFunctionMatrix | None
    residual_zero: bool | None
    is_proper: bool | None
    pole_denominator: Poly | None
    denominator_hurwitz: HurwitzReport | None
    left_kernel_dim: int
    inconsistent_column: int | None


def _norm1(num: list[int]) -> int:
    return sum(map(abs, num))


def _others(xs: list[int]) -> list[int]:
    """For each u, the product of the xs other than xs[u]."""
    return [prod(xs[:u] + xs[u + 1:]) for u in range(len(xs))]


def residual_is_zero(MN: RationalFunctionMatrix, P: PolyMatrix, EF: PolyMatrix) -> bool:
    """Whether MN @ P == EF exactly, from one integer value per column.

    Row k of MN holds a_r / b_r with a_r = A_r / dA_r and b_r = B_r / dB_r
    (A_r and B_r integer polynomials), row r of P is Prow_r / dP_r and row
    k of EF is T / dT.  With L the product of the row's distinct B_u, so
    that L / B_r is the product of the others, and K = lcm(dT, dA_r dP_r),
    K L times column j of the residual is the integer polynomial

        Q_j = sum_r w_r A_r (L / B_r) Prow_rj - w_T L T_j,

    with the integers w_r = K dB_r / (dA_r dP_r) and w_T = K / dT, so the
    row holds exactly when every Q_j is the zero polynomial.  The 1-norm is
    submultiplicative, so ||Q_j||_1 is at most

        H = sum_r w_r ||A_r||_1 ||L / B_r||_1 max_j ||Prow_rj||_1
            + w_T ||L||_1 max_j ||T_j||_1,

    with ||L||_1 and ||L / B_r||_1 bounded by the products of the 1-norms
    of their factors.  At an integer S > H a nonzero integer polynomial of
    degree d, whose coefficients are at most S - 1 in size, does not
    vanish: its leading term is at least S^d in size, the others sum to at
    most (S - 1)(S^(d-1) + ... + 1) = S^d - 1.  One S past every row's H
    serves all rows: P's entries, the numerators and the distinct
    denominators are evaluated there once, and Q_j(S) = 0 is one integer
    dot product per column.
    """
    if MN.shape != (EF.rows, P.rows) or EF.cols != P.cols:
        raise ValueError(f"residual shapes differ: {MN.shape} @ {P.shape} vs {EF.shape}")
    prows = [polymat._common_den(row) for row in P.data]
    pnorm = [max(map(_norm1, nums), default=0) for nums, _ in prows]
    checks, bound = [], 0
    for row, target in zip(MN.data, EF.data):
        dens = list(dict.fromkeys(e.den for e in row))
        at = [dens.index(e.den) for e in row]
        tnums, dt = polymat._common_den(target)
        K = lcm(dt, *(e.num._den * dp for e, (_, dp) in zip(row, prows)))
        w = [K * e.den._den // (e.num._den * dp) for e, (_, dp) in zip(row, prows)]
        wt = K // dt
        bnorm = [_norm1(b._num) for b in dens]
        others = _others(bnorm)
        bound = max(bound, sum(wr * _norm1(e.num._num) * others[u] * pn
                               for wr, e, u, pn in zip(w, row, at, pnorm))
                    + wt * prod(bnorm) * max(map(_norm1, tnums), default=0))
        checks.append((row, dens, at, w, tnums, wt))
    S = bound + 1
    cols = [[_value(nums[j], S) for nums, _ in prows] for j in range(P.cols)]
    for row, dens, at, w, tnums, wt in checks:
        beta = [_value(b._num, S) for b in dens]
        others = _others(beta)
        v = [wr * _value(e.num._num, S) * others[u] for wr, e, u in zip(w, row, at)]
        scale = wt * prod(beta)
        if any(sum(map(mul, v, col)) != scale * _value(t, S) for col, t in zip(cols, tnums)):
            return False
    return True


def _unique_solution(sys: SystemSextuple) -> RationalFunctionMatrix | None:
    """[E F] P^-1 for a square P (p = m, n + m > 0) from one integer solve
    at s = S; None when det P vanishes there, hence identically.

    Row i of P and row k of [E F] are scaled by the lcms r_i and e_k of
    their denominators, so X' P' = [E F]' holds on integer rows and
    [M N] = X' with entry (k, i) times r_i / e_k.  One ``adjugate_solve``
    of G(s) = [P'(s)^T | [E F]'^T] at s = S gives det P'(S) and
    det P'(S) X'(S)^T, whose entries are, by Cramer's rule, the
    determinants of N x N matrices D(s) whose row j is taken from row j
    of G(s).  Their coefficients are bounded by the Goldstein-Graham bound
    (SIAM Review 16, 1974)

        H = prod_j (sum_k ||G_jk||_1^2)^(1/2),

    with ||.||_1 the sum of the absolute coefficients: by Parseval the
    2-norm of det D's coefficients is the root mean square of |det D(z)|
    on the unit circle, where Hadamard's inequality bounds it by
    prod_j (sum_k |G_jk(z)|^2)^(1/2) and |G_jk(z)| <= ||G_jk||_1.  The
    coefficients are integers, so they lie in [-isqrt(H^2), isqrt(H^2)],
    and at S = 2 isqrt(H^2) + 1 they are the symmetric base-S digits
    (``polymat._digits``) of the values: det P'(S) = 0 proves det P = 0.
    """
    n, q = sys.n, sys.q
    # P(s) = s [I 0; 0 0] + [-A -B; C D]
    rows = ([tuple(-x for x in a + b) for a, b in zip(sys.A.data, sys.B.data)]
            + [c + d for c, d in zip(sys.C.data, sys.D.data)])
    N = len(rows)
    scaled = [_common_den(row) for row in rows]
    targets = [_common_den(e + f) for e, f in zip(sys.E.data, sys.F.data)]
    r = [den for _, den in scaled]
    # row j of G(0); for j < n its diagonal entry of G(s) is r_j s + G_jj(0)
    G = [list(col) for col in zip(*(ints for ints, _ in scaled + targets))]
    h2 = 1
    for j, row in enumerate(G):
        norm2 = sum(x * x for x in row)
        if j < n:
            norm2 += r[j] * (r[j] + 2 * abs(row[j]))
        h2 *= norm2
    S = 2 * isqrt(h2) + 1
    for j in range(n):
        G[j][j] += S * r[j]
    det, sol = adjugate_solve(G)
    if not det:
        return None
    den = _reduced(_digits(det, S), 1)
    return RationalFunctionMatrix(q, N, tuple(
        tuple(RationalFunction(_reduced([r[i] * c for c in _digits(sol[i][k], S)], e), den)
              for i in range(N))
        for k, (_, e) in enumerate(targets)))


def _verified(MN: RationalFunctionMatrix, P: PolyMatrix, EF: PolyMatrix,
              left_kernel_dim: int) -> WitnessReport:
    """The report of a solution, with its residual recomputed exactly."""
    residual_zero = residual_is_zero(MN, P, EF)
    cls = classify(MN)
    return WitnessReport(True, MN, residual_zero, cls.proper,
                         cls.pole_polynomial, cls.pole_report,
                         left_kernel_dim, None)


def solve_over_field(sys: SystemSextuple) -> WitnessReport:
    """Construct and verify the canonical field solution of [M N] P = [E F].

    A square P with det P not identically zero takes the unique solution
    from ``_unique_solution``; every other plant reads it off the Smith
    form of P.  Unsolvable is a report state, not an error; the report then
    names the Smith column on which [E F] V fails to vanish.  When a
    solution exists the residual is recomputed exactly and must be the zero
    matrix.
    """
    P, EF = build_system_matrices(sys)
    if P.rows == P.cols > 0:
        MN = _unique_solution(sys)
        if MN is not None:
            return _verified(MN, P, EF, 0)
    dec = smith_form(P)
    r = len(dec.invariant_polys)
    W = EF @ dec.V
    left_kernel_dim = P.rows - r

    for j in range(r, W.cols):
        if any(not W[i, j].is_zero() for i in range(W.rows)):
            return WitnessReport(False, None, None, None, None, None,
                                 left_kernel_dim, j)

    # Y = W S^+ over the one denominator L = d_r, which every d_j divides:
    # MN = (W diag(L / d_j) U) / L, one polynomial product and one
    # reduction per entry
    L = dec.invariant_polys[-1] if r else POLY_ONE
    scale = [L.exact_div(d) for d in dec.invariant_polys]
    WL = PolyMatrix(W.rows, P.rows,
                    tuple(tuple(W[i, j] * scale[j] if j < r else POLY_ZERO
                                for j in range(P.rows))
                          for i in range(W.rows)))
    num = WL @ dec.U
    MN = RationalFunctionMatrix(num.rows, num.cols,
                                tuple(tuple(RationalFunction(e, L) for e in row)
                                      for row in num.data))
    return _verified(MN, P, EF, left_kernel_dim)


# no command runs it; the README documents it as the library's cross-check
def decision_consistency(sys: SystemSextuple | decide.PlantForms) -> bool:
    """Contract between the existence verdicts and the constructed witness.

    A solvable plant has a zero residual, and the plant is strongly
    detectable exactly when it is solvable and its canonical witness is
    stable (stability is never missed, see the module notes).  A proper
    stable canonical witness implies strong-star detectability; the
    converse is not asserted, because the canonical representative may miss
    properness that another member of the solution family achieves.
    """
    forms = decide.PlantForms.of(sys)
    report = solve_over_field(forms.sys)
    if report.solvable_over_field and not report.residual_zero:
        return False
    stable = report.solvable_over_field and report.denominator_hurwitz.is_hurwitz
    # the strong-star certificate carries the strong one, read off the V*
    # that the forms keep
    strong_star = decide.strong_star_functional_detectable(forms)
    strong = strong_star.certificate.strong
    if (strong.rank_condition and strong.zero_condition) != stable:
        return False
    return not (stable and report.is_proper) or strong_star.holds
