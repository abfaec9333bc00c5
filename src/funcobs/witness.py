"""Rational-function witnesses for [M N] P = [E F].

Solvability over the field of rational functions needs only rank
consistency.  Two routes build the canonical solution, and the data alone
picks one:

* P square with det P not identically zero: the solution [E F] P^-1 is
  unique, so its reduced entries do not depend on the route, and no
  transformer is needed.  det P and the numerators [E F] adj P have degree
  <= n; they come from one fraction-free integer solve at each of n + 1
  integer points where det P does not vanish, and one Lagrange
  interpolation each.
* every other plant: the Smith decomposition U P V = S makes the canonical
  solution explicit, [M N] = [E F] V S^+ U where S^+ inverts the nonzero
  diagonal entries d_1 | ... | d_r, formed over the single denominator d_r
  with polynomial arithmetic.  With a left kernel the family of solutions
  is ([E F] V S^+ + [0 K]) U, with a rational K on the columns that
  [E F] V S^+ leaves zero (the left-kernel rows of U), and K = 0 picks the
  canonical one, which depends on U.

The residual of the returned solution is re-verified exactly on every
solve; properness and pole locations of the constructed solution are
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

from . import decide
from .exactlin import DenseMatrix, _common_den, adjugate_solve
from .polymat import (POLY_ONE, POLY_ZERO, Poly, PolyMatrix, build_system_matrices, interpolate,
                      poly_gcd, poly_lcm, smith_form)
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

    def evaluate(self, x):
        return self.num.evaluate(x) / self.den.evaluate(x)

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

    def evaluate(self, x):
        return [[e.evaluate(x) for e in row] for row in self.data]


def denominator_lcm(entries) -> Poly:
    """Monic lcm of the denominators; a denominator that already divides
    the running lcm costs one division instead of a gcd."""
    acc = POLY_ONE
    for e in entries:
        if not e.den.divides(acc):
            acc = poly_lcm(acc, e.den)
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


def residual_is_zero(MN: RationalFunctionMatrix, P: PolyMatrix, EF: PolyMatrix) -> bool:
    """Whether MN @ P == EF exactly.

    Row i of MN is brought onto the lcm l_i of its denominators, and its
    numerators must satisfy nums_i @ P == l_i EF_i as polynomials.
    """
    if MN.shape != (EF.rows, P.rows) or EF.cols != P.cols:
        raise ValueError(f"residual shapes differ: {MN.shape} @ {P.shape} vs {EF.shape}")
    for row, target in zip(MN.data, EF.data):
        ell = denominator_lcm(row)
        nums = PolyMatrix(1, MN.cols, (tuple(e.num * ell.exact_div(e.den) for e in row),))
        if (nums @ P).data[0] != tuple(ell * x for x in target):
            return False
    return True


def _unique_solution(sys: SystemSextuple) -> RationalFunctionMatrix | None:
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
    # P(s) = s [I 0; 0 0] + [-A -B; C D]
    rows = ([tuple(-x for x in a + b) for a, b in zip(sys.A.data, sys.B.data)]
            + [c + d for c, d in zip(sys.C.data, sys.D.data)])
    N = len(rows)
    scaled = [_common_den(row) for row in rows]
    targets = [_common_den(e + f) for e, f in zip(sys.E.data, sys.F.data)]
    r = [den for _, den in scaled]
    # row j of [P'(0)^T | [E F]'^T]
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
    det, *nums = interpolate(
        xs, [dets] + [[sol[i][k] * r[i] for sol in sols] for k in range(q) for i in range(N)],
        [1] + [e for _, e in targets for _ in range(N)])
    return RationalFunctionMatrix(q, N, tuple(
        tuple(RationalFunction(num, det) for num in nums[k * N:(k + 1) * N])
        for k in range(q)))


def _verified(MN: RationalFunctionMatrix, P: PolyMatrix, EF: PolyMatrix,
              left_kernel_dim: int) -> WitnessReport:
    """The report of a solution, with its residual recomputed exactly."""
    residual_zero = residual_is_zero(MN, P, EF)
    cls = classify(MN)
    return WitnessReport(True, MN, residual_zero, cls.proper,
                         cls.pole_polynomial, cls.pole_report,
                         left_kernel_dim, None)


def solve_over_field(sys: SystemSextuple | decide.PlantForms) -> WitnessReport:
    """Construct and verify the canonical field solution of [M N] P = [E F].

    A square P with det P not identically zero takes the unique solution
    from ``_unique_solution``; every other plant reads it off the Smith
    form of P.  Unsolvable is a report state, not an error; the report then
    names the Smith column on which [E F] V fails to vanish.  When a
    solution exists the residual is recomputed exactly and must be the zero
    matrix.
    """
    sys = decide.PlantForms.of(sys).sys
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
    report = solve_over_field(forms)
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
