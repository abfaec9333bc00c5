"""Rational-function witnesses for [M N] P = [E F].

Solvability over the field of rational functions needs only rank
consistency, and the Smith decomposition of P makes the canonical solution
explicit: with U P V = S, the solution is [M N] = [E F] V S^+ U where S^+
inverts the nonzero diagonal entries d_1 | ... | d_r.  The solution is
formed over the single denominator d_r with polynomial arithmetic, and the
residual of the returned solution is re-verified exactly on every solve;
properness and pole locations of the constructed solution are classified.
Stability is never missed: every solution is ([E F] V S^+ + [0 K]) U with
a rational K on the columns that [E F] V S^+ leaves zero (the left-kernel
rows of U), and U is unimodular, so each solution has at least the poles
of the canonical one (K = 0); the canonical solution is stable exactly
when some solution is.  Properness can be missed: the canonical
representative may be improper when another member of the family is
proper -- the existence questions themselves are settled by the decide
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import decide
from .exactlin import QMatrix
from .polymat import (POLY_ONE, POLY_ZERO, Poly, PolyMatrix,
                      build_system_matrices, pencil, poly_gcd, poly_lcm, smith_form)
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


class RationalFunctionMatrix:
    """Immutable dense matrix of reduced rational functions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int,
                 data: tuple[tuple[RationalFunction, ...], ...]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("inconsistent rational matrix data")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[RationalFunction]],
                  cols: int | None = None) -> "RationalFunctionMatrix":
        data = tuple(tuple(rows_i) for rows_i in rows)
        nrows = len(data)
        ncols = len(data[0]) if nrows else (cols or 0)
        return cls(nrows, ncols, data)

    def __getitem__(self, key: tuple[int, int]) -> RationalFunction:
        i, j = key
        return self.data[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_proper(self) -> bool:
        return all(e.is_proper() for row in self.data for e in row)

    def denominator_lcm(self) -> Poly:
        return denominator_lcm(e for row in self.data for e in row)

    def evaluate(self, x):
        return [[e.evaluate(x) for e in row] for row in self.data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunctionMatrix)
                and self.shape == other.shape and self.data == other.data)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.data)
        return f"RationalFunctionMatrix({self.rows}x{self.cols}: [{body}])"


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
    pole = MN.denominator_lcm()
    rep = is_hurwitz(pole)
    return Classification(MN.is_proper(), pole, rep.is_hurwitz, rep)


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


def solve_over_field(sys: SystemSextuple) -> WitnessReport:
    """Construct and verify the canonical field solution of [M N] P = [E F].

    Unsolvable is a report state, not an error; the report then names the
    Smith column on which [E F] V fails to vanish.  When a solution exists
    the residual is recomputed exactly and must be the zero matrix.
    """
    P, _ = build_system_matrices(sys)
    dec = smith_form(P)
    r = len(dec.invariant_polys)
    EF = pencil(QMatrix.zeros(sys.q, P.cols), -QMatrix.hstack([sys.E, sys.F]))
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
    residual_zero = residual_is_zero(MN, P, EF)
    cls = classify(MN)
    return WitnessReport(True, MN, residual_zero, cls.proper,
                         cls.pole_polynomial, cls.pole_report,
                         left_kernel_dim, None)


def decision_consistency(sys: SystemSextuple) -> bool:
    """Contract between the existence verdicts and the constructed witness.

    A solvable plant has a zero residual, and the plant is strongly
    detectable exactly when it is solvable and its canonical witness is
    stable (stability is never missed, see the module notes).  A proper
    stable canonical witness implies strong-star detectability; the
    converse is not asserted, because the canonical representative may miss
    properness that another member of the solution family achieves.
    """
    report = solve_over_field(sys)
    if report.solvable_over_field and not report.residual_zero:
        return False
    stable = report.solvable_over_field and report.denominator_hurwitz.is_hurwitz
    # the strong-star certificate carries the strong one: two Smith forms, not four
    strong_star = decide.strong_star_functional_detectable(sys)
    strong = strong_star.certificate.strong
    if (strong.rank_condition and strong.zero_condition) != stable:
        return False
    return not (stable and report.is_proper) or strong_star.holds
