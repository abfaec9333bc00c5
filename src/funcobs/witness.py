"""Rational-function witnesses for [M N] P = [E F].

Solvability over the field of rational functions needs only rank
consistency, and the Smith decomposition of P makes the canonical solution
explicit: with U P V = S, the solution is [M N] = [E F] V S^+ U where S^+
inverts the nonzero diagonal entries.  The residual is re-verified by
exact rational-function arithmetic on every solve; properness and pole
locations of the constructed solution are classified, with the caveat that
the canonical representative may fail properness or stability even when
some member of the affine solution family (canonical plus left-kernel
multiples of P) achieves them -- the existence questions themselves are
settled by the decide module.
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

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunction":
        return cls(p, POLY_ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_proper(self) -> bool:
        return self.is_zero() or self.num.degree <= self.den.degree

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

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


RF_ZERO = RationalFunction(POLY_ZERO)
RF_ONE = RationalFunction(POLY_ONE)


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

    @classmethod
    def from_poly_matrix(cls, M: PolyMatrix) -> "RationalFunctionMatrix":
        return cls(M.rows, M.cols,
                   tuple(tuple(RationalFunction.from_poly(e) for e in row)
                         for row in M.data))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalFunctionMatrix":
        return cls(rows, cols, tuple(tuple(RF_ZERO for _ in range(cols))
                                     for _ in range(rows)))

    def __getitem__(self, key: tuple[int, int]) -> RationalFunction:
        i, j = key
        return self.data[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __matmul__(self, other: "RationalFunctionMatrix") -> "RationalFunctionMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in product: {self.shape} @ {other.shape}")
        data = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RF_ZERO
                for k in range(self.cols):
                    a, b = self.data[i][k], other.data[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            data.append(tuple(row))
        return RationalFunctionMatrix(self.rows, other.cols, tuple(data))

    def __sub__(self, other: "RationalFunctionMatrix") -> "RationalFunctionMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RationalFunctionMatrix(
            self.rows, self.cols,
            tuple(tuple(a - b for a, b in zip(ra, rb))
                  for ra, rb in zip(self.data, other.data)))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def is_proper(self) -> bool:
        return all(e.is_proper() for row in self.data for e in row)

    def denominator_lcm(self) -> Poly:
        acc = POLY_ONE
        for row in self.data:
            for e in row:
                acc = poly_lcm(acc, e.den)
        return acc

    def evaluate(self, x):
        return [[e.evaluate(x) for e in row] for row in self.data]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunctionMatrix)
                and self.shape == other.shape and self.data == other.data)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.data)
        return f"RationalFunctionMatrix({self.rows}x{self.cols}: [{body}])"


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

    # Y = W S^+ as rational functions, then MN = Y U
    y_rows = []
    for i in range(W.rows):
        row = [RationalFunction(W[i, j], dec.invariant_polys[j]) for j in range(r)]
        row += [RF_ZERO] * (P.rows - r)
        y_rows.append(row)
    Y = RationalFunctionMatrix.from_rows(y_rows, cols=P.rows)
    MN = Y @ RationalFunctionMatrix.from_poly_matrix(dec.U)

    residual = (MN @ RationalFunctionMatrix.from_poly_matrix(P)
                - RationalFunctionMatrix.from_poly_matrix(EF))
    residual_zero = residual.is_zero()
    cls = classify(MN)
    return WitnessReport(True, MN, residual_zero, cls.proper,
                         cls.pole_polynomial, cls.pole_report,
                         left_kernel_dim, None)


def decision_consistency(sys: SystemSextuple) -> bool:
    """Contract between the existence verdicts and the constructed witness.

    Strong detectability implies field solvability with a zero residual;
    a constructed proper stable solution implies both existence verdicts.
    The converse of the second implication is deliberately not asserted:
    the canonical representative may miss properness or stability that
    another member of the solution family achieves.
    """
    report = solve_over_field(sys)
    strong = decide.strongly_functional_detectable(sys)
    if strong.holds and not (report.solvable_over_field and report.residual_zero):
        return False
    if report.solvable_over_field and not report.residual_zero:
        return False
    if report.MN is not None and report.is_proper and report.denominator_hurwitz.is_hurwitz:
        star = decide.strong_star_functional_detectable(sys)
        if not (strong.holds and star.holds):
            return False
    return True
