"""Rational-function witnesses for [M N] P = [E F].

Solvability over the field of rational functions needs only rank
consistency.  P's and [E F]'s rows are written by ``polymat.pencil_rows``
from the rows of S_e = [A B; C D; E F] that the plant's
``decide.PlantForms`` reads, the same rows the decisions read: integers
over one denominator per row.  Two routes build the canonical solution,
and the data alone picks one:

* P square with det P not identically zero: the solution [E F] P^-1 is
  unique, so its reduced entries do not depend on the route, and no
  transformer is needed.  det P and the numerators [E F] adj P come from
  one fraction-free integer solve at one integer S past a bound on their
  coefficients, which are read off the values as symmetric base-S digits;
  no polynomial matrix is built.
* every other plant: the Smith decomposition U P V = S makes the canonical
  solution explicit, [M N] = [E F] V S^+ U where S^+ inverts the nonzero
  diagonal entries d_1 | ... | d_r, formed over the single denominator d_r
  with polynomial arithmetic.  With a left kernel the family of solutions
  is ([E F] V S^+ + [0 K]) U, with a rational K on the columns that
  [E F] V S^+ leaves zero (the left-kernel rows of U), and K = 0 picks the
  canonical one, which depends on U.

Every entry is a numerator over one shared denominator, det P or d_r.  At
a point past twice its Cauchy bound a common factor of positive degree
exceeds half the point and divides the gcd of the two values, so a gcd of
at most half the point proves an entry coprime to it (``_over_shared``).

The residual of the returned solution is re-verified exactly on every
solve, on the same rows, by one integer evaluation per row past a bound
on its coefficients; properness and pole locations of the constructed solution are
classified.  Stability is never missed: U is unimodular, so each solution
has at least the poles of the canonical one; the canonical solution is
stable exactly when some solution is.  Properness can be missed: the
canonical representative may be improper when another member of the
family is proper -- the existence questions themselves are settled by the
decide module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

from . import decide
from .exactlin import DenseMatrix, adjugate_solve
from .polymat import (POLY_ONE, POLY_ZERO, PencilRow, Poly, PolyMatrix, _candidate, _digits,
                      _reduced, _times, _value, pencil, pencil_rows, poly_gcd, poly_lcm,
                      smith_form)
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
            num, den = _over_lead(num, den), den.monic()
        self.num, self.den = num, den

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


def _over_lead(num: Poly, den: Poly) -> Poly:
    """num over den's leading coefficient, on integers."""
    return _reduced(_times(num._num, den._den), num._den * den._num[-1])


def _over_shared(rows: list[list[Poly]], den: Poly) -> tuple[tuple[RationalFunction, ...], ...]:
    """The rows of RationalFunction(x, den) for the numerators x of rows.
    With a and D the primitive parts of x's and den's numerators, a
    constant ``_candidate`` of gcd(a(xi), D(xi)) at xi = (2 ||D||_inf + 29)^2,
    the square of ``polymat._heuristic_gcd``'s first point, proves x coprime
    to den, and x is written straight into canonical storage over one
    den.monic(); a zero entry or any other takes the constructor."""
    c = gcd(*den._num)
    D = [d // c for d in den._num]
    xi = (2 * max(map(abs, D)) + 29) ** 2
    dxi, monic = _value(D, xi), den.monic()

    def entry(x: Poly) -> RationalFunction:
        if x.is_zero() or len(_candidate(gcd(_value(x._num, xi) // gcd(*x._num), dxi), xi)) > 1:
            return RationalFunction(x, den)
        rf = object.__new__(RationalFunction)
        rf.num, rf.den = _over_lead(x, den), monic
        return rf

    return tuple(tuple(map(entry, row)) for row in rows)


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


class Classification(NamedTuple):
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


class WitnessReport(NamedTuple):
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


def _norms(row: PencilRow, i: int) -> list[int]:
    """The 1-norms |k_j| + e [i = j] of the entries of pencil row i."""
    norms = [abs(x) for x in row.k]
    if row.e:
        norms[i] += row.e
    return norms


def _values(row: PencilRow, i: int, x: int) -> list[int]:
    """The numerators e x [i = j] + k_j of pencil row i at s = x."""
    if not row.e:
        return row.k
    values = list(row.k)
    values[i] += row.e * x
    return values


def residual_is_zero(MN: RationalFunctionMatrix, P: list[PencilRow],
                     EF: list[PencilRow]) -> bool:
    """Whether MN @ P == EF exactly, from one integer value per column,
    for P's and EF's rows as ``polymat.pencil_rows`` writes them.

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
    of their factors, and ||Prow_rj||_1 = |k_rj| + e_r [r = j].  At an
    integer S > H a nonzero integer polynomial of degree d, whose
    coefficients are at most S - 1 in size, does not vanish: its leading
    term is at least S^d in size, the others sum to at most
    (S - 1)(S^(d-1) + ... + 1) = S^d - 1.  One S past every row's H serves
    all rows: P's rows, the numerators and the distinct denominators are
    evaluated there once, and Q_j(S) = 0 is one integer dot product per
    column.
    """
    widths = {len(row.k) for row in P + EF}
    if MN.shape != (len(EF), len(P)) or len(widths) > 1:
        raise ValueError(f"residual shapes differ: {MN.shape} @ {len(P)} rows vs {len(EF)} rows"
                         f" of widths {sorted(widths)}")
    width = widths.pop() if widths else 0
    pnorm = [max(_norms(row, r), default=0) for r, row in enumerate(P)]
    checks, bound = [], 0
    for k, (row, target) in enumerate(zip(MN.data, EF)):
        dens = list(dict.fromkeys(e.den for e in row))
        at = [dens.index(e.den) for e in row]
        dt = target.r
        K = lcm(dt, *(e.num._den * p.r for e, p in zip(row, P)))
        w = [K * e.den._den // (e.num._den * p.r) for e, p in zip(row, P)]
        wt = K // dt
        bnorm = [_norm1(b._num) for b in dens]
        others = _others(bnorm)
        bound = max(bound, sum(wr * _norm1(e.num._num) * others[u] * pn
                               for wr, e, u, pn in zip(w, row, at, pnorm))
                    + wt * prod(bnorm) * max(_norms(target, k), default=0))
        checks.append((row, dens, at, w, k, target, wt))
    S = bound + 1
    pvals = [_values(row, r, S) for r, row in enumerate(P)]
    cols = [[vals[j] for vals in pvals] for j in range(width)]
    for row, dens, at, w, k, target, wt in checks:
        beta = [_value(b._num, S) for b in dens]
        others = _others(beta)
        v = [wr * _value(e.num._num, S) * others[u] for wr, e, u in zip(w, row, at)]
        scale = wt * prod(beta)
        if any(sum(map(mul, v, col)) != scale * t
               for col, t in zip(cols, _values(target, k, S))):
            return False
    return True


def _unique_solution(P: list[PencilRow], EF: list[PencilRow]) -> RationalFunctionMatrix | None:
    """X = EF P^-1, the solution of X P = EF for a square pencil P (N x N,
    N > 0) given by its rows, as ``polymat.pencil_rows`` writes them, from
    one integer solve at s = S; None when det P vanishes there, hence
    identically.

    Row i of P is P'_i / r_i and row k of EF is EF'_k / t_k on integer
    rows, so X' P' = EF' and X = X' with entry (k, i) times r_i / t_k.
    One ``adjugate_solve`` of G(S), G(s) = [P'(s)^T | EF'(s)^T], whose
    entry G_ji = e_i s [i = j] + k_ij is entry j of row i of [P'; EF']
    (EF's rows, from ``pencil_rows(EF, 0)``, are constants), gives
    det P'(S) and det P'(S) X'(S)^T, whose entries are, by Cramer's rule,
    the determinants of N x N matrices D(s) whose row j is taken from row
    j of G(s).  Their coefficients are bounded by the
    Goldstein-Graham bound (SIAM Review 16, 1974)

        H = prod_j (sum_i ||G_ji||_1^2)^(1/2),  ||G_ji||_1 = |k_ij| + e_i [i = j]:

    by Parseval the 2-norm of det D's coefficients is the root mean square
    of |det D(z)| on the unit circle, where Hadamard's inequality bounds it
    by prod_j (sum_i |G_ji(z)|^2)^(1/2) and |G_ji(z)| <= ||G_ji||_1.  The
    coefficients are integers, so they lie in [-isqrt(H^2), isqrt(H^2)],
    and at S = 2 isqrt(H^2) + 1 they are the symmetric base-S digits
    (``polymat._digits``) of the values: det P'(S) = 0 proves det P = 0.
    """
    N = len(P)
    if any(len(row.k) != N for row in P + EF):
        raise ValueError(f"solve shapes differ: P has {N} rows, rows of widths "
                         f"{sorted({len(row.k) for row in P + EF})}")
    # row j of G is column j of [P'; EF']
    rows = [*enumerate(P), *enumerate(EF)]
    norms = [_norms(row, i) for i, row in rows]
    S = 2 * isqrt(prod(sum(x * x for x in col) for col in zip(*norms))) + 1
    det, sol = adjugate_solve([list(col) for col in zip(*(_values(row, i, S) for i, row in rows))])
    if not det:
        return None
    den = _reduced(_digits(det, S), 1)
    return RationalFunctionMatrix(len(EF), N, _over_shared(
        [[_reduced([p.r * c for c in _digits(sol[i][k], S)], t.r) for i, p in enumerate(P)]
         for k, t in enumerate(EF)], den))


def _verified(MN: RationalFunctionMatrix, P: list[PencilRow], EF: list[PencilRow],
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
    from ``_unique_solution`` on P's and [E F]'s integer rows; every other
    plant reads it off the Smith form of P, the one route that builds the
    pencil as a ``PolyMatrix``.  Unsolvable is a report state, not an
    error; the report then names the Smith column on which [E F] V fails
    to vanish.  When a solution exists the residual is recomputed exactly
    on the rows and must be the zero matrix.
    """
    forms = decide.PlantForms.of(sys)
    S, n = forms.system_matrix, forms.sys.n
    P, EF = pencil_rows(S, n), pencil_rows(forms.EF, 0)
    if S.rows == S.cols > 0:
        MN = _unique_solution(P, EF)
        if MN is not None:
            return _verified(MN, P, EF, 0)
    dec = smith_form(pencil(S, n))
    r = len(dec.invariant_polys)
    W = pencil(forms.EF, 0) @ dec.V
    left_kernel_dim = S.rows - r

    for j in range(r, W.cols):
        if any(not W[i, j].is_zero() for i in range(W.rows)):
            return WitnessReport(False, None, None, None, None, None,
                                 left_kernel_dim, j)

    # Y = W S^+ over the one denominator L = d_r, which every d_j divides:
    # MN = (W diag(L / d_j) U) / L, one polynomial product and one
    # reduction per entry
    L = dec.invariant_polys[-1] if r else POLY_ONE
    scale = [L.exact_div(d) for d in dec.invariant_polys]
    WL = PolyMatrix(W.rows, S.rows,
                    tuple(tuple(W[i, j] * scale[j] if j < r else POLY_ZERO
                                for j in range(S.rows))
                          for i in range(W.rows)))
    num = WL @ dec.U
    MN = RationalFunctionMatrix(num.rows, num.cols, _over_shared(num.data, L))
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
