"""Top-level detectability decisions with machine-checkable certificates.

Every verdict embeds the exact intermediate objects (normal ranks, zero
polynomials, Hurwitz reports, subspace bases, kernel data) needed to
re-verify it without trusting the decision code.

The three headline properties, ordered by strength:

* functional detectability    -- zero (known) input: y = 0 forces z -> 0;
* strong functional detectability -- any input: y = 0 forces z -> 0,
  equivalent to a stable rational left solution of [M N] P = [E F];
* strong-star functional detectability -- any input: y -> 0 forces z -> 0,
  equivalent to a proper stable solution, i.e. to an asymptotic observer
  driven by the measurement alone.

Specialised checks for state reconstruction, input reconstruction and the
fixed-order observer conditions are provided as independent formulas that
cross-validate against the general decision procedures.

No decision builds a polynomial matrix: the normal ranks and zeros of P,
P_e, the input-free pencils [sI - A; C] and [sI - A; C; E] and Darouach's
pencil are read off the weakly unobservable subspaces (``geometry.vstar``)
of their system matrices.  The plant is read into integers once, into
P_e's system matrix S_e = [A B; C D; E F] (``PlantForms``), and every
matrix a decision hands on is a slice of S_e or written from its rows,
as are the witness's P and [E F], so shared forms read the plant once.

Every verdict and certificate is a ``typing.NamedTuple``, as are the
records of the other exact modules: immutable, hashable and compared as
tuples, and written by ``fileio.to_jsonable`` as an object keyed by its
fields in order.  Such a class is several times cheaper to create than a
frozen dataclass, which keeps ``import funcobs`` short, and no module of
the exact path imports ``dataclasses``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import NamedTuple

from . import geometry
from .exactlin import IntegerMatrix, QMatrix, Subspace, _scaled, first_escape, kernel_basis
from .polymat import POLY_ONE, Poly, poly_gcd
from .stability import AntistableComparison, HurwitzReport, antistable_parts_equal, is_hurwitz
from .system import SystemSextuple

FUNCTIONAL = "functional_detectable"
STRONGLY = "strongly_functional_detectable"
STRONG_STAR = "strong_star_functional_detectable"
HAUTUS_STRONG = "hautus_strong_detectable"
HAUTUS_STRONG_STAR = "hautus_strong_star_detectable"
LEFT_INVERTIBLE = "asympt_strong_left_invertible"
LEFT_INVERTIBLE_STAR = "asympt_strong_star_left_invertible"
DAROUACH = "darouach_fixed_order"


class Verdict(NamedTuple):
    name: str
    holds: bool
    certificate: object


class DetectabilityCertificate(NamedTuple):
    """Rank equality plus antistable zero-multiset equality for P and P_e."""
    normrank_p: int
    normrank_pe: int
    zero_poly_p: Poly
    zero_poly_pe: Poly
    antistable: AntistableComparison
    rank_condition: bool
    zero_condition: bool


class KnownInputCertificate(NamedTuple):
    """Certificate of the zero-input reduction (B, D, F dropped)."""
    reduced: DetectabilityCertificate


class StrongStarCertificate(NamedTuple):
    strong: DetectabilityCertificate
    inclusion: geometry.InclusionCertificate


class HautusCertificate(NamedTuple):
    normrank_p: int
    n_plus_rank_bd: int
    rank_condition: bool
    zero_poly_p: Poly
    zero_report: HurwitzReport
    zero_condition: bool


class KernelInclusionCertificate(NamedTuple):
    lhs: QMatrix
    rhs: QMatrix
    holds: bool
    witness: tuple[Fraction, ...] | None


class HautusStarCertificate(NamedTuple):
    strong: HautusCertificate
    kernel: KernelInclusionCertificate


class LeftInvertibilityCertificate(NamedTuple):
    normrank_p: int
    full_rank: int
    rank_condition: bool
    zero_poly_p: Poly
    decoupling_poly: Poly
    removed_factor: Poly
    quotient: Poly
    quotient_report: HurwitzReport
    zero_condition: bool


class LeftInvertibilityStarCertificate(NamedTuple):
    strong: LeftInvertibilityCertificate
    rank_d: int
    input_dim: int
    feedthrough_condition: bool


class RankEqualityCertificate(NamedTuple):
    """Pointwise rank equality over Re >= 0 of two polynomial matrices."""
    normrank_lhs: int
    normrank_rhs: int
    zero_poly_lhs: Poly
    zero_poly_rhs: Poly
    antistable: AntistableComparison
    holds: bool


class DarouachCertificate(NamedTuple):
    kernel: KernelInclusionCertificate
    rank_equality: RankEqualityCertificate
    controllable: bool
    note: str | None


def _kernel_inclusion(lhs: IntegerMatrix, rhs: IntegerMatrix,
                      ker: Subspace) -> KernelInclusionCertificate:
    """Whether ``ker``, the kernel of lhs, lies inside the kernel of rhs,
    searched on integer rows; Fractions are made for the certificate."""
    witness = first_escape(ker, rhs)
    return KernelInclusionCertificate(lhs.fractions(), rhs.fractions(), witness is None, witness)


class _once(cached_property):
    """A ``cached_property`` without the class-wide lock that Python 3.11
    takes on every first read."""

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


class PlantForms:
    """What the decisions and the witness read off one plant, each
    computed on first use and kept by this object alone: a call with a
    bare plant does all of its own work.  The plant is read into integers
    once, on first use, into S_e = [A B; C D; E F] (``system_matrix_e``),
    and every matrix a decision hands on is a slice of S_e or written from
    its rows; P_e's V* call goes on from P's echelon."""

    def __init__(self, sys: SystemSextuple):
        self.sys = sys

    @staticmethod
    def of(plant: SystemSextuple | PlantForms) -> PlantForms:
        return plant if isinstance(plant, PlantForms) else PlantForms(plant)

    @_once
    def system_matrix_e(self) -> IntegerMatrix:
        """S_e = [A B; C D; E F], P_e's constant system matrix, states
        first, over the lcm of every entry's denominator."""
        s = self.sys
        rows = (*map(add, s.A.data, s.B.data), *map(add, s.C.data, s.D.data),
                *map(add, s.E.data, s.F.data))
        return IntegerMatrix.of(QMatrix(len(rows), s.n + s.m, rows))

    @_once
    def system_matrix(self) -> IntegerMatrix:
        """S = [A B; C D], P's constant system matrix: S_e's first n + p rows."""
        Se, k = self.system_matrix_e, self.sys.n + self.sys.p
        return IntegerMatrix(k, Se.cols, Se.data[:k], Se.den)

    @_once
    def EF(self) -> IntegerMatrix:
        """[E F], the target rows: S_e's last q rows."""
        Se, k = self.system_matrix_e, self.sys.n + self.sys.p
        return IntegerMatrix(Se.rows - k, Se.cols, Se.data[k:], Se.den)

    @_once
    def ACE(self) -> IntegerMatrix:
        """[A; C; E], S_e's state columns."""
        Se, n = self.system_matrix_e, self.sys.n
        return IntegerMatrix(Se.rows, n, [r[:n] for r in Se.data], Se.den)

    @_once
    def AC(self) -> IntegerMatrix:
        """[A; C], the input-free plant's system matrix: [A; C; E]'s first
        n + p rows."""
        ACE, k = self.ACE, self.sys.n + self.sys.p
        return IntegerMatrix(k, ACE.cols, ACE.data[:k], ACE.den)

    @_once
    def CAB(self) -> list[list[int]]:
        """The rows of [CA CB] over S_e's denominator squared."""
        n = self.sys.n
        return self.times_ab(self.system_matrix.data[n:])

    @_once
    def ab_columns(self) -> list[tuple[int, ...]]:
        """The columns of [A B], S_e's first n rows: the rows of [A B]^T,
        the dual plant's system matrix.  With n = 0 they are m empty
        columns."""
        n = self.sys.n
        return [*zip(*self.system_matrix_e.data[:n])] if n else [()] * self.sys.m

    def times_ab(self, rows: list[list[int]]) -> list[list[int]]:
        """X [A B] over S_e's denominator squared, for the rows of S_e
        whose state columns are X's rows: a column of [A B] has n entries,
        so each product reads a row's states only."""
        cols = self.ab_columns
        return [[sum(map(mul, r, col)) for col in cols] for r in rows]

    @_once
    def vstar(self) -> geometry.VStar:
        return geometry.vstar(self.system_matrix, self.sys.n)

    @_once
    def rank_and_zero(self) -> tuple[int, Poly]:
        """Normal rank and zero polynomial of P."""
        return geometry.rank_and_zeros(self.system_matrix, self.sys.n, self.vstar)

    @_once
    def detectability(self) -> DetectabilityCertificate:
        rp, zp = self.rank_and_zero
        # S_e is S with [E F] below: grow P_e's V* from P's echelon
        n, Se = self.sys.n, self.system_matrix_e
        rpe, zpe = geometry.rank_and_zeros(Se, n, geometry.vstar(Se, n, self.vstar))
        cmp_ = antistable_parts_equal(zp, zpe)
        return DetectabilityCertificate(rp, rpe, zp, zpe, cmp_, rp == rpe, cmp_.equal)

    @_once
    def inclusion(self) -> geometry.InclusionCertificate:
        """The strong-star certificate: chain-reachable pairs in Ker [E F]."""
        return geometry.strong_star_inclusion(self.system_matrix, self.EF, self.sys.n)

    @_once
    def unobservable(self) -> geometry.VStar:
        """The unobservable subspace of (A, C), the V* of [A; C]."""
        return geometry.vstar(self.AC, self.sys.n)

    @_once
    def unobservable_modes(self) -> Poly:
        """The zero polynomial of [sI - A; C]: the unobservable modes."""
        return geometry.rank_and_zeros(self.AC, self.sys.n, self.unobservable)[1]

    @_once
    def functional(self) -> DetectabilityCertificate:
        """The certificate of the input-free plant: [sI - A; C] and
        [sI - A; C; E] have normal rank n, and the zeros of the second lie
        among those of the first."""
        sys = self.sys
        zp = zpe = self.unobservable_modes
        if zp.degree > 0 and sys.q:
            # [A; C; E] is [A; C] with E below: grow (A, [C; E])'s
            # unobservable subspace from (A, C)'s echelon
            ce = geometry.vstar(self.ACE, sys.n, self.unobservable)
            zpe = geometry.rank_and_zeros(self.AC, sys.n, ce)[1]
        cmp_ = antistable_parts_equal(zp, zpe)
        return DetectabilityCertificate(sys.n, sys.n, zp, zpe, cmp_, True, cmp_.equal)


def strongly_functional_detectable(sys: SystemSextuple | PlantForms) -> Verdict:
    """Normal ranks of P and P_e agree and their antistable zero multisets
    coincide; equivalent to a stable rational solution of [M N] P = [E F]."""
    cert = PlantForms.of(sys).detectability
    return Verdict(STRONGLY, cert.rank_condition and cert.zero_condition, cert)


def functional_detectable(sys: SystemSextuple | PlantForms) -> Verdict:
    """Known-input (equivalently zero-input) detectability: the same rank
    and zero conditions applied to the input-stripped plant, read off its
    unobservable subspaces (``PlantForms.functional``)."""
    cert = PlantForms.of(sys).functional
    return Verdict(FUNCTIONAL, cert.rank_condition and cert.zero_condition,
                   KnownInputCertificate(cert))


def strong_star_functional_detectable(sys: SystemSextuple | PlantForms) -> Verdict:
    """Strong detectability plus the chain-reachability inclusion; equivalent
    to a proper stable solution of [M N] P = [E F], i.e. to an observer whose
    estimate tracks z whenever y fades."""
    forms = PlantForms.of(sys)
    strong = forms.detectability
    inclusion = forms.inclusion
    holds = strong.rank_condition and strong.zero_condition and inclusion.holds
    return Verdict(STRONG_STAR, holds, StrongStarCertificate(strong, inclusion))


def _input_columns(S: IntegerMatrix, n: int, first: int = 0) -> IntegerMatrix:
    """The input columns of S's rows from ``first`` on: [B; D] from row
    0, D from row n."""
    rows = [r[n:] for r in S.data[first:]]
    return IntegerMatrix(len(rows), S.cols - n, rows, S.den)


def hautus_strong_detectable(sys: SystemSextuple | PlantForms) -> Verdict:
    """State-reconstruction test (target z = x): normrank P = n + rank [-B; D]
    and all invariant zeros of P strictly stable.  Negating B keeps the
    rank, so the rank is taken of [B; D], S's input columns."""
    forms = PlantForms.of(sys)
    rp, zp = forms.rank_and_zero
    n = forms.sys.n
    target = n + _input_columns(forms.system_matrix, n).rank()
    rep = is_hurwitz(zp)
    cert = HautusCertificate(rp, target, rp == target, zp, rep, rep.is_hurwitz)
    return Verdict(HAUTUS_STRONG, cert.rank_condition and cert.zero_condition, cert)


def _hautus_star_stacks(forms: PlantForms) -> tuple[IntegerMatrix, IntegerMatrix]:
    """[D 0; CB D] and [0 0; B 0], written from S's rows and [CA CB]'s
    over S's denominator squared."""
    S, n, m = forms.system_matrix, forms.sys.n, forms.sys.m
    d = S.den
    B = _scaled([r[n:] for r in S.data[:n]], d)
    D = _scaled([r[n:] for r in S.data[n:]], d)
    zero = [0] * m
    lhs = [r + zero for r in D] + [cab[n:] + r for cab, r in zip(forms.CAB, D)]
    rhs = [[0] * (2 * m) for _ in B] + [r + zero for r in B]
    return IntegerMatrix(len(lhs), 2 * m, lhs, d * d), IntegerMatrix(2 * n, 2 * m, rhs, d * d)


def hautus_strong_star_detectable(sys: SystemSextuple | PlantForms) -> Verdict:
    """State reconstruction from a fading measurement: the strong test plus
    Ker [D 0; CB D] inside Ker [0 0; B 0], the first-order Toeplitz
    matrices of (C, D) and (I, 0), written from S's rows."""
    forms = PlantForms.of(sys)
    strong = hautus_strong_detectable(forms)
    lhs, rhs = _hautus_star_stacks(forms)
    kernel = _kernel_inclusion(lhs, rhs, kernel_basis(lhs))
    cert = HautusStarCertificate(strong.certificate, kernel)
    return Verdict(HAUTUS_STRONG_STAR, strong.holds and kernel.holds, cert)


def _left_invertibility_certificate(forms: PlantForms) -> LeftInvertibilityCertificate:
    sys = forms.sys
    rp, zp = forms.rank_and_zero
    od = forms.unobservable_modes
    g = poly_gcd(zp, od)
    quotient = (zp.exact_div(g) if g.degree > 0 else zp).monic()
    rep = is_hurwitz(quotient)
    return LeftInvertibilityCertificate(rp, sys.n + sys.m, rp == sys.n + sys.m,
                                        zp, od, g, quotient, rep, rep.is_hurwitz)


def asympt_strong_left_invertible(sys: SystemSextuple | PlantForms) -> Verdict:
    """Input-reconstruction test (target z = u): normrank P = n + m and all
    invariant zeros outside the unobservable modes strictly stable.  The set
    difference is taken multiplicity-wise through a gcd."""
    cert = _left_invertibility_certificate(PlantForms.of(sys))
    return Verdict(LEFT_INVERTIBLE, cert.rank_condition and cert.zero_condition, cert)


def asympt_strong_star_left_invertible(sys: SystemSextuple | PlantForms) -> Verdict:
    """Input reconstruction from a fading measurement: adds rank D = m, D
    the input columns of S's rows below the n-th."""
    forms = PlantForms.of(sys)
    n, m = forms.sys.n, forms.sys.m
    strong = _left_invertibility_certificate(forms)
    rank_d = _input_columns(forms.system_matrix, n, n).rank()
    cert = LeftInvertibilityStarCertificate(strong, rank_d, m, rank_d == m)
    holds = strong.rank_condition and strong.zero_condition and cert.feedthrough_condition
    return Verdict(LEFT_INVERTIBLE_STAR, holds, cert)


def _darouach_matrices(forms: PlantForms) -> tuple[IntegerMatrix, ...]:
    """Darouach's constant stack [E F 0; C D 0; CA CB D], its target rows
    [EA EB F] and its pencil's plant S = [A, B 0 I; 0, 0 0 E; C, D 0 0;
    CA, CB D 0], written from S_e's rows and the products with [A B] over
    S_e's denominator squared (I has that square on its diagonal), and
    [A B]^T, the dual plant's system matrix, over S_e's denominator."""
    n, m = forms.sys.n, forms.sys.m
    Se = forms.system_matrix_e
    d, k = Se.den, n + forms.sys.p
    AB, CD, EF = (_scaled(rows, d) for rows in (Se.data[:n], Se.data[n:k], Se.data[k:]))
    zero_m, zero_n = [0] * m, [0] * n
    CABD = [cab + r[n:] for cab, r in zip(forms.CAB, CD)]
    lhs = [r + zero_m for r in EF] + [r + zero_m for r in CD] + CABD
    rhs = [eab + r[n:] for eab, r in zip(forms.times_ab(Se.data[k:]), EF)]
    dd, width = d * d, n + 2 * m
    S = ([r + zero_m + [dd if j == i else 0 for j in range(n)] for i, r in enumerate(AB)]
         + [[0] * width + r[:n] for r in EF] + [r + zero_m + zero_n for r in CD]
         + [r + zero_n for r in CABD])
    return (IntegerMatrix(len(lhs), width, lhs, dd), IntegerMatrix(len(rhs), width, rhs, dd),
            IntegerMatrix(len(S), width + n, S, dd),
            IntegerMatrix(n + m, n, forms.ab_columns, d))


def darouach_fixed_order(sys: SystemSextuple | PlantForms) -> Verdict:
    """Existence test for a fixed-order (order = dim z) observer.

    Two conditions: a constant kernel inclusion, and rank equality of two
    stacked matrices at every point of the closed right half plane.  The
    latter universally quantified statement is decided exactly through
    normal ranks and antistable zero multisets, never by sampling.  A note
    records uncontrollability, since the fixed-order theory assumes a
    controllable plant.  Its pencil is not P, so its matrices are written
    from S_e's rows.
    """
    forms = PlantForms.of(sys)
    n, m = forms.sys.n, forms.sys.m
    lhs, rhs, S, dual = _darouach_matrices(forms)
    ker = kernel_basis(lhs)
    kernel = _kernel_inclusion(lhs, rhs, ker)

    # rank of [E(sI-A), -EB, 0; C, D, 0; CA, CB, D] versus the constant
    # stack, for every s with Re s >= 0; the stack has rank
    # n + 2m - dim Ker lhs everywhere and no finite zeros.  With the input
    # v = (sI - A)x - Bu_1, the pencil is the system matrix of the plant S
    # with n unit invariants removed
    rl, zl = geometry.rank_and_zeros(S, n, geometry.vstar(S, n))
    rl -= n
    rr = n + 2 * m - ker.dim
    cmp_ = antistable_parts_equal(zl, POLY_ONE)
    rank_eq = RankEqualityCertificate(rl, rr, zl, POLY_ONE, cmp_, rl == rr and cmp_.equal)

    # controllable: the dual pair (A^T, B^T) is observable
    controllable = geometry.vstar(dual, n).rows.dim == n
    note = None if controllable else (
        "plant is not controllable; the fixed-order existence theory assumes "
        "controllability, so this verdict extrapolates outside its hypotheses")
    cert = DarouachCertificate(kernel, rank_eq, controllable, note)
    return Verdict(DAROUACH, kernel.holds and rank_eq.holds, cert)
