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
pencil are read off weakly unobservable subspaces (``geometry.vstar``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import geometry
from .exactlin import IntegerMatrix, QMatrix, Subspace, first_escape, kernel_basis
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


@dataclass(frozen=True)
class Verdict:
    name: str
    holds: bool
    certificate: object


@dataclass(frozen=True)
class DetectabilityCertificate:
    """Rank equality plus antistable zero-multiset equality for P and P_e."""
    normrank_p: int
    normrank_pe: int
    zero_poly_p: Poly
    zero_poly_pe: Poly
    antistable: AntistableComparison
    rank_condition: bool
    zero_condition: bool


@dataclass(frozen=True)
class KnownInputCertificate:
    """Certificate of the zero-input reduction (B, D, F dropped)."""
    reduced: DetectabilityCertificate


@dataclass(frozen=True)
class StrongStarCertificate:
    strong: DetectabilityCertificate
    inclusion: geometry.InclusionCertificate


@dataclass(frozen=True)
class HautusCertificate:
    normrank_p: int
    n_plus_rank_bd: int
    rank_condition: bool
    zero_poly_p: Poly
    zero_report: HurwitzReport
    zero_condition: bool


@dataclass(frozen=True)
class KernelInclusionCertificate:
    lhs: QMatrix
    rhs: QMatrix
    holds: bool
    witness: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class HautusStarCertificate:
    strong: HautusCertificate
    kernel: KernelInclusionCertificate


@dataclass(frozen=True)
class LeftInvertibilityCertificate:
    normrank_p: int
    full_rank: int
    rank_condition: bool
    zero_poly_p: Poly
    decoupling_poly: Poly
    removed_factor: Poly
    quotient: Poly
    quotient_report: HurwitzReport
    zero_condition: bool


@dataclass(frozen=True)
class LeftInvertibilityStarCertificate:
    strong: LeftInvertibilityCertificate
    rank_d: int
    input_dim: int
    feedthrough_condition: bool


@dataclass(frozen=True)
class RankEqualityCertificate:
    """Pointwise rank equality over Re >= 0 of two polynomial matrices."""
    normrank_lhs: int
    normrank_rhs: int
    zero_poly_lhs: Poly
    zero_poly_rhs: Poly
    antistable: AntistableComparison
    holds: bool


@dataclass(frozen=True)
class DarouachCertificate:
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


class PlantForms:
    """What the decisions read off one plant, each computed on first use
    and kept by this object alone: a call with a bare plant does all of
    its own work.  The plant's blocks are read into integers once
    (``integers``), and every V* call of the decisions takes them."""

    def __init__(self, sys: SystemSextuple):
        self.sys = sys

    @staticmethod
    def of(plant: SystemSextuple | PlantForms) -> PlantForms:
        return plant if isinstance(plant, PlantForms) else PlantForms(plant)

    @cached_property
    def integers(self) -> geometry.IntegerPlant:
        return geometry.IntegerPlant(self.sys)

    @cached_property
    def vstar(self) -> geometry.VStar:
        ints = self.integers
        return geometry.vstar(ints.A, ints.B, ints.C, ints.D)

    @cached_property
    def rank_and_zero(self) -> tuple[int, Poly]:
        """Normal rank and zero polynomial of P."""
        return geometry.rank_and_zeros(self.integers.A, self.integers.B, self.vstar)

    @cached_property
    def detectability(self) -> DetectabilityCertificate:
        ints = self.integers
        rp, zp = self.rank_and_zero
        # P_e's V* lies in P's: grow it from P's rows
        ve = geometry.vstar(ints.A, ints.B, IntegerMatrix.vstack([ints.C, ints.E]),
                            IntegerMatrix.vstack([ints.D, ints.F]), self.vstar.state_rows)
        rpe, zpe = geometry.rank_and_zeros(ints.A, ints.B, ve)
        cmp_ = antistable_parts_equal(zp, zpe)
        return DetectabilityCertificate(rp, rpe, zp, zpe, cmp_, rp == rpe, cmp_.equal)

    @cached_property
    def unobservable(self) -> geometry.VStar:
        """The unobservable subspace of (A, C), the m = 0 V*."""
        return geometry.unobservable(self.integers.A, self.integers.C)

    @cached_property
    def unobservable_modes(self) -> Poly:
        """The zero polynomial of [sI - A; C]: the unobservable modes."""
        return geometry.unobservable_modes(self.integers.A, self.unobservable)

    @cached_property
    def functional(self) -> DetectabilityCertificate:
        """The certificate of the input-free plant: [sI - A; C] and
        [sI - A; C; E] have normal rank n, and the zeros of the second lie
        among those of the first."""
        sys, ints = self.sys, self.integers
        zp = zpe = self.unobservable_modes
        if zp.degree > 0 and sys.q:
            # (A, [C; E])'s unobservable subspace lies in (A, C)'s: grow
            # it from (A, C)'s rows
            ce = geometry.unobservable(ints.A, IntegerMatrix.vstack([ints.C, ints.E]),
                                       self.unobservable.state_rows)
            zpe = geometry.unobservable_modes(ints.A, ce)
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
    inclusion = geometry.strong_star_inclusion(forms.integers)
    holds = strong.rank_condition and strong.zero_condition and inclusion.holds
    return Verdict(STRONG_STAR, holds, StrongStarCertificate(strong, inclusion))


def hautus_strong_detectable(sys: SystemSextuple | PlantForms) -> Verdict:
    """State-reconstruction test (target z = x): normrank P = n + rank [-B; D]
    and all invariant zeros of P strictly stable.  Negating B keeps the
    rank, so the rank is taken of [B; D], on the plant's integer rows."""
    forms = PlantForms.of(sys)
    ints = forms.integers
    rp, zp = forms.rank_and_zero
    target = forms.sys.n + IntegerMatrix.vstack([ints.B, ints.D]).rank()
    rep = is_hurwitz(zp)
    cert = HautusCertificate(rp, target, rp == target, zp, rep, rep.is_hurwitz)
    return Verdict(HAUTUS_STRONG, cert.rank_condition and cert.zero_condition, cert)


def hautus_strong_star_detectable(sys: SystemSextuple | PlantForms) -> Verdict:
    """State reconstruction from a fading measurement: the strong test plus
    Ker [D 0; CB D] inside Ker [0 0; B 0], the first-order Toeplitz
    matrices of (C, D) and (I, 0), on the plant's integer blocks."""
    forms = PlantForms.of(sys)
    n, m, p = forms.sys.n, forms.sys.m, forms.sys.p
    strong = hautus_strong_detectable(forms)
    B, C, D = forms.integers.B, forms.integers.C, forms.integers.D
    hstack, vstack, zeros = IntegerMatrix.hstack, IntegerMatrix.vstack, IntegerMatrix.zeros
    lhs = vstack([hstack([D, zeros(p, m)]), hstack([C @ B, D])])
    rhs = vstack([zeros(n, 2 * m), hstack([B, zeros(n, m)])])
    kernel = _kernel_inclusion(lhs, rhs, kernel_basis(lhs))
    cert = HautusStarCertificate(strong.certificate, kernel)
    return Verdict(HAUTUS_STRONG_STAR, strong.holds and kernel.holds, cert)


def _left_invertibility_certificate(forms: PlantForms) -> LeftInvertibilityCertificate:
    sys = forms.sys
    rp, zp = forms.rank_and_zero
    od = forms.unobservable_modes
    g = poly_gcd(zp, od)
    quotient = zp.exact_div(g).monic()
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
    """Input reconstruction from a fading measurement: adds rank D = m, on
    the plant's integer rows."""
    forms = PlantForms.of(sys)
    m = forms.sys.m
    strong = _left_invertibility_certificate(forms)
    rank_d = forms.integers.D.rank()
    cert = LeftInvertibilityStarCertificate(strong, rank_d, m, rank_d == m)
    holds = strong.rank_condition and strong.zero_condition and cert.feedthrough_condition
    return Verdict(LEFT_INVERTIBLE_STAR, holds, cert)


def darouach_fixed_order(sys: SystemSextuple | PlantForms) -> Verdict:
    """Existence test for a fixed-order (order = dim z) observer.

    Two conditions: a constant kernel inclusion, and rank equality of two
    stacked matrices at every point of the closed right half plane.  The
    latter universally quantified statement is decided exactly through
    normal ranks and antistable zero multisets, never by sampling.  A note
    records uncontrollability, since the fixed-order theory assumes a
    controllable plant.  Its pencil is not P, so it reads only the
    plant's integer blocks from the forms.
    """
    forms = PlantForms.of(sys)
    sys = forms.sys
    n, m, p, q = sys.n, sys.m, sys.p, sys.q
    ints = forms.integers
    A, B, C, D, E, F = ints.A, ints.B, ints.C, ints.D, ints.E, ints.F
    CA, CB = C @ A, C @ B
    hstack, vstack, zeros = IntegerMatrix.hstack, IntegerMatrix.vstack, IntegerMatrix.zeros
    # the constant stack [E F 0; C D 0; CA CB D] and [EA EB F]
    lhs = vstack([hstack([E, F, zeros(q, m)]), hstack([C, D, zeros(p, m)]),
                  hstack([CA, CB, D])])
    rhs = hstack([E @ A, E @ B, F])
    ker = kernel_basis(lhs)
    kernel = _kernel_inclusion(lhs, rhs, ker)

    # rank of [E(sI-A), -EB, 0; C, D, 0; CA, CB, D] versus the constant
    # stack, for every s with Re s >= 0; the stack has rank
    # n + 2m - dim Ker lhs everywhere and no finite zeros.  With the input
    # v = (sI - A)x - Bu_1, the pencil is the system matrix of the plant
    # (A, [B 0 I], [0; C; CA], [0 0 E; D 0 0; CB D 0]) with n unit
    # invariants removed
    bv = hstack([B, zeros(n, m), IntegerMatrix.identity(n)])
    cv = vstack([zeros(q, n), C, CA])
    dv = vstack([hstack([zeros(q, 2 * m), E]), hstack([D, zeros(p, m + n)]),
                 hstack([CB, D, zeros(p, n)])])
    rl, zl = geometry.rank_and_zeros(A, bv, geometry.vstar(A, bv, cv, dv))
    rl -= n
    rr = n + 2 * m - ker.dim
    cmp_ = antistable_parts_equal(zl, POLY_ONE)
    rank_eq = RankEqualityCertificate(rl, rr, zl, POLY_ONE, cmp_, rl == rr and cmp_.equal)

    # controllable: the dual pair (A^T, B^T) is observable
    controllable = len(geometry.unobservable(A.transpose(), B.transpose()).state_rows) == n
    note = None if controllable else (
        "plant is not controllable; the fixed-order existence theory assumes "
        "controllability, so this verdict extrapolates outside its hypotheses")
    cert = DarouachCertificate(kernel, rank_eq, controllable, note)
    return Verdict(DAROUACH, kernel.holds and rank_eq.holds, cert)
