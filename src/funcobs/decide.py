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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geometry
from .exactlin import QMatrix, Subspace, first_escape, kernel_basis
from .polymat import (POLY_ONE, Poly, build_system_matrices,
                      output_decoupling_zero_polynomial, pencil, poly_gcd,
                      rank_and_zero_polynomial)
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


def _kernel_inclusion(lhs: QMatrix, rhs: QMatrix) -> KernelInclusionCertificate:
    witness = first_escape(kernel_basis(lhs), rhs)
    return KernelInclusionCertificate(lhs, rhs, witness is None, witness)


def _detectability_certificate(sys: SystemSextuple) -> DetectabilityCertificate:
    P, Pe = build_system_matrices(sys)
    rp, zp = rank_and_zero_polynomial(P)
    rpe, zpe = rank_and_zero_polynomial(Pe)
    cmp_ = antistable_parts_equal(zp, zpe)
    return DetectabilityCertificate(rp, rpe, zp, zpe, cmp_, rp == rpe, cmp_.equal)


def strongly_functional_detectable(sys: SystemSextuple) -> Verdict:
    """Normal ranks of P and P_e agree and their antistable zero multisets
    coincide; equivalent to a stable rational solution of [M N] P = [E F]."""
    cert = _detectability_certificate(sys)
    return Verdict(STRONGLY, cert.rank_condition and cert.zero_condition, cert)


def functional_detectable(sys: SystemSextuple) -> Verdict:
    """Known-input (equivalently zero-input) detectability: the same rank
    and zero conditions applied to the input-stripped plant."""
    cert = _detectability_certificate(sys.known_input_reduction())
    return Verdict(FUNCTIONAL, cert.rank_condition and cert.zero_condition,
                   KnownInputCertificate(cert))


def strong_star_functional_detectable(sys: SystemSextuple) -> Verdict:
    """Strong detectability plus the chain-reachability inclusion; equivalent
    to a proper stable solution of [M N] P = [E F], i.e. to an observer whose
    estimate tracks z whenever y fades."""
    strong = _detectability_certificate(sys)
    inclusion = geometry.strong_star_inclusion(sys)
    holds = strong.rank_condition and strong.zero_condition and inclusion.holds
    return Verdict(STRONG_STAR, holds, StrongStarCertificate(strong, inclusion))


def hautus_strong_detectable(sys: SystemSextuple) -> Verdict:
    """State-reconstruction test (target z = x): normrank P = n + rank [-B; D]
    and all invariant zeros of P strictly stable."""
    rp, zp = rank_and_zero_polynomial(build_system_matrices(sys)[0])
    target = sys.n + QMatrix.vstack([-sys.B, sys.D]).rank()
    rep = is_hurwitz(zp)
    cert = HautusCertificate(rp, target, rp == target, zp, rep, rep.is_hurwitz)
    return Verdict(HAUTUS_STRONG, cert.rank_condition and cert.zero_condition, cert)


def hautus_strong_star_detectable(sys: SystemSextuple) -> Verdict:
    """State reconstruction from a fading measurement: the strong test plus
    Ker [D 0; CB D] inside Ker [0 0; B 0]."""
    strong = hautus_strong_detectable(sys)
    n, m, p = sys.n, sys.m, sys.p
    lhs = QMatrix.from_blocks([
        [sys.D, QMatrix.zeros(p, m)],
        [sys.C @ sys.B, sys.D],
    ])
    rhs = QMatrix.from_blocks([
        [QMatrix.zeros(n, m), QMatrix.zeros(n, m)],
        [sys.B, QMatrix.zeros(n, m)],
    ])
    kernel = _kernel_inclusion(lhs, rhs)
    cert = HautusStarCertificate(strong.certificate, kernel)
    return Verdict(HAUTUS_STRONG_STAR, strong.holds and kernel.holds, cert)


def _left_invertibility_certificate(sys: SystemSextuple) -> LeftInvertibilityCertificate:
    rp, zp = rank_and_zero_polynomial(build_system_matrices(sys)[0])
    od = output_decoupling_zero_polynomial(sys)
    g = poly_gcd(zp, od)
    quotient = zp.exact_div(g).monic()
    rep = is_hurwitz(quotient)
    return LeftInvertibilityCertificate(rp, sys.n + sys.m, rp == sys.n + sys.m,
                                        zp, od, g, quotient, rep, rep.is_hurwitz)


def asympt_strong_left_invertible(sys: SystemSextuple) -> Verdict:
    """Input-reconstruction test (target z = u): normrank P = n + m and all
    invariant zeros outside the unobservable modes strictly stable.  The set
    difference is taken multiplicity-wise through a gcd."""
    cert = _left_invertibility_certificate(sys)
    return Verdict(LEFT_INVERTIBLE, cert.rank_condition and cert.zero_condition, cert)


def asympt_strong_star_left_invertible(sys: SystemSextuple) -> Verdict:
    """Input reconstruction from a fading measurement: adds rank D = m."""
    strong = _left_invertibility_certificate(sys)
    rank_d = sys.D.rank()
    cert = LeftInvertibilityStarCertificate(strong, rank_d, sys.m, rank_d == sys.m)
    holds = strong.rank_condition and strong.zero_condition and cert.feedthrough_condition
    return Verdict(LEFT_INVERTIBLE_STAR, holds, cert)


def darouach_fixed_order(sys: SystemSextuple) -> Verdict:
    """Existence test for a fixed-order (order = dim z) observer.

    Two conditions: a constant kernel inclusion, and rank equality of two
    stacked matrices at every point of the closed right half plane.  The
    latter universally quantified statement is decided exactly through
    normal ranks and antistable zero multisets, never by sampling.  A note
    records uncontrollability, since the fixed-order theory assumes a
    controllable plant.
    """
    n, m, p, q = sys.n, sys.m, sys.p, sys.q
    zq_m = QMatrix.zeros(q, m)
    zp_m = QMatrix.zeros(p, m)
    ca, cb = sys.C @ sys.A, sys.C @ sys.B
    ea, eb = sys.E @ sys.A, sys.E @ sys.B
    lhs = QMatrix.from_blocks([
        [sys.E, sys.F, zq_m],
        [sys.C, sys.D, zp_m],
        [ca, cb, sys.D],
    ])
    kernel = _kernel_inclusion(lhs, QMatrix.hstack([ea, eb, sys.F]))

    # rank of [E(sI-A), -EB, 0; C, D, 0; CA, CB, D] versus the constant
    # stack above, for every s with Re s >= 0; the constant side has rank
    # lhs.rank() everywhere and no finite zeros
    stacked = pencil(QMatrix.from_blocks([[sys.E, zq_m, zq_m],
                                          [QMatrix.zeros(2 * p, n + 2 * m)]]),
                     QMatrix.from_blocks([[ea, eb, zq_m],
                                          [-sys.C, -sys.D, zp_m],
                                          [-ca, -cb, -sys.D]]))
    rl, zl = rank_and_zero_polynomial(stacked)
    rr = lhs.rank()
    cmp_ = antistable_parts_equal(zl, POLY_ONE)
    rank_eq = RankEqualityCertificate(rl, rr, zl, POLY_ONE, cmp_, rl == rr and cmp_.equal)

    controllable = geometry.reachable_within(sys.A, sys.B, Subspace.full(n))[0].dim == n
    note = None if controllable else (
        "plant is not controllable; the fixed-order existence theory assumes "
        "controllability, so this verdict extrapolates outside its hypotheses")
    cert = DarouachCertificate(kernel, rank_eq, controllable, note)
    return Verdict(DAROUACH, kernel.holds and rank_eq.holds, cert)
