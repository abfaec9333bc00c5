"""Extended-system construction and invariant-subspace tests.

The extended system attaches the input as extra integrator states:

    A_e = [A B; 0 0],  B_e = [0; I_m],  C_e = [C D],  EF_e = [E F].

``vstar`` runs the classical nonincreasing fixed-point iteration for the
supremal (A_e, B_e)-invariant subspace inside a kernel.  The decision
surface for the properness side of observer existence is
``strong_star_inclusion``: every finite input chain whose trajectory stays
inside Ker C_e must keep the target rows [E F] silent as well.  The set of
states such chains can reach is the nondecreasing sequence

    R_0 = Im B_e  ^  Ker C_e,    R_{j+1} = (A_e R_j + Im B_e)  ^  Ker C_e,

and the verdict is "limit of R contained in Ker [E F]".  That matches the
block-Toeplitz kernel inclusions of the markov module for every order, and
it is what separates a merely stable estimate from a causally realizable
one.  The supremal subspaces and their intersections with Im B_e are kept
in the certificate for reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import QMatrix, Subspace, first_escape, image_basis, kernel_basis, preimage
from .system import SystemSextuple


@dataclass(frozen=True)
class ExtendedSystem:
    A_e: QMatrix
    B_e: QMatrix
    C_e: QMatrix
    EF_e: QMatrix


def extend(sys: SystemSextuple) -> ExtendedSystem:
    """Assemble A_e = [A B; 0 0], B_e = [0; I_m], C_e = [C D], EF_e = [E F]."""
    n, m = sys.n, sys.m
    A_e = QMatrix.from_blocks([
        [sys.A, sys.B],
        [QMatrix.zeros(m, n), QMatrix.zeros(m, m)],
    ])
    B_e = QMatrix.vstack([QMatrix.zeros(n, m), QMatrix.identity(m)])
    C_e = QMatrix.hstack([sys.C, sys.D])
    EF_e = QMatrix.hstack([sys.E, sys.F])
    return ExtendedSystem(A_e, B_e, C_e, EF_e)


def vstar(A_e: QMatrix, B_e: QMatrix, K: Subspace) -> tuple[Subspace, int]:
    """Supremal (A_e, B_e)-invariant subspace contained in K.

    Fixed point of V_0 = K, V_mu = K ^ A_e^{-1}(Im B_e + V_{mu-1}); the
    sequence is nonincreasing and must stabilise within dim K steps, which
    is asserted at runtime.
    """
    if A_e.rows != K.ambient_dim or A_e.cols != K.ambient_dim:
        raise ValueError("A_e must act on the ambient space of K")
    if B_e.rows != K.ambient_dim:
        raise ValueError("B_e must map into the ambient space of K")
    im_b = image_basis(B_e)
    current = K
    for step in range(K.dim + 1):
        nxt = K.intersect(preimage(A_e, im_b.sum(current)))
        if not nxt.is_subspace_of(current):
            raise AssertionError("invariant-subspace sequence not monotone")
        if nxt == current:
            return current, step
        current = nxt
    raise AssertionError("invariant-subspace iteration failed to stabilise")


def reachable_within(A_e: QMatrix, B_e: QMatrix, K: Subspace) -> tuple[Subspace, int]:
    """States reachable by input chains whose whole trajectory stays in K.

    Nondecreasing sequence R_0 = Im B_e ^ K, R_{j+1} = (A_e R_j + Im B_e) ^ K;
    stabilises within dim K steps (asserted).
    """
    im_b = image_basis(B_e)
    current = im_b.intersect(K)
    for step in range(K.dim + 1):
        pushed = image_basis(A_e @ current.basis) if current.dim else Subspace.zero(K.ambient_dim)
        nxt = pushed.sum(im_b).intersect(K)
        if not current.is_subspace_of(nxt):
            raise AssertionError("reachability sequence not monotone")
        if nxt == current:
            return current, step
        current = nxt
    raise AssertionError("reachability iteration failed to stabilise")


@dataclass(frozen=True)
class InclusionCertificate:
    """Verdict plus every subspace needed to re-check it."""
    holds: bool
    vstar_cd: Subspace
    vstar_ef: Subspace
    vstar_cd_in_image: Subspace
    vstar_ef_in_image: Subspace
    reachable: Subspace
    vstar_cd_steps: int
    vstar_ef_steps: int
    reachable_steps: int
    violation: tuple[Fraction, ...] | None


def strong_star_inclusion(sys: SystemSextuple) -> InclusionCertificate:
    """Decide the properness inclusion between measured and target chains.

    Holds iff every state reachable inside Ker C_e by an input chain lies
    in Ker [E F]; on failure the certificate carries a reachable state that
    the target rows can see.
    """
    ext = extend(sys)
    k_cd = kernel_basis(ext.C_e)
    k_ef = kernel_basis(ext.EF_e)
    im_b = image_basis(ext.B_e)
    v_cd, s_cd = vstar(ext.A_e, ext.B_e, k_cd)
    v_ef, s_ef = vstar(ext.A_e, ext.B_e, k_ef)
    reach, s_r = reachable_within(ext.A_e, ext.B_e, k_cd)
    violation = first_escape(reach, ext.EF_e)
    return InclusionCertificate(
        holds=violation is None,
        vstar_cd=v_cd,
        vstar_ef=v_ef,
        vstar_cd_in_image=v_cd.intersect(im_b),
        vstar_ef_in_image=v_ef.intersect(im_b),
        reachable=reach,
        vstar_cd_steps=s_cd,
        vstar_ef_steps=s_ef,
        reachable_steps=s_r,
        violation=violation,
    )
