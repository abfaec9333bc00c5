"""Extended-system construction, the chain-reachable subspace test, and
the observed rows of a pair (A, C).

The extended system attaches the input as extra integrator states:

    A_e = [A B; 0 0],  B_e = [0; I_m],  C_e = [C D],  EF_e = [E F].

The decision surface for the properness side of observer existence is
``strong_star_inclusion``: every finite input chain whose trajectory stays
inside Ker C_e must keep the target rows [E F] silent as well.  The set of
states such chains can reach is the nondecreasing sequence

    R_0 = Im B_e  ^  Ker C_e,    R_{j+1} = (A_e R_j + Im B_e)  ^  Ker C_e,

and the verdict is "limit of R contained in Ker [E F]".  That matches the
block-Toeplitz kernel inclusions of the markov module for every order, and
it is what separates a merely stable estimate from a causally realizable
one.  The certificate keeps only what decides the verdict and re-checks
it: the limit, its step count and, on failure, a reachable state that
[E F] does not annihilate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import QMatrix, Subspace, first_escape, image_basis, kernel_basis
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


def observed_rows(A: QMatrix, C: QMatrix) -> Subspace:
    """The row space of [C; CA; CA^2; ...] in its canonical rows.

    Grown one block C A^k at a time: once a block adds no dimension, no
    later one does, so the growth stops there or at dimension n.  Its
    kernel is the unobservable subspace of (A, C), and on the dual pair
    (A^T, B^T) it has dimension n exactly when (A, B) is controllable.
    """
    n = A.rows
    rows = Subspace.span(n, C.data)
    block = C
    while 0 < rows.dim < n:
        block = block @ A
        grown = Subspace.span(n, rows.rows + block.data)
        if grown.dim == rows.dim:
            break
        rows = grown
    return rows


@dataclass(frozen=True)
class InclusionCertificate:
    """Verdict plus what re-checks it: recompute ``reachable`` as the
    fixed point, then check it lies in Ker [E F], or that [E F] does not
    annihilate ``violation``."""
    holds: bool
    reachable: Subspace
    reachable_steps: int
    violation: tuple[Fraction, ...] | None


def strong_star_inclusion(sys: SystemSextuple) -> InclusionCertificate:
    """Decide the properness inclusion between measured and target chains.

    Holds iff every state reachable inside Ker C_e by an input chain lies
    in Ker [E F]; on failure the certificate carries a reachable state that
    the target rows can see.
    """
    ext = extend(sys)
    reach, steps = reachable_within(ext.A_e, ext.B_e, kernel_basis(ext.C_e))
    violation = first_escape(reach, ext.EF_e)
    return InclusionCertificate(holds=violation is None, reachable=reach,
                                reachable_steps=steps, violation=violation)
