"""The chain-reachable subspace test and the observed rows of a pair (A, C).

The decision surface for the properness side of observer existence is
``strong_star_inclusion``: every finite input chain whose trajectory stays
inside Ker [C D] must keep the target rows [E F] silent as well.  The
chain's state is a pair (x, u) in Q^(n+m); write 0 + Q^m for the pairs
(0, u) and [A B] r + 0 for the pair ([A B] r, 0).  The set of pairs such
chains can reach is the nondecreasing sequence

    R_0 = (0 + Q^m)  ^  Ker [C D],
    R_{j+1} = ({[A B] r + 0 : r in R_j} + (0 + Q^m))  ^  Ker [C D],

grown on the plant's own rows [A B] and [C D].  The verdict is "limit of
R contained in Ker [E F]".  That matches the block-Toeplitz kernel
inclusions of the markov module for every order, and it is what separates
a merely stable estimate from a causally realizable one.  The certificate
keeps only what decides the verdict and re-checks it: the limit, its step
count and, on failure, a reachable pair that [E F] does not annihilate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import QMatrix, Subspace, first_escape, kernel_basis
from .system import SystemSextuple


def reachable_within(sys: SystemSextuple) -> tuple[Subspace, int]:
    """Pairs (x, u) reachable by input chains whose whole trajectory stays
    in Ker [C D], with the step at which the chain stops growing.

    Each step maps the canonical rows r of R_j to [A B] r + 0, adds the
    input directions 0 + Q^m and intersects with Ker [C D]; the sequence
    stabilises within dim Ker [C D] steps (asserted).
    """
    n, d = sys.n, sys.n + sys.m
    AB_T = QMatrix.hstack([sys.A, sys.B]).transpose()
    tail = (Fraction(0),) * sys.m
    # 0 + Q^m: unit rows in the last m columns, already canonical
    inputs = QMatrix.identity(d).data[n:]
    K = kernel_basis(QMatrix.hstack([sys.C, sys.D]))
    current = Subspace(d, inputs).intersect(K)
    for step in range(K.dim + 1):
        # row r [A B]^T is ([A B] r)^T, for every canonical row r at once
        pushed = [x + tail for x in (QMatrix(current.dim, d, current.rows) @ AB_T).data]
        nxt = Subspace.span(d, pushed + list(inputs)).intersect(K)
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

    Holds iff every pair reachable inside Ker [C D] by an input chain lies
    in Ker [E F]; on failure the certificate carries a reachable pair that
    the target rows can see.
    """
    reach, steps = reachable_within(sys)
    violation = first_escape(reach, QMatrix.hstack([sys.E, sys.F]))
    return InclusionCertificate(holds=violation is None, reachable=reach,
                                reachable_steps=steps, violation=violation)
