"""Block lower-triangular Toeplitz matrices of Markov parameters.

M^k stacks D on the block diagonal and C A^{i-1-j} B below it; its kernel
consists of the input coefficient chains q_0..q_k whose response never
excites the output.  The inclusion "Ker M^k of the measured pair inside
Ker M^k of the target pair, for every k" is the order-by-order face of the
properness condition; the geometric test in the geometry module decides
the whole family at once, and this module serves as its finite
cross-oracle.  M^k is the leading block corner of every higher order, so a
search up to kmax builds each chain once, at kmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import QMatrix, first_escape, kernel_basis
from .system import SystemSextuple


def toeplitz(A: QMatrix, B: QMatrix, C: QMatrix, D: QMatrix, k: int) -> QMatrix:
    """The (k+1) x (k+1) block Toeplitz matrix of Markov parameters.  Its
    leading (i+1) x (i+1) blocks are the matrices of the orders i < k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    p, m = D.shape
    c_powers = [C]  # C A^i for i < k
    for _ in range(1, k):
        c_powers.append(c_powers[-1] @ A)
    markov = [D] + [ca @ B for ca in c_powers[:k]]  # D, CB, CAB, ...
    zero = QMatrix.zeros(p, m)
    return QMatrix.from_blocks([[markov[i - j] if i >= j else zero for j in range(k + 1)]
                                for i in range(k + 1)])


@dataclass(frozen=True)
class KernelInclusionReport:
    holds: bool
    failing_k: int | None
    witness: tuple[Fraction, ...] | None


# no command runs it; the benchmark's small_batch times it as an op
def kernel_inclusion_upto(sys: SystemSextuple, kmax: int) -> KernelInclusionReport:
    """Check Ker M^k(C,D) inside Ker M^k(E,F) for every k <= kmax.

    On the smallest failing k the report carries an explicit kernel vector
    of the measured chain, the coefficient blocks q_0..q_k end to end, that
    the target chain maps to something nonzero.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    m, p, q = sys.m, sys.p, sys.q
    # order k is the leading (k+1)-block corner of order kmax
    mcd = toeplitz(sys.A, sys.B, sys.C, sys.D, kmax)
    mef = toeplitz(sys.A, sys.B, sys.E, sys.F, kmax)
    for k in range(kmax + 1):
        vec = first_escape(kernel_basis(_leading(mcd, (k + 1) * p, (k + 1) * m)),
                           _leading(mef, (k + 1) * q, (k + 1) * m))
        if vec is not None:
            return KernelInclusionReport(False, k, vec)
    return KernelInclusionReport(True, None, None)


# reached only through kernel_inclusion_upto, which the benchmark times
def _leading(M: QMatrix, rows: int, cols: int) -> QMatrix:
    return QMatrix(rows, cols, tuple(row[:cols] for row in M.data[:rows]))
