"""Block lower-triangular Toeplitz matrices of Markov parameters.

M^k stacks D on the block diagonal and C A^{i-1-j} B below it; its kernel
consists of the input coefficient chains q_0..q_k whose response never
excites the output.  The inclusion "Ker M^k of the measured pair inside
Ker M^k of the target pair, for every k" is the order-by-order face of the
properness condition; the geometric test in the geometry module decides
the whole family at once, and this module serves as its finite cross-oracle
and as the witness extractor for the command-line reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import QMatrix, first_escape, kernel_basis
from .system import SystemSextuple


@dataclass(frozen=True)
class ToeplitzChain:
    k: int
    M: QMatrix


def toeplitz(A: QMatrix, B: QMatrix, C: QMatrix, D: QMatrix, k: int) -> ToeplitzChain:
    """The (k+1) x (k+1) block Toeplitz matrix of Markov parameters."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    p, m = D.shape
    markov = []
    power = QMatrix.identity(A.rows)
    for _ in range(k):
        markov.append(C @ power @ B)
        power = A @ power
    zero = QMatrix.zeros(p, m)
    grid = []
    for i in range(k + 1):
        row = []
        for j in range(k + 1):
            if i == j:
                row.append(D)
            elif i > j:
                row.append(markov[i - 1 - j])
            else:
                row.append(zero)
        grid.append(row)
    return ToeplitzChain(k, QMatrix.from_blocks(grid))


@dataclass(frozen=True)
class KernelInclusionReport:
    holds: bool
    failing_k: int | None
    witness: tuple[Fraction, ...] | None
    witness_chain: tuple[tuple[Fraction, ...], ...] | None

    def describe_witness(self) -> str:
        """The violating input direction as a vector polynomial q(s)."""
        if self.witness_chain is None:
            return ""
        k = len(self.witness_chain) - 1
        terms = []
        for i, q in enumerate(self.witness_chain):
            power = k - i
            vec = "(" + ", ".join(str(x) for x in q) + ")"
            if power == 0:
                terms.append(vec)
            elif power == 1:
                terms.append(f"{vec}*s")
            else:
                terms.append(f"{vec}*s^{power}")
        return " + ".join(terms)


def kernel_inclusion_upto(sys: SystemSextuple, kmax: int) -> KernelInclusionReport:
    """Check Ker M^k(C,D) inside Ker M^k(E,F) for every k <= kmax.

    On the smallest failing k the report carries an explicit kernel vector
    of the measured chain that the target chain maps to something nonzero,
    both flat and split into the coefficient blocks q_0..q_k.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    m = sys.m
    for k in range(kmax + 1):
        mcd = toeplitz(sys.A, sys.B, sys.C, sys.D, k).M
        mef = toeplitz(sys.A, sys.B, sys.E, sys.F, k).M
        vec = first_escape(kernel_basis(mcd), mef)
        if vec is not None:
            chain = tuple(tuple(vec[i * m:(i + 1) * m]) for i in range(k + 1))
            return KernelInclusionReport(False, k, vec, chain)
    return KernelInclusionReport(True, None, None, None)
