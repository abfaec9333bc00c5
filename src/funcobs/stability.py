"""Exact right-half-plane root tests.

``is_hurwitz`` decides "all roots have strictly negative real part" for a
rational-coefficient polynomial via the exact Routh array.  The closed
right half plane (Re >= 0) counts as unstable territory, so imaginary-axis
roots -- which surface as Routh degeneracies -- are failures; no epsilon
perturbation is ever needed.

``antistable_parts_equal`` compares the closed-right-half-plane root
multisets of two polynomials without factoring them: strip the gcd, then
both quotients must be Hurwitz.  The quotients are coprime, so their
antistable root sets can only agree by both being empty, while the shared
factor contributes identically to both sides.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .polymat import Poly, poly_gcd

NONPOSITIVE_COEFFICIENT = "nonpositive_coefficient"
ROUTH_DEGENERACY = "routh_degeneracy"
SIGN_CHANGE = "sign_change"


class HurwitzReport(NamedTuple):
    is_hurwitz: bool
    failure_reason: str | None
    routh_first_column: tuple[Fraction, ...]


def is_hurwitz(p: Poly) -> HurwitzReport:
    """True iff every root of p has strictly negative real part.

    Nonzero constants pass (no roots).  The zero polynomial is rejected.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root-location verdict")
    if p.leading < 0:
        p = -p
    deg = p.degree
    if deg == 0:
        return HurwitzReport(True, None, ())
    coeffs = p.coeffs
    if any(c <= 0 for c in coeffs):
        return HurwitzReport(False, NONPOSITIVE_COEFFICIENT, ())

    desc = list(reversed(coeffs))
    width = (deg + 2) // 2
    row0 = [desc[i] if i < len(desc) else Fraction(0) for i in range(0, deg + 1, 2)]
    row1 = [desc[i] if i < len(desc) else Fraction(0) for i in range(1, deg + 1, 2)]
    row0 += [Fraction(0)] * (width - len(row0))
    row1 += [Fraction(0)] * (width - len(row1))
    table = [row0, row1]
    first_col = [row0[0], row1[0]]
    for _ in range(2, deg + 1):
        prev, prev2 = table[-1], table[-2]
        if prev[0] == 0:
            return HurwitzReport(False, ROUTH_DEGENERACY, tuple(first_col))
        new = []
        for j in range(width - 1):
            new.append((prev[0] * prev2[j + 1] - prev2[0] * prev[j + 1]) / prev[0])
        new.append(Fraction(0))
        table.append(new)
        first_col.append(new[0])
    if any(x == 0 for x in first_col):
        return HurwitzReport(False, ROUTH_DEGENERACY, tuple(first_col))
    if any(x < 0 for x in first_col):
        return HurwitzReport(False, SIGN_CHANGE, tuple(first_col))
    return HurwitzReport(True, None, tuple(first_col))


class AntistableComparison(NamedTuple):
    """Certificate for equality of closed-right-half-plane root multisets."""
    equal: bool
    shared: Poly
    left_quotient: Poly
    right_quotient: Poly
    left_report: HurwitzReport
    right_report: HurwitzReport


def antistable_parts_equal(p: Poly, q: Poly) -> AntistableComparison:
    """Do p and q have the same Re >= 0 roots, counted with multiplicity?"""
    if p.is_zero() or q.is_zero():
        raise ValueError("antistable comparison needs nonzero polynomials")
    g = poly_gcd(p, q)
    lp = p.exact_div(g).monic()
    rq = q.exact_div(g).monic()
    lrep = is_hurwitz(lp)
    rrep = is_hurwitz(rq)
    return AntistableComparison(lrep.is_hurwitz and rrep.is_hurwitz,
                                g, lp, rq, lrep, rrep)
