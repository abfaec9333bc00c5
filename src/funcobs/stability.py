"""Exact right-half-plane root tests.

``is_hurwitz`` decides "all roots have strictly negative real part" for a
rational-coefficient polynomial via the exact Routh array, run on integer
numerators: each row is an integer list over one integer scale, and a
``Fraction`` is made only for the first-column entries that the report
carries.  The closed right half plane (Re >= 0) counts as unstable
territory, so imaginary-axis roots -- which surface as Routh
degeneracies -- are failures; no epsilon perturbation is ever needed.

``antistable_parts_equal`` compares the closed-right-half-plane root
multisets of two polynomials without factoring them: strip the gcd (when
it has positive degree), then both quotients must be Hurwitz.  The
quotients are coprime, so their antistable root sets can only agree by
both being empty, while the shared factor contributes identically to both
sides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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
    # Routh's rows 0 and 1 are p's numerators over its denominator, descending
    num, den = p._num[::-1], p._den
    if num[0] < 0:
        num = [-x for x in num]
    deg = p.degree
    if deg == 0:
        return HurwitzReport(True, None, ())
    if any(c <= 0 for c in num):
        return HurwitzReport(False, NONPOSITIVE_COEFFICIENT, ())
    b, a = num[::2], num[1::2]
    a += [0] * (len(b) - len(a))
    sb = sa = den
    first_col = [Fraction(b[0], den), Fraction(a[0], den)]
    # row k is a0 b_{j+1} - b0 a_{j+1} over sb a0, a = row k-1 and b = row
    # k-2 over sb, less its gcd; only its first entry is made a Fraction
    for _ in range(2, deg + 1):
        a0, b0 = a[0], b[0]
        if not a0:
            return HurwitzReport(False, ROUTH_DEGENERACY, tuple(first_col))
        new = [a0 * y - b0 * x for x, y in zip(a[1:], b[1:])] + [0]
        s = sb * a0
        g = gcd(s, *new)
        new = [x // g for x in new]
        b, sb, a, sa = a, sa, new, s // g
        first_col.append(Fraction(new[0], sa))
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
    if g.degree > 0:
        p, q = p.exact_div(g), q.exact_div(g)
    lp, rq = p.monic(), q.monic()
    lrep = is_hurwitz(lp)
    rrep = is_hurwitz(rq)
    return AntistableComparison(lrep.is_hurwitz and rrep.is_hurwitz,
                                g, lp, rq, lrep, rrep)
