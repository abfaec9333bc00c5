from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from funcobs.polymat import POLY_ONE, Poly
from funcobs.stability import (NONPOSITIVE_COEFFICIENT, ROUTH_DEGENERACY,
                               SIGN_CHANGE, antistable_parts_equal, is_hurwitz)

import support


def poly(*asc):
    return Poly(list(asc))


class TestIsHurwitz:
    def test_first_order_stable(self):
        rep = is_hurwitz(poly(1, 1))
        assert rep.is_hurwitz and rep.failure_reason is None

    def test_unstable_root(self):
        rep = is_hurwitz(poly(-3, 1))
        assert not rep.is_hurwitz
        assert rep.failure_reason == NONPOSITIVE_COEFFICIENT

    def test_imaginary_axis_counts_as_unstable(self):
        rep = is_hurwitz(poly(1, 0, 1))  # s^2 + 1
        assert not rep.is_hurwitz
        assert rep.failure_reason == NONPOSITIVE_COEFFICIENT

    def test_degeneracy_detected(self):
        # (s^2 + 1)(s + 1): positive coefficients, axis roots
        rep = is_hurwitz(poly(1, 1, 1, 1))
        assert not rep.is_hurwitz
        assert rep.failure_reason == ROUTH_DEGENERACY

    def test_sign_change_detected(self):
        # positive coefficients yet two right-half-plane roots
        rep = is_hurwitz(poly(10, 11, 1, 1, 1))
        assert not rep.is_hurwitz
        assert rep.failure_reason == SIGN_CHANGE

    def test_cubic_cross_checked(self):
        p = poly(1, 3, 2, 1)
        roots = support.numeric_roots(p)
        assert all(r.real < 0 for r in roots)
        rep = is_hurwitz(p)
        assert rep.is_hurwitz
        assert all(x > 0 for x in rep.routh_first_column)

    def test_constants(self):
        assert is_hurwitz(poly(5)).is_hurwitz
        assert is_hurwitz(poly(-5)).is_hurwitz

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_hurwitz(Poly())

    def test_negative_leading_coefficient_normalized(self):
        assert is_hurwitz(poly(-1, -1)).is_hurwitz  # -(s + 1)

    def test_oracle_agreement(self, rng):
        checked = 0
        while checked < 300:
            deg = rng.randint(1, 8)
            p = Poly([rng.randint(-9, 9) for _ in range(deg)]
                     + [rng.choice([1, 2, 3, -1, -2])])
            if p.degree < 1:
                continue
            roots = support.numeric_roots(p)
            if any(abs(r.real) < 1e-6 for r in roots):
                continue
            checked += 1
            assert is_hurwitz(p).is_hurwitz == bool(all(r.real < 0 for r in roots))

    def test_product_property(self, rng):
        for _ in range(60):
            p = support.random_poly(rng, 3)
            q = support.random_poly(rng, 3)
            if p.is_zero() or q.is_zero():
                continue
            assert is_hurwitz(p * q).is_hurwitz == (
                is_hurwitz(p).is_hurwitz and is_hurwitz(q).is_hurwitz)


_COEFF = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))


@st.composite
def routh_polys(draw) -> Poly:
    """Nonzero rational polynomials of degree 0 to 10: any coefficients,
    or a product of stable factors s + a and s^2 + a s + b (a, b > 0),
    of s^2 + b, whose roots lie on the imaginary axis, and, one time in
    ten, of s - b; either with a sign of the whole."""
    if draw(st.booleans()):
        p = Poly(draw(st.lists(_COEFF, min_size=1, max_size=11)))
        return p if not p.is_zero() else POLY_ONE
    positive = st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 3]))
    p = POLY_ONE
    for kind in draw(st.lists(st.sampled_from("lqa"), max_size=5)):
        a, b = draw(positive), draw(positive)
        p = p * Poly({"l": [a, 1], "q": [b, a, 1], "a": [b, 0, 1]}[kind])
    if draw(st.integers(0, 9)) == 0:
        p = p * Poly([-draw(positive), 1])
    return -p if draw(st.booleans()) else p


class TestRouthOnIntegers:
    """``is_hurwitz`` runs Routh's recurrence on integer rows; the table
    over ``Fraction`` (``support.ref_is_hurwitz``) gives the same report,
    its first column included."""

    @given(routh_polys())
    @example(Poly([-1, -2, -1]))  # negative leading coefficient
    @example(Poly([Fraction(-5, 3)]))  # degree 0
    @example(Poly([Fraction(1, 3), 2]))  # degree 1
    @example(Poly([3, 2, 2, 1, 1]))  # a zero in the first column, mid-table
    @example(Poly([1, 1, 1, 1]))  # (s^2 + 1)(s + 1): a zero row
    @example(Poly([12, 10, 10, 5, 2]))  # (s^2 + 2)(s^2 + 5/2 s + 3) times 2
    def test_matches_the_fraction_table(self, p):
        assert is_hurwitz(p) == support.ref_is_hurwitz(p)

    def test_examples_reach_their_reasons(self):
        reasons = {is_hurwitz(Poly(c)).failure_reason
                   for c in ([3, 2, 2, 1, 1], [1, 1, 1, 1], [10, 11, 1, 1, 1], [1, 3, 3, 1])}
        assert reasons == {ROUTH_DEGENERACY, SIGN_CHANGE, None}
        # the zero lands mid-table: the report stops after it
        assert is_hurwitz(Poly([3, 2, 2, 1, 1])).routh_first_column == (1, 1, 0)


class TestAntistableComparison:
    def test_reflexive(self, rng):
        for _ in range(20):
            p = support.random_poly(rng, 4)
            if p.is_zero():
                continue
            assert antistable_parts_equal(p, p).equal

    def test_symmetric(self, rng):
        for _ in range(20):
            p, q = support.random_poly(rng, 3), support.random_poly(rng, 3)
            if p.is_zero() or q.is_zero():
                continue
            assert (antistable_parts_equal(p, q).equal
                    == antistable_parts_equal(q, p).equal)

    def test_stable_factor_ignored(self):
        cmp_ = antistable_parts_equal(poly(1, 1), POLY_ONE)
        assert cmp_.equal
        assert cmp_.shared == POLY_ONE

    def test_unstable_zero_on_one_side(self):
        assert not antistable_parts_equal(poly(-1, 1), POLY_ONE).equal

    def test_shared_unstable_root(self):
        p = poly(-2, 1) * poly(1, 1)
        q = poly(-2, 1) * poly(5, 1)
        cmp_ = antistable_parts_equal(p, q)
        assert cmp_.equal
        assert cmp_.shared == poly(-2, 1)
        roots = support.numeric_roots(cmp_.shared)
        assert all(r.real > 0 for r in roots)

    def test_multiplicity_matters(self):
        p = poly(-1, 1) * poly(-1, 1)   # (s-1)^2
        q = poly(-1, 1)
        assert not antistable_parts_equal(p, q).equal

    def test_certificate_reconstructs_inputs(self, rng):
        for _ in range(20):
            p, q = support.random_poly(rng, 3), support.random_poly(rng, 3)
            if p.is_zero() or q.is_zero():
                continue
            cmp_ = antistable_parts_equal(p, q)
            assert (cmp_.shared * cmp_.left_quotient).monic() == p.monic()
            assert (cmp_.shared * cmp_.right_quotient).monic() == q.monic()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            antistable_parts_equal(Poly(), poly(1, 1))
