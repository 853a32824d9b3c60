"""Properties of the twisted Laurent ring over random rational twists
u -> p*u + q, p = 1 and p outside {0, 1} alike, drawn by hypothesis.  The
@example cases pin the shift u -> u + 1 and the scale p = -1.  Skipped when
hypothesis is not installed."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from reference import conv_mul, conv_star  # noqa: E402
from rmtorus.skewlaurent import (  # noqa: E402
    UP_ONE,
    UP_U,
    AffineAut,
    SkewPoly,
    UPoly,
    shift_by_one,
    skew_mul,
    skew_star,
)

# reproducible runs, so that a failure (or a mutant's survival) repeats
PROPERTY = settings(deadline=None, derandomize=True, database=None)

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
TWISTS = st.builds(AffineAut, RATIONALS.filter(bool), RATIONALS)
# the coefficients b_k of sum b_k t^k, k in -3..3, each of u-degree <= 3
TERMS = st.dictionaries(
    st.integers(-3, 3), st.lists(RATIONALS, max_size=4).map(UPoly.make), max_size=3
)

SHIFT = shift_by_one()
NEGATION = AffineAut(Fraction(-1), Fraction(1, 2))
UT = {1: UP_U}
MIXED = {-1: UP_ONE, 2: UPoly.make([Fraction(1, 2), Fraction(0), Fraction(-2)])}


@given(TWISTS, TERMS, TERMS, TERMS)
@example(SHIFT, UT, MIXED, {-2: UP_U})
@example(NEGATION, UT, MIXED, {-2: UP_U})
@PROPERTY
def test_associative(alpha, a, b, c):
    f, g, h = (SkewPoly(alpha, x) for x in (a, b, c))
    assert skew_mul(skew_mul(f, g), h) == skew_mul(f, skew_mul(g, h))


@given(TWISTS, TERMS)
@example(SHIFT, MIXED)
@example(NEGATION, MIXED)
@PROPERTY
def test_star_is_an_involution(alpha, a):
    f = SkewPoly(alpha, a)
    assert skew_star(skew_star(f)) == f


@given(TWISTS, TERMS, TERMS)
@example(SHIFT, UT, MIXED)
@example(NEGATION, UT, MIXED)
@PROPERTY
def test_star_reverses_products(alpha, a, b):
    f, g = SkewPoly(alpha, a), SkewPoly(alpha, b)
    assert skew_star(skew_mul(f, g)) == skew_mul(skew_star(g), skew_star(f))


@given(TWISTS, TERMS, TERMS)
@example(SHIFT, UT, MIXED)
@example(NEGATION, UT, MIXED)
@PROPERTY
def test_matches_convolution_oracle(alpha, a, b):
    f, g = SkewPoly(alpha, a), SkewPoly(alpha, b)
    assert skew_mul(f, g) == conv_mul(f, g)
    assert skew_star(f) == conv_star(f)
