import random
from fractions import Fraction

import pytest

from reference import conv_mul, conv_star, random_aut, random_skew, random_upoly
from rmtorus.skewlaurent import (
    AffineAut,
    SkewPoly,
    UP_ONE,
    UP_U,
    UPoly,
    check_star_coherent,
    shift_by_one,
    skew_mul,
    skew_star,
    verify_example2,
)

SHIFT = shift_by_one()


def t_pow(alpha, k, poly=UP_ONE):
    return SkewPoly.term(alpha, k, poly)


def upoly(*cs):
    return UPoly.make([Fraction(c) for c in cs])


class TestSkewMul:
    def test_t_past_u(self):
        # moving t left past u applies the shift once
        assert skew_mul(t_pow(SHIFT, 1), t_pow(SHIFT, 0, UP_U)) == t_pow(SHIFT, 1, upoly(1, 1))

    def test_t_squared_past_u(self):
        t2 = t_pow(SHIFT, 2)
        assert skew_mul(t2, t_pow(SHIFT, 0, UP_U)) == t_pow(SHIFT, 2, upoly(2, 1))

    def test_ut_times_ut(self):
        ut = t_pow(SHIFT, 1, UP_U)
        # u * alpha(u) = u*(u+1) = u^2 + u
        assert skew_mul(ut, ut) == t_pow(SHIFT, 2, upoly(0, 1, 1))

    def test_t_tinv(self):
        assert skew_mul(t_pow(SHIFT, 1), t_pow(SHIFT, -1)) == t_pow(SHIFT, 0)

    def test_mismatched_twists(self):
        other = AffineAut(Fraction(1), Fraction(2))
        with pytest.raises(ValueError):
            skew_mul(t_pow(SHIFT, 1), t_pow(other, 1))

    def test_iterated_commutation_matches_closed_form(self):
        # pushing t past b one power at a time agrees with the m-fold twist
        rng = random.Random(5)
        twists = (SHIFT, AffineAut(Fraction(2), Fraction(3)), AffineAut(Fraction(-1, 2), Fraction(1)))
        for alpha in twists:
            b = random_upoly(rng)
            f = SkewPoly.term(alpha, 0, b)
            t = t_pow(alpha, 1)
            acc = f
            for m in range(7):
                assert acc == SkewPoly.term(alpha, m, alpha.power(m).apply(b))
                acc = skew_mul(t, acc)


class TestStar:
    def test_star_t(self):
        assert skew_star(t_pow(SHIFT, 1)) == t_pow(SHIFT, -1)

    def test_star_constant(self):
        # over Q the involution fixes every constant
        c = SkewPoly.term(SHIFT, 0, UPoly.const(Fraction(-1, 2)))
        assert skew_star(c) == c

    def test_star_ut(self):
        # (u t)* = alpha^{-1}(u) t^{-1} = (u - 1) t^{-1}
        assert skew_star(t_pow(SHIFT, 1, UP_U)) == t_pow(SHIFT, -1, upoly(-1, 1))

    def test_involutive(self):
        rng = random.Random(7)
        for _ in range(50):
            alpha = random_aut(rng)
            f = random_skew(rng, alpha)
            assert skew_star(skew_star(f)) == f

    def test_antimultiplicative(self):
        rng = random.Random(9)
        for _ in range(50):
            alpha = random_aut(rng)
            f = random_skew(rng, alpha)
            g = random_skew(rng, alpha)
            assert skew_star(skew_mul(f, g)) == skew_mul(skew_star(g), skew_star(f))


class TestConvolution:
    def test_single_term(self):
        f = t_pow(SHIFT, 1, UP_U)
        g = t_pow(SHIFT, 0, UP_U)
        prod = conv_mul(f, g)
        # (fg)(1) = u * alpha(u) = u^2 + u
        assert prod == t_pow(SHIFT, 1, upoly(0, 1, 1))
        assert prod == skew_mul(f, g)

    def test_unit_element(self):
        rng = random.Random(11)
        one = t_pow(SHIFT, 0)
        for _ in range(20):
            g = random_skew(rng, SHIFT)
            assert conv_mul(one, g) == g
            assert conv_mul(g, one) == g

    def test_t_tinv_delta(self):
        prod = conv_mul(t_pow(SHIFT, 1), t_pow(SHIFT, -1))
        assert prod == t_pow(SHIFT, 0)

    def test_conv_star_examples(self):
        c = SkewPoly.term(SHIFT, 0, UPoly.const(Fraction(2, 3)))
        assert conv_star(c) == c
        assert conv_star(t_pow(SHIFT, 1)) == t_pow(SHIFT, -1)
        assert conv_star(t_pow(SHIFT, 1, UP_U)) == t_pow(SHIFT, -1, upoly(-1, 1))

    def test_matches_skew_routes(self):
        rng = random.Random(13)
        for _ in range(200):
            alpha = random_aut(rng)
            f = random_skew(rng, alpha)
            g = random_skew(rng, alpha)
            assert conv_mul(f, g) == skew_mul(f, g)
            assert conv_star(f) == skew_star(f)


class TestRingAxioms:
    def test_zero_operands(self):
        z = SkewPoly(SHIFT, {})
        f = t_pow(SHIFT, 2, UP_U)
        assert skew_mul(z, f).is_zero
        assert skew_mul(f, z).is_zero
        assert conv_mul(z, f).is_zero
        assert skew_star(z).is_zero
        assert conv_star(z).is_zero
        assert (f - f).is_zero

    def test_associative_and_distributive(self):
        rng = random.Random(17)
        for _ in range(200):
            alpha = random_aut(rng)
            f = random_skew(rng, alpha)
            g = random_skew(rng, alpha)
            h = random_skew(rng, alpha)
            assert skew_mul(skew_mul(f, g), h) == skew_mul(f, skew_mul(g, h))
            assert skew_mul(f, g + h) == skew_mul(f, g) + skew_mul(f, h)


class TestCoherence:
    # p and q as (re, im) pairs
    def test_real_shift(self):
        assert check_star_coherent((1, 0), (1, 0))

    def test_imaginary_shift(self):
        # (u*)^alpha = u + i while (u^alpha)* = u - i
        assert not check_star_coherent((1, 0), (0, 1))

    def test_negation(self):
        assert check_star_coherent((-1, 0), (0, 0))

    def test_rational_real(self):
        assert check_star_coherent((Fraction(1, 2), 0), (5, 0))
        assert not check_star_coherent((0, 1), (0, 0))

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError, match="p must be nonzero"):
            check_star_coherent((0, 0), (1, 0))


class TestExample2:
    def test_shift_satisfies_relation(self):
        assert verify_example2() is True

    def test_shift_by_two_fails(self):
        assert verify_example2(AffineAut(Fraction(1), Fraction(2))) is False

    def test_identity_twist_fails(self):
        assert verify_example2(AffineAut(Fraction(1), Fraction(0))) is False


class TestAffineAut:
    def test_power_closed_form(self):
        rng = random.Random(19)
        for _ in range(30):
            alpha = random_aut(rng)
            poly = random_upoly(rng)
            stepped = poly
            for m in range(5):
                assert alpha.power(m).apply(poly) == stepped
                stepped = alpha.apply(stepped)

    def test_inverse(self):
        rng = random.Random(23)
        for _ in range(30):
            alpha = random_aut(rng)
            poly = random_upoly(rng)
            assert alpha.power(-1).apply(alpha.apply(poly)) == poly
            assert alpha.power(-3).apply(alpha.power(3).apply(poly)) == poly

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            AffineAut(Fraction(0), Fraction(1))

    def test_inverse_has_fraction_fields(self):
        # with an int scale, p ** -1 alone would be the float 0.5
        inv = AffineAut(2, 3).power(-1)
        assert (inv.p, inv.q) == (Fraction(1, 2), Fraction(-3, 2))
        assert type(inv.p) is type(inv.q) is Fraction
