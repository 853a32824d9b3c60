import random
from fractions import Fraction

import pytest

from reference import RewriteSystem, reduce, reduce_rightmost, self_overlaps, u_infinity_system
from rmtorus.freealg import (
    NCPoly,
    _image,
    normal_form,
    star_defect,
    star_image,
    u_infinity_relation,
)
from rmtorus.skewlaurent import SkewPoly, UP_ONE, UP_U, UPoly, shift_by_one, skew_mul

X1 = NCPoly({"1": 1})
X2 = NCPoly({"2": 1})
RS = u_infinity_system()
ALPHA = shift_by_one()
IMAGES = {"1": SkewPoly.term(ALPHA, 1, UP_ONE), "2": SkewPoly.term(ALPHA, 1, UP_U)}


def nc_mul(f, g):
    """The product of the free algebra: word concatenation, extended
    bilinearly; NCPoly adds up the repeated words."""
    return NCPoly([(wf + wg, cf * cg) for wf, cf in f.terms for wg, cg in g.terms])


def rand_ncpoly(rng, max_terms=4, max_len=4, rational=False):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = "".join(rng.choice("12") for _ in range(rng.randint(0, max_len)))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rational else rng.randint(-3, 3)
        terms[w] = terms.get(w, 0) + Fraction(c)
    return NCPoly(terms)


def embed(f):
    """The image of f under x1 -> t, x2 -> u*t, multiplied out by skew_mul."""
    out = SkewPoly(ALPHA, {})
    for w, c in f.terms:
        acc = SkewPoly.term(ALPHA, 0, UPoly.const(c))
        for ch in w:
            acc = skew_mul(acc, IMAGES[ch])
        out = out + acc
    return out


class TestNCPoly:
    def test_terms_are_nonzero_and_in_deglex_order(self):
        f = NCPoly([("2", 1), ("11", 2), ("1", 3), ("2", -1), ("", 0), ("12", Fraction(1, 2))])
        assert f.terms == (("1", 3), ("11", 2), ("12", Fraction(1, 2)))


class TestNCMul:
    def test_concat(self):
        assert nc_mul(X1, X2) == NCPoly({"12": 1})

    def test_bilinear(self):
        assert nc_mul(NCPoly([*X1.terms, *X2.terms]), X1) == NCPoly({"11": 1, "21": 1})

    def test_unit(self):
        one = NCPoly({"": 1})
        f = NCPoly({"121": 3, "": 2})
        assert nc_mul(one, f) == f
        assert nc_mul(f, one) == f

    def test_associative(self):
        rng = random.Random(3)
        for _ in range(30):
            f, g, h = (rand_ncpoly(rng) for _ in range(3))
            assert nc_mul(nc_mul(f, g), h) == nc_mul(f, nc_mul(g, h))


class TestReduce:
    """The rewriting oracle of tests/reference.py, checked on its own."""

    def test_single_step(self):
        assert reduce(NCPoly({"21": 1}), RS) == NCPoly({"12": 1, "11": -1})

    def test_already_normal(self):
        f = NCPoly({"12": 1})
        assert reduce(f, RS) == f

    def test_relation_reduces_to_zero(self):
        assert reduce(u_infinity_relation(), RS).is_zero

    def test_normal_forms_avoid_leading_word(self):
        rng = random.Random(5)
        for _ in range(100):
            nf = reduce(rand_ncpoly(rng), RS)
            for w, _ in nf.terms:
                assert "21" not in w

    def test_two_strategies_agree(self):
        rng = random.Random(7)
        for _ in range(100):
            f = rand_ncpoly(rng)
            assert reduce(f, RS) == reduce_rightmost(f, RS)

    def test_no_self_overlaps(self):
        assert self_overlaps(RS) == []

    def test_rewrite_must_decrease(self):
        with pytest.raises(ValueError):
            RewriteSystem([("12", NCPoly({"21": 1}))])


class TestNormalForm:
    def test_single_step(self):
        assert normal_form(NCPoly({"21": 1})) == NCPoly({"12": 1, "11": -1})

    def test_normal_words_are_fixed(self):
        for i in range(5):
            for j in range(5):
                f = NCPoly({"1" * i + "2" * j: Fraction(2, 3)})
                assert normal_form(f) == f

    def test_relation_and_zero(self):
        assert normal_form(u_infinity_relation()).is_zero
        assert normal_form(NCPoly()).is_zero

    def test_agrees_with_rewriting(self):
        rng = random.Random(19)
        for _ in range(400):
            f = rand_ncpoly(rng, max_terms=5, max_len=6, rational=True)
            assert normal_form(f) == reduce(f, RS)

    def test_images_of_normal_words_have_distinct_degrees(self):
        # the images of x1^(n-j) * x2^j, j = 0..n, are triangular in u, so
        # the leading u-term of a degree-n image names one normal word
        for n in range(1, 7):
            degrees = [_image("1" * (n - j) + "2" * j).degree() for j in range(n + 1)]
            assert degrees == list(range(n + 1))

    def test_image_is_the_skew_product(self):
        for n in range(6):
            for k in range(2**n):
                w = "".join("2" if (k >> i) & 1 else "1" for i in range(n))
                assert embed(NCPoly({w: 1})) == SkewPoly.term(ALPHA, n, _image(w))


class TestStarImage:
    def test_on_x1x2(self):
        # reverse then swap: x1*x2 is fixed
        assert star_image(NCPoly({"12": 1})) == NCPoly({"12": 1})

    def test_generator(self):
        assert star_image(X1) == X2
        assert star_image(X2) == X1

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(50):
            f = rand_ncpoly(rng)
            assert star_image(star_image(f)) == f

    def test_antimultiplicative(self):
        rng = random.Random(13)
        for _ in range(50):
            f, g = rand_ncpoly(rng), rand_ncpoly(rng)
            assert star_image(nc_mul(f, g)) == nc_mul(star_image(g), star_image(f))


class TestRelationPreserved:
    def test_quadratic_relation_not_preserved(self):
        rel = u_infinity_relation()
        assert star_defect(rel) == NCPoly({"11": 1, "22": -1})
        assert str(star_defect(rel)) == "x1^2 - x2^2"

    def test_zero_relation(self):
        assert star_defect(NCPoly()).is_zero

    def test_commutator_modulo_itself(self):
        # another relation, so another rule: the oracle's engine checks it
        x1x2, x2x1 = nc_mul(X1, X2), nc_mul(X2, X1)
        rel = NCPoly([*x1x2.terms, *((w, -c) for w, c in x2x1.terms)])
        rs = RewriteSystem([("21", NCPoly({"12": 1}))])
        assert reduce(rel, rs).is_zero
        assert reduce(star_image(rel), rs).is_zero

    def test_precondition(self):
        with pytest.raises(ValueError):
            star_defect(NCPoly({"1": 1}))


class TestSkewConsistency:
    def test_generator_map_respects_products(self):
        # map x1 -> t, x2 -> u*t; the quadratic relation is exactly the twist
        # relation, so neither normal form may change the image
        rng = random.Random(17)
        for _ in range(60):
            f = rand_ncpoly(rng, max_terms=3, max_len=4)
            assert embed(f) == embed(normal_form(f)) == embed(reduce(f, RS))
