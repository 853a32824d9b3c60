import math
import random

import pytest

from reference import (
    cf_value,
    expand_cycle_by_dict,
    oracle_quotients,
    primitive_triple,
    random_surd,
    trace_norm,
)
from rmtorus.quadratic import (
    ContinuedFraction,
    QuadraticIrrational,
    _expand_cycle,
    canonicalize,
    cf_expand,
)


def approx_value(t: QuadraticIrrational) -> float:
    return (t.P + math.sqrt(t.D)) / t.Q


def unrolled(cf: ContinuedFraction, n: int) -> list[int]:
    out = list(cf.preperiod)
    while len(out) < n:
        out.extend(cf.period)
    return out[:n]


class TestCanonicalize:
    def test_already_canonical(self):
        t = canonicalize(1, 5, 2)
        assert (t.P, t.D, t.Q) == (1, 5, 2)

    def test_q_one(self):
        t = canonicalize(0, 2, 1)
        assert (t.P, t.D, t.Q) == (0, 2, 1)

    def test_rescale(self):
        t = canonicalize(1, 3, 3)
        assert (t.P, t.D, t.Q) == (3, 27, 9)
        assert abs(approx_value(t) - (1 + math.sqrt(3)) / 3) < 1e-12

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rng.randint(-30, 30)
            d = rng.randint(2, 500)
            q = rng.randint(-15, 15)
            if q == 0 or math.isqrt(d) ** 2 == d:
                continue
            t = canonicalize(p, d, q)
            t2 = canonicalize(t.P, t.D, t.Q)
            assert (t.P, t.D, t.Q) == (t2.P, t2.D, t2.Q)
            assert abs(approx_value(t) - (p + math.sqrt(d)) / q) < 1e-9

    @pytest.mark.parametrize("bad", [(1, -5, 2), (1, 9, 2), (1, 0, 2), (1, 5, 0)])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            canonicalize(*bad)

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 3, 3)

    def test_constructor_rejects_non_primitive(self):
        # (2 + sqrt(8))/2 = 1 + sqrt(2): Q | D - P^2 holds, but the triple is
        # twice (1, 2, 1)
        with pytest.raises(ValueError, match="not primitive"):
            QuadraticIrrational(2, 8, 2)

    def test_matches_primitive_triple_oracle(self):
        # every triple of a value is a positive multiple of the primitive one,
        # so canonicalize must map all of them to the same fields
        rng = random.Random(71)
        cases = 0
        while cases < 5000:
            p = rng.randint(-60, 60)
            d = rng.randint(2, 3000)
            q = rng.randint(-40, 40)
            if q == 0 or math.isqrt(d) ** 2 == d:
                continue
            t = canonicalize(p, d, q)
            assert (t.P, t.D, t.Q) == primitive_triple(p, d, q), (p, d, q)
            for k in range(2, 10):
                s = canonicalize(k * p, k * k * d, k * q)
                assert (s.P, s.D, s.Q) == (t.P, t.D, t.Q), (p, d, q, k)
            cases += 1

    def test_value_equality_across_representations(self):
        assert canonicalize(0, 8, 2) == canonicalize(0, 2, 1)
        assert canonicalize(2, 8, 2) == canonicalize(1, 2, 1)
        assert canonicalize(1, 5, 2) != canonicalize(-1, 5, 2)
        assert hash(canonicalize(0, 8, 2)) == hash(canonicalize(0, 2, 1))


class TestExpand:
    def test_golden(self):
        cf = cf_expand(canonicalize(-1, 5, 2))
        assert cf.preperiod == (0,)
        assert cf.period == (1,)

    def test_sqrt2_minus_1(self):
        cf = cf_expand(canonicalize(-1, 2, 1))
        assert cf.preperiod == (0,)
        assert cf.period == (2,)
        assert unrolled(cf, 12) == oracle_quotients(-1, 2, 1, 12)

    def test_sqrt3(self):
        cf = cf_expand(canonicalize(0, 3, 1))
        assert cf.preperiod == (1,)
        assert cf.period == (1, 2)
        assert unrolled(cf, 12) == oracle_quotients(0, 3, 1, 12)

    def test_matches_oracle_randomly(self):
        rng = random.Random(11)
        for _ in range(40):
            t = random_surd(rng, 2000)
            cf = cf_expand(t)
            n = len(cf.preperiod) + 3 * len(cf.period) + 5
            assert unrolled(cf, n) == oracle_quotients(t.P, t.D, t.Q, n)

    def test_period_is_primitive(self):
        rng = random.Random(13)
        for _ in range(40):
            per = cf_expand(random_surd(rng)).period
            n = len(per)
            for d in range(1, n):
                if n % d == 0:
                    assert per != per[:d] * (n // d)

    def test_cycle_found_within_linear_state_bound(self):
        # the (P, Q) recurrence must repeat within O(D) steps; count directly
        rng = random.Random(19)
        for theta in [random_surd(rng) for _ in range(20)] + [
            canonicalize(0, 9949, 1),  # long-period worst cases near the D cap
            canonicalize(0, 9199, 1),
            canonicalize(-37, 9973, 12),
        ]:
            cf = cf_expand(theta)
            assert len(cf.preperiod) + len(cf.period) <= 2 * theta.D + 64
            assert cf_value(cf) == theta

    def test_tall_input_with_small_d(self):
        # huge P and Q with D = 5: the walk into the reduced range is long
        # (Euclid-like) but must still terminate and round-trip
        p = 10**9
        q = 5 - p * p  # divides D - P^2 by construction
        t = canonicalize(p, 5, q)
        cf = cf_expand(t)
        assert cf_value(cf) == t
        assert _expand_cycle(t) == expand_cycle_by_dict(t)[:2]

    def test_cycle_matches_dict_oracle(self):
        # preperiod and period; the oracle also returns the cycle-start state
        rng = random.Random(47)
        cases = 0
        while cases < 3000:
            d = rng.randint(2, 10**5)
            if math.isqrt(d) ** 2 == d:
                continue
            p = rng.randint(-300, 300)
            qs = [q for q in range(1, 301) if (d - p * p) % q == 0]
            q = rng.choice(qs) * rng.choice((1, -1))
            # a scaled triple steps through the scaled states, so the
            # primitive one has the same quotients
            t = canonicalize(p, d, q)
            assert _expand_cycle(t) == expand_cycle_by_dict(t)[:2], t
            cases += 1

    def test_long_period_builds_no_surd_per_step(self, monkeypatch):
        # the cycle steps (P, Q) as plain integers: no QuadraticIrrational,
        # and so no constructor check, per term of a 3702-term period
        theta = canonicalize(-3162, 10000054, 1)
        built = []
        check = QuadraticIrrational.__init__
        monkeypatch.setattr(
            QuadraticIrrational, "__init__", lambda self, *args: built.append(args) or check(self, *args)
        )
        cf = cf_expand(theta)
        assert len(cf.period) == 3702
        assert len(built) <= 2
        assert unrolled(cf, 200) == oracle_quotients(-3162, 10000054, 1, 200)

    def test_broken_invariant_raises(self):
        # (1 + sqrt(3))/3 bypassing the constructor: 3 does not divide 3 - 1
        t = object.__new__(QuadraticIrrational)
        for name, value in zip("PDQ", (1, 3, 3)):
            object.__setattr__(t, name, value)
        with pytest.raises(ValueError, match="Q does not divide D - P"):
            cf_expand(t)

    def test_matches_sympy_continued_fraction_periodic(self):
        cfrac = pytest.importorskip("sympy.ntheory.continued_fraction")
        rng = random.Random(43)
        for _ in range(30):
            t = random_surd(rng, 1000)
            *pre, per = cfrac.continued_fraction_periodic(t.P, t.Q, t.D)
            cf = cf_expand(t)
            assert (cf.preperiod, cf.period) == (tuple(pre), tuple(per)), t

    def test_unit_interval_preperiod_starts_with_zero(self):
        rng = random.Random(17)
        seen = 0
        for _ in range(200):
            t = random_surd(rng, 3000)
            if 0 < approx_value(t) < 1:
                assert cf_expand(t).preperiod[:1] == (0,)
                seen += 1
        assert seen > 5


class TestFloor:
    def test_matches_float_both_q_signs(self):
        rng = random.Random(37)
        for _ in range(300):
            p = rng.randint(-40, 40)
            d = rng.randint(2, 3000)
            q = rng.randint(-12, 12)
            if q == 0 or math.isqrt(d) ** 2 == d:
                continue
            t = canonicalize(p, d, q)
            assert t.floor() == math.floor(approx_value(t))


class TestValue:
    """The round-trip oracle cf_value of tests/reference.py, checked on its own."""

    def test_single_entry_periods_closed_form(self):
        # tail of period (k) solves y = k + 1/y, i.e. y = (k + sqrt(k^2+4))/2
        for k in range(1, 10):
            v = cf_value(ContinuedFraction((), (k,)))
            assert v == canonicalize(k, k * k + 4, 2)

    def test_golden_tail(self):
        v = cf_value(ContinuedFraction((0,), (1,)))
        assert v == canonicalize(-1, 5, 2)

    def test_sqrt2_minus_1(self):
        v = cf_value(ContinuedFraction((0,), (2,)))
        assert v == canonicalize(-1, 2, 1)

    def test_sqrt3(self):
        v = cf_value(ContinuedFraction((1,), (1, 2)))
        assert v == canonicalize(0, 3, 1)

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError):
            ContinuedFraction((1,), ())

    def test_rejects_imprimitive_period(self):
        with pytest.raises(ValueError):
            ContinuedFraction((0,), (1, 2, 1, 2))

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(50):
            t = random_surd(rng)
            assert cf_value(cf_expand(t)) == t

    def test_float_cross_check(self):
        rng = random.Random(29)
        for _ in range(25):
            t = random_surd(rng, 500)
            v = cf_value(cf_expand(t))
            assert abs(approx_value(v) - approx_value(t)) < 1e-9


class TestConjTraceNorm:
    """The trace and norm of theta that the unit oracles of reference.py use."""

    def test_sqrt2_minus_1(self):
        assert trace_norm(canonicalize(-1, 2, 1)) == (-2, -1)

    def test_golden_numerator(self):
        assert trace_norm(canonicalize(1, 5, 2)) == (1, -1)

    def test_sqrt3(self):
        assert trace_norm(canonicalize(0, 3, 1)) == (0, -3)

    def test_conjugate_float(self):
        rng = random.Random(31)
        for _ in range(30):
            t = random_surd(rng, 800)
            x = approx_value(t)
            y = (t.P - math.sqrt(t.D)) / t.Q
            tr, nm = trace_norm(t)
            assert abs((x + y) - tr) < 1e-9
            assert abs(x * y - nm) < 1e-9
