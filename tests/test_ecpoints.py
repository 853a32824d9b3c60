import bisect
import math
import random
import time
import tracemalloc

import pytest

from reference import (
    SWEEP_CURVES,
    SWEEP_SURDS,
    count_points_euler,
    count_points_naive,
    primes_below,
    snf_cokernel,
    trace_norm,
)
from rmtorus.ecpoints import (
    COUNT_P_MAX,
    Curve,
    count_points,
    fingerprint,
    is_good_prime,
    is_prime,
    match_curve,
)
from rmtorus import ecpoints, units
from rmtorus.units import SearchLimitExceeded
from rmtorus.intmat import AbelianGroup, IMat2, build_Lp, cokernel_group, mat_det, mat_sub
from rmtorus.quadratic import canonicalize

SQRT2M1 = canonicalize(-1, 2, 1)
GOLDEN = canonicalize(-1, 5, 2)

PRIMES_BELOW_600 = primes_below(600)
FIXED_CURVES = [Curve(0, 1), Curve(-1, 0), Curve(1, 1), Curve(0, -4), Curve(2, 3)]

# psi_k, the least strong pseudoprime to each of the first k prime bases,
# for k = 1, 2, 3, 4, 5, 6, 7 (= psi_8), 9 (= psi_10 = psi_11) and 12
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]
MR_LIMIT = 3317044064679887385961981  # psi_13


class TestCurve:
    def test_discriminant(self):
        assert Curve(0, 1).discriminant() == -432
        assert Curve(-1, 0).discriminant() == 64

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            Curve(0, 0)
        with pytest.raises(ValueError):
            Curve(-3, 2)


class TestGoodPrime:
    def test_examples(self):
        assert is_good_prime(Curve(0, 1), 5) is True
        assert is_good_prime(Curve(0, 1), 3) is False
        assert is_good_prime(Curve(-1, 0), 2) is False

    def test_discriminant_divisor_is_bad(self):
        # disc(y^2 = x^3 - x) = 64; disc(y^2 = x^3 + 1) = -432 = -2^4*27
        assert is_good_prime(Curve(1, 1), 31) is False  # disc = -16*31

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            is_good_prime(Curve(0, 1), 9)


class TestCounts:
    def test_worked_values_f5(self):
        assert count_points_naive(Curve(0, 1), 5) == 6
        assert count_points_naive(Curve(-1, 0), 5) == 8
        assert count_points_naive(Curve(1, 1), 5) == 9
        assert count_points(Curve(0, 1), 5) == (6, 0)
        assert count_points(Curve(-1, 0), 5) == (8, -2)
        assert count_points(Curve(1, 1), 5) == (9, -3)

    def test_oracle_agreement(self):
        for curve in FIXED_CURVES:
            for p in primes_below(201):
                if not is_good_prime(curve, p):
                    continue
                n, ap = count_points(curve, p)
                assert n == count_points_naive(curve, p)
                assert ap * ap <= 4 * p

    def test_count_equals_frobenius_determinant(self):
        # companion matrix with trace a_p and determinant p plays Frobenius:
        # det(I - F) = 1 - a_p + p must equal the point count
        for p in (5, 7, 11, 13):
            n, ap = count_points(Curve(0, 1), p)
            fr = IMat2(ap, -p, 1, 0)
            assert mat_det(mat_sub(IMat2.identity(), fr)) == n

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            count_points(Curve(0, 1), 3)
        with pytest.raises(ValueError):
            count_points_naive(Curve(-1, 0), 2)

    @pytest.mark.parametrize("p", [p for p in primes_below(44) if p >= 5])
    def test_every_curve_over_small_fields(self, p):
        # every non-singular (a, b) in F_p^2: b = 0 (f(0) = 0, and every
        # reflected read sq[0 - v] is a negative index), a = 0, and p = 1
        # and 3 mod 4, where -1 is and is not a square
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p:
                    curve = Curve(a, b)
                    assert count_points(curve, p)[0] == count_points_euler(curve, p), (a, b)

    def test_matches_euler_oracle_on_the_sweep(self):
        # every good prime below 3000 for each curve of the match-sweep
        # benchmark: all F_p that `match` counts there
        primes = primes_below(3000)
        for a, b in SWEEP_CURVES:
            curve = Curve(a, b)
            for p in primes:
                if is_good_prime(curve, p):
                    assert count_points(curve, p)[0] == count_points_euler(curve, p), (a, b, p)

    def test_matches_euler_oracle_at_random(self):
        # 100 seeded (curve, p), p log-uniform up to the top of the
        # count-large-p range, so that every scale is drawn alike
        rng = random.Random(23)
        primes = primes_below(120_000)
        done = 0
        while done < 100:
            curve = Curve(rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6))
            p = primes[bisect.bisect(primes, int(math.exp(rng.uniform(1.6, math.log(120_000))))) - 1]
            if is_good_prime(curve, p):
                assert count_points(curve, p)[0] == count_points_euler(curve, p), (curve, p)
                done += 1

    @pytest.mark.parametrize(
        "a, b, p", [(0, 1, 999_983), (-1, 0, 1_000_003), (2, 3, 1_000_033)], ids=str
    )
    def test_twist_counts_sum_to_2p_plus_2(self, a, b, p):
        # the quadratic twist by a non-residue d, y^2 = x^3 + a*d^2*x + b*d^3,
        # has a_p of the opposite sign: #E + #E' = 2p + 2
        d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
        n, ap = count_points(Curve(a, b), p)
        twist, ap_twist = count_points(Curve(a * d * d, b * d**3), p)
        assert n + twist == 2 * p + 2 and ap_twist == -ap

    def test_table_is_the_only_p_sized_allocation(self):
        # the sum runs over a generator: no list of p values is built, and
        # the reflection x -> -x reads the one table again (sq[c - v]), so
        # no second p-sized object is built either
        p = 100_003
        tracemalloc.start()
        try:
            count_points(Curve(2, 3), p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * p


class TestCountBound:
    def test_bound(self):
        assert COUNT_P_MAX == 10**7

    def test_above_the_bound_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(SearchLimitExceeded, match=f"above {COUNT_P_MAX}"):
            count_points(Curve(0, 1), 1_000_000_007)
        assert time.perf_counter() - start < 1

    def test_bound_is_inclusive(self, monkeypatch):
        # the bound moved to a prime, so that p = bound can be counted
        monkeypatch.setattr(ecpoints, "COUNT_P_MAX", 10_007)
        assert count_points(Curve(0, 1), 10_007)[0] == count_points_euler(Curve(0, 1), 10_007)
        with pytest.raises(SearchLimitExceeded, match="above 10007"):
            count_points(Curve(0, 1), 10_009)

    def test_composite_above_the_bound_is_bad_input(self):
        with pytest.raises(ValueError, match="is not prime"):
            count_points(Curve(0, 1), 10**9)


class TestFingerprint:
    def test_sqrt2_rows(self):
        rows = {r.p: r for r in fingerprint(SQRT2M1, [2, 3])}
        assert rows[2].pi == 2 and rows[2].T == 6 and rows[2].det_iml == -3
        assert (rows[2].group.d1, rows[2].group.d2) == (1, 3)
        assert rows[3].pi == 4 and rows[3].T == 34 and rows[3].det_iml == -30
        assert (rows[3].group.d1, rows[3].group.d2) == (1, 30)

    def test_golden_row(self):
        (row,) = fingerprint(GOLDEN, [2])
        assert row.pi == 3 and row.T == 4 and row.det_iml == -1
        assert row.group == AbelianGroup(1, 1)

    def test_identity_wiring(self):
        for theta in (SQRT2M1, GOLDEN):
            for row in fingerprint(theta, [2, 3, 5, 7, 11, 13]):
                assert mat_det(mat_sub(IMat2.identity(), row.Lp)) == 1 + row.p - row.T
                assert row.group.d1 * row.group.d2 == abs(row.det_iml)

    def test_closed_form_group_matches_snf(self):
        # the cokernel of I - L_p is cyclic of order |det(I - L_p)|; the SNF
        # oracle must agree for 1+p-T positive, zero and negative
        for p in primes_below(61):
            for t in range(-40, 2 * p + 40):
                expected = snf_cokernel(build_Lp(t, p))
                assert AbelianGroup(1, abs(1 + p - t)) == expected, (t, p)
                assert cokernel_group(build_Lp(t, p)) == expected, (t, p)
        for theta in (SQRT2M1, GOLDEN):
            for row in fingerprint(theta, primes_below(201)):
                assert row.group == snf_cokernel(row.Lp)

    @pytest.mark.parametrize(
        "primes", [[2], [5, 7, 11], primes_below(201)], ids=lambda ps: f"{len(ps)}primes"
    )
    def test_one_unit_per_call(self, primes, monkeypatch):
        # one fundamental_unit call however many primes; no continued
        # fraction or period matrix of its own
        calls = []
        real = units.fundamental_unit

        def counting(order):
            calls.append(order)
            return real(order)

        for mod in (units, ecpoints):
            monkeypatch.setattr(mod, "fundamental_unit", counting, raising=False)
        for name in ("cf_expand", "matrix_A"):
            monkeypatch.setattr(ecpoints, name, None, raising=False)
        for theta in (SQRT2M1, GOLDEN):
            fingerprint(theta, primes)
        assert calls == [units.SubOrder(SQRT2M1), units.SubOrder(GOLDEN)]

    def test_rejects_small_prime(self):
        with pytest.raises(ValueError):
            fingerprint(SQRT2M1, [1])

    @pytest.mark.parametrize("primes", [[4], [5, 9], [25326001]], ids=str)
    def test_rejects_composite_before_any_unit(self, primes, monkeypatch):
        monkeypatch.setattr(ecpoints, "fundamental_unit", None)
        with pytest.raises(ValueError, match=f"{primes[-1]} is not prime"):
            fingerprint(SQRT2M1, primes)

    @pytest.mark.parametrize("cap", [0, -4])
    def test_rejects_cap_before_any_unit(self, cap, monkeypatch):
        monkeypatch.setattr(ecpoints, "fundamental_unit", None)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            fingerprint(SQRT2M1, [3], cap=cap)

    @pytest.mark.parametrize("surd", SWEEP_SURDS, ids=lambda t: ",".join(map(str, t)))
    def test_one_minus_theta(self, surd):
        # 1 - theta spans the same lattice as theta, and p*(1 - theta) the
        # same conductor-p sublattice as p*theta: same unit, same rows
        theta = canonicalize(*surd)
        flipped = canonicalize(theta.P - theta.Q, theta.D, -theta.Q)
        tr, nm = trace_norm(theta)
        assert trace_norm(flipped) == (2 - tr, 1 - tr + nm)
        assert fingerprint(flipped, PRIMES_BELOW_600) == fingerprint(theta, PRIMES_BELOW_600)


class TestMatch:
    def test_empty_prime_list(self):
        curve, entries, skipped = match_curve(SQRT2M1, Curve(0, 1), [])
        assert curve == Curve(0, 1) and entries == () and skipped == ()

    def test_skips_bad_primes(self):
        _, entries, skipped = match_curve(SQRT2M1, Curve(0, 1), [2, 3, 5])
        assert skipped == (2, 3)
        assert [row.p for row, _, _ in entries] == [5]

    def test_sqrt2_p5_comparison_recorded(self):
        # pi(5) = 3, T = tr(A^3) = 14, det(I-L_5) = 1+5-14 = -8; the curve
        # has 6 points, so this row records a mismatch (nothing is asserted
        # about agreement in general)
        _, entries, _ = match_curve(SQRT2M1, Curve(0, 1), [5])
        ((row, n, match),) = entries
        assert row.det_iml == -8
        assert n == 6
        assert match is False

    def test_match_flag_definition(self):
        _, entries, _ = match_curve(SQRT2M1, Curve(0, 1), primes_below(31))
        for row, n, match in entries:
            assert match == (abs(row.det_iml) == n)


class TestPrimality:
    def test_small(self):
        assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_against_sympy_style_sieve(self):
        # every n below 2*10^5, across the first bound, 2047, of one base
        primes = set(primes_below(2 * 10**5))
        for n in range(2 * 10**5):
            assert is_prime(n) == (n in primes), n

    def test_strong_pseudoprimes_are_composite(self):
        for n in STRONG_PSEUDOPRIMES:
            assert not is_prime(n), n

    def test_largest_prime_below_the_limit(self):
        assert is_prime(MR_LIMIT - 168)
        assert not any(is_prime(MR_LIMIT - k) for k in range(1, 168))

    @pytest.mark.parametrize("n", [MR_LIMIT, MR_LIMIT + 2, 10**30 + 57, 2**100])
    def test_limit_raises(self, n):
        with pytest.raises(ValueError, match="primality is decided only below"):
            is_prime(n)

    def test_matches_sympy_isprime(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(59)
        cases = []
        for digits in range(2, 25):
            lo, hi = 10 ** (digits - 1), 10**digits
            cases += [rng.randrange(lo, hi) | 1 for _ in range(40)]
            # primes are rare among random inputs: take the next prime too
            cases += [sympy.nextprime(rng.randrange(lo, hi)) for _ in range(5)]
        cases += [p * q for p, q in zip(cases[::7], cases[1::7]) if p * q < MR_LIMIT]
        for n in cases:
            assert is_prime(n) == sympy.isprime(n), n
