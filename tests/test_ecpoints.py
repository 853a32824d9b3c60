import math

import pytest

from reference import count_points_naive, snf_cokernel
from rmtorus.ecpoints import (
    Curve,
    count_points,
    fingerprint,
    hasse_bound,
    is_good_prime,
    is_prime,
    match_curve,
)
from rmtorus import ecpoints, units
from rmtorus.intmat import AbelianGroup, IMat2, build_Lp, cokernel_group, mat_det, mat_sub
from rmtorus.quadratic import canonicalize

SQRT2M1 = canonicalize(-1, 2, 1)
GOLDEN = canonicalize(-1, 5, 2)

FIXED_CURVES = [Curve(0, 1), Curve(-1, 0), Curve(1, 1), Curve(0, -4), Curve(2, 3)]


def primes_up_to(n):
    return [p for p in range(2, n + 1) if is_prime(p)]


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
            for p in primes_up_to(200):
                if not is_good_prime(curve, p):
                    continue
                n, ap = count_points(curve, p)
                assert n == count_points_naive(curve, p)
                assert abs(ap) <= hasse_bound(p)
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
        assert row.group.is_trivial()

    def test_identity_wiring(self):
        for theta in (SQRT2M1, GOLDEN):
            for row in fingerprint(theta, [2, 3, 5, 7, 11, 13]):
                assert mat_det(mat_sub(IMat2.identity(), row.Lp)) == 1 + row.p - row.T
                order = row.group.order()
                if row.det_iml != 0:
                    assert order == abs(row.det_iml)

    def test_closed_form_group_matches_snf(self):
        # the cokernel of I - L_p is cyclic of order |det(I - L_p)|; the SNF
        # oracle must agree for 1+p-T positive, zero and negative
        for p in primes_up_to(60):
            for t in range(-40, 2 * p + 40):
                expected = snf_cokernel(build_Lp(t, p))
                assert AbelianGroup(1, abs(1 + p - t)) == expected, (t, p)
                assert cokernel_group(build_Lp(t, p)) == expected, (t, p)
        for theta in (SQRT2M1, GOLDEN):
            for row in fingerprint(theta, primes_up_to(200)):
                assert row.group == snf_cokernel(row.Lp)

    @pytest.mark.parametrize(
        "primes", [[2], [5, 7, 11], primes_up_to(200)], ids=lambda ps: f"{len(ps)}primes"
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


class TestMatch:
    def test_empty_prime_list(self):
        report = match_curve(SQRT2M1, Curve(0, 1), [])
        assert report.entries == () and report.skipped == ()

    def test_skips_bad_primes(self):
        report = match_curve(SQRT2M1, Curve(0, 1), [2, 3, 5])
        assert report.skipped == (2, 3)
        assert [e.data.p for e in report.entries] == [5]

    def test_sqrt2_p5_comparison_recorded(self):
        # pi(5) = 3, T = tr(A^3) = 14, det(I-L_5) = 1+5-14 = -8; the curve
        # has 6 points, so this row records a mismatch (nothing is asserted
        # about agreement in general)
        report = match_curve(SQRT2M1, Curve(0, 1), [5])
        entry = report.entries[0]
        assert entry.data.det_iml == -8
        assert entry.ec_count == 6
        assert entry.match is False
        assert report.mismatching() == [5]

    def test_match_flag_definition(self):
        report = match_curve(SQRT2M1, Curve(0, 1), primes_up_to(30))
        for entry in report.entries:
            assert entry.match == (abs(entry.data.det_iml) == entry.ec_count)


class TestPrimality:
    def test_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_against_sympy_style_sieve(self):
        sieve = [True] * 1000
        sieve[0] = sieve[1] = False
        for i in range(2, 32):
            if sieve[i]:
                for j in range(i * i, 1000, i):
                    sieve[j] = False
        for n in range(1000):
            assert is_prime(n) == sieve[n]

    def test_hasse_bound_matches_float(self):
        for p in primes_up_to(500):
            assert hasse_bound(p) == int(2 * math.sqrt(p) + 1e-9)
