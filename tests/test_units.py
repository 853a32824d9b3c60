import math
import random
import time

import pytest

from reference import (
    SWEEP_SURDS,
    Elt,
    brute_force_unit,
    cycle_surd_unit,
    elt_mul,
    exact_pi_index,
    pi_index_scan,
    primes_below,
    random_surd,
    trace_norm,
)
from rmtorus.ecpoints import fingerprint
from rmtorus.intmat import IMat2, mat_det, mat_mul, mat_pow, mat_trace, mat_trace_pow, matrix_A
from rmtorus.quadratic import canonicalize, cf_expand
from rmtorus.units import SearchLimitExceeded, SubOrder, fundamental_unit, pi_index

SQRT2M1 = canonicalize(-1, 2, 1)
GOLDEN = canonicalize(-1, 5, 2)
SQRT3M1 = canonicalize(-1, 3, 1)

THETAS = [SQRT2M1, GOLDEN, SQRT3M1]
PRIMES = [2, 3, 5, 7, 11, 13]

RING_SURDS = [
    s for s in SWEEP_SURDS if all(v.denominator == 1 for v in trace_norm(canonicalize(*s)))
]
PRIMES_BELOW_600 = primes_below(600)


def unit(theta, conductor=1):
    return fundamental_unit(SubOrder(theta, conductor))


def coords(m, conductor=1):
    """(x, y) with eps = x + y*theta, for the matrix m of eps on {1, f*theta}."""
    return m.a, conductor * m.c


class TestEltMul:
    """The exact product behind exact_pi_index, checked on its own."""

    def test_identity(self):
        a = Elt(1, 1, SQRT2M1)
        one = Elt(1, 0, SQRT2M1)
        assert elt_mul(a, one) == a

    def test_sqrt2_square(self):
        theta = canonicalize(0, 2, 1)
        sq = elt_mul(Elt(1, 1, theta), Elt(1, 1, theta))
        assert sq == Elt(3, 2, theta)

    def test_golden_square_against_expansion_oracle(self):
        # (1 + theta)^2 expanded symbolically: 1 + 2*theta + theta^2 with
        # theta^2 = tr*theta - nm = -theta + 1, so the square is 2 + theta
        sq = elt_mul(Elt(1, 1, GOLDEN), Elt(1, 1, GOLDEN))
        assert sq == Elt(2, 1, GOLDEN)

    def test_mismatched_theta(self):
        with pytest.raises(ValueError):
            elt_mul(Elt(1, 1, SQRT2M1), Elt(1, 1, GOLDEN))

    def test_product_outside_order_rejected(self):
        # (1+sqrt(5))/3 has trace 2/3, so Z + Z*theta is not closed under
        # multiplication and the integrality assertion must fire
        theta = canonicalize(1, 5, 3)
        with pytest.raises(ValueError):
            elt_mul(Elt(0, 1, theta), Elt(0, 1, theta))

    def test_float_cross_check(self):
        for theta in THETAS:
            x = (theta.P + math.sqrt(theta.D)) / theta.Q
            a = Elt(2, 3, theta)
            b = Elt(-1, 4, theta)
            prod = elt_mul(a, b)
            assert abs((2 + 3 * x) * (-1 + 4 * x) - (prod.x + prod.y * x)) < 1e-9


class TestFundamentalUnit:
    def test_sqrt2(self):
        assert unit(SQRT2M1) == IMat2(2, 1, 1, 0)  # 1 + sqrt(2) = 2 + theta

    def test_golden(self):
        assert unit(GOLDEN) == IMat2(1, 1, 1, 0)  # phi = 1 + theta

    def test_conductor_three(self):
        m3 = unit(SQRT2M1, 3)
        assert coords(m3, 3) == (29, 12)  # 17 + 12*sqrt(2)
        assert mat_trace(m3) == 34
        assert mat_det(m3) == 1
        power = mat_pow(unit(SQRT2M1), 4)
        assert power == IMat2(29, 12, 12, 5)
        assert (power.a, power.c) == coords(m3, 3)

    def test_matches_brute_force(self):
        for theta in THETAS:
            for f in (1, 2, 3, 5):
                assert coords(unit(theta, f), f) == brute_force_unit(theta, f)

    def test_pell_table(self):
        # fundamental units of Z[sqrt(d)] as (x, y) with x + y*sqrt(d)
        table = {
            2: (1, 1),
            3: (2, 1),
            5: (2, 1),
            6: (5, 2),
            7: (8, 3),
            8: (3, 1),
            10: (3, 1),
            11: (10, 3),
            13: (18, 5),
            14: (15, 4),
            46: (24335, 3588),
        }
        for d, xy in table.items():
            assert coords(unit(canonicalize(0, d, 1))) == xy

    def test_matches_brute_force_sqrt_family(self):
        for d in range(2, 40):
            if math.isqrt(d) ** 2 == d:
                continue
            theta = canonicalize(0, d, 1)
            assert coords(unit(theta)) == brute_force_unit(theta)

    def test_shifted_theta_same_multiplier_ring(self):
        # theta = -5 + sqrt(2) spans the same lattice as sqrt(2) up to shift;
        # the unit 1 + sqrt(2) picks up the shift in its coordinates
        theta = canonicalize(-5, 2, 1)
        assert coords(unit(theta)) == (6, 1)
        assert coords(unit(theta)) == brute_force_unit(theta)

    def test_non_integral_theta(self):
        # (1+sqrt(5))/3 rescales to (3+sqrt(45))/9; its multiplier ring is the
        # conductor-6 ring of the golden field, with unit 161 + 72*sqrt(5)
        theta = canonicalize(1, 5, 3)
        m = unit(theta)
        assert abs(mat_det(m)) == 1
        value = m.a + m.c * (theta.P + math.sqrt(theta.D)) / theta.Q
        assert abs(value - (161 + 72 * math.sqrt(5))) < 1e-6

    @pytest.mark.parametrize(
        "surd, f, xy",
        [
            ((-600, 734400, 900), 3, (8499, 5250)),
            ((-1760, 868800, -1600), 2, (3464374800583343401, -2058991560014844000)),
        ],
    )
    def test_conductor_unit_of_non_ring_lattice(self, surd, f, xy):
        # Z + Z*theta is not a ring here, and the unit of Z + (f*theta)Z has a
        # non-integral matrix on {1, theta}; on {1, f*theta} it is integral
        theta = canonicalize(*surd)
        tr, nm = trace_norm(theta)
        assert tr.denominator != 1
        m = unit(theta, f)
        assert coords(m, f) == xy
        assert all(type(v) is int for v in (m.a, m.b, m.c, m.d))
        assert mat_det(m) == 1
        x, y = xy
        assert (x + y * tr).denominator != 1 or (y * nm).denominator != 1

    def test_conductor_unit_of_non_ring_lattice_brute_force(self):
        theta = canonicalize(-600, 734400, 900)
        assert coords(unit(theta, 3), 3) == brute_force_unit(theta, 3)

    def test_matches_cycle_surd_oracle(self):
        # seeded random surds, Q of both signs, each at f = 1 and at one
        # conductor in 2..12, plus tall triples whose walk into the cycle is
        # long; the preperiod's sign (-1)^r must be met with r of both parities
        rng = random.Random(59)
        cases = []
        for i in range(2000):
            theta = random_surd(rng)
            cases += [(theta, 1), (theta, 2 + i % 11)]
        for p in (10**9, -(10**12) - 7, 3**40):
            for d in (5, 7, 13):
                cases += [(canonicalize(p, d, d - p * p), f) for f in (1, 2, 12)]
        parities = set()
        for theta, f in cases:
            psi = canonicalize(f * theta.P, f * f * theta.D, theta.Q)
            parities.add(len(cf_expand(psi).preperiod) % 2)
            assert unit(theta, f) == cycle_surd_unit(theta, f), (theta, f)
        assert parities == {0, 1}

    def test_bad_conductor(self):
        with pytest.raises(ValueError):
            SubOrder(SQRT2M1, 0)

    def test_matches_sympy_diop_dn(self):
        # for theta = sqrt(D) - floor(sqrt(D)), Z + (f*theta)Z is the order
        # Z[sqrt(f^2*D)], whose fundamental unit x + y*sqrt(f^2*D) is the least
        # solution of x^2 - f^2*D*y^2 = -1, or of = +1 when -1 has none
        diophantine = pytest.importorskip("sympy.solvers.diophantine.diophantine")
        rng = random.Random(53)
        cases = [(94, 1), (100000019, 1)]
        while len(cases) < 60:
            d = rng.randint(2, 2000)
            if math.isqrt(d) ** 2 != d:
                cases.append((d, rng.randint(1, 10)))
        for d, f in cases:
            n = f * f * d
            ((x, y),) = diophantine.diop_DN(n, -1) or diophantine.diop_DN(n, 1)
            s = math.isqrt(d)
            # x + y*f*sqrt(D) = (x + y*f*s) + y*(f*theta)
            m = unit(canonicalize(-s, d, 1), f)
            assert (m.a, m.c) == (x + y * f * s, y), (d, f)
            if d == 94:
                assert (x, y) == (2143295, 221064)
            if d == 100000019:
                assert 3600 <= len(cf_expand(canonicalize(-s, d, 1)).period) <= 4400


class TestPiIndex:
    def test_worked_values(self):
        assert pi_index(unit(SQRT2M1), 2) == 2  # eps^2 = 3 + 2*sqrt(2)
        assert pi_index(unit(SQRT2M1), 3) == 4  # eps^4 = 17 + 12*sqrt(2)
        assert pi_index(unit(GOLDEN), 2) == 3  # Fibonacci: F_3 = 2 first even

    def test_golden_fibonacci_oracle(self):
        # phi^k = F_{k-1} + F_k * phi on the numerator basis; over theta =
        # phi - 1 the theta-coordinate is still F_k
        fib = [0, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        m = unit(GOLDEN)
        for k in range(1, 20):
            assert mat_pow(m, k).c == fib[k]
        for p in PRIMES:
            expected = next(k for k in range(1, 40) if fib[k] % p == 0)
            assert pi_index(m, p) == expected

    def test_agreement_with_suborder_units(self):
        # on a ring lattice (integral trace and norm) the unit of the
        # conductor-f suborder is eps^pi(f), for every f, prime or not; on the
        # other lattices it need not be
        for surd in RING_SURDS:
            theta = canonicalize(*surd)
            m = unit(theta)
            for f in range(2, 31):
                power = mat_pow(m, pi_index(m, f))
                assert (power.a, power.c) == coords(unit(theta, f), f), (surd, f)

    def test_cap(self):
        with pytest.raises(SearchLimitExceeded):
            pi_index(unit(SQRT2M1), 3, cap=2)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            pi_index(unit(SQRT2M1), 1)

    @pytest.mark.parametrize("cap", [0, -4])
    def test_rejects_cap_below_one(self, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            pi_index(unit(SQRT2M1), 3, cap=cap)

    @pytest.mark.parametrize("surd", SWEEP_SURDS, ids=lambda t: ",".join(map(str, t)))
    def test_mod_p_scan_matches_exact_search(self, surd):
        # every prime below 600, those dividing the discriminant included
        theta = canonicalize(*surd)
        m = unit(theta)
        for p in PRIMES_BELOW_600:
            assert pi_index(m, p) == exact_pi_index(Elt(*coords(m), theta), p), p

    def test_sweep_includes_non_ring_lattices(self):
        non_rings = [s for s in SWEEP_SURDS if s not in RING_SURDS]
        assert non_rings == [(-2, 10, 2), (-4, 26, 2), (-5, 37, 3), (-3, 24, 3), (-5, 65, 5), (-4, 65, 7)]

    def test_cap_boundary(self):
        for surd in SWEEP_SURDS:
            m = unit(canonicalize(*surd))
            for p in (2, 3, 5, 7, 13, 599):
                k = pi_index(m, p)
                assert pi_index(m, p, cap=k) == k
                # a cap of 0 is bad input, not an exhausted search
                with pytest.raises(SearchLimitExceeded if k > 1 else ValueError):
                    pi_index(m, p, cap=k - 1)


# the 16 match-sweep surds and 60 seeded random ones, at conductors 1, 2, 3
# and 6: unit matrices with M.c of every size, both norms, and Delta = tr^2 -
# 4*det with and without small prime factors
CLOSED_FORM_UNITS = [
    unit(theta, f)
    for theta in [canonicalize(*s) for s in SWEEP_SURDS]
    + [random_surd(random.Random(1208 + i)) for i in range(60)]
    for f in (1, 2, 3, 6)
]


def legendre(a, p):
    """(a/p) for an odd prime p, by Euler's criterion."""
    v = pow(a, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


def mod_pow(m, k, n):
    """m^k reduced mod n, by square and multiply on entries reduced mod n."""
    acc, base = IMat2(1, 0, 0, 1), IMat2(m.a % n, m.b % n, m.c % n, m.d % n)
    while k:
        if k & 1:
            acc = IMat2(*(v % n for v in mat_mul(acc, base)))
        base = IMat2(*(v % n for v in mat_mul(base, base)))
        k >>= 1
    return acc


class TestPiClosedForm:
    """pi_index is the rank of apparition of p / gcd(p, M.c) in the Lucas
    sequence U(tr M, det M); the scan of tests/reference.py checks it where
    a scan is cheap, and relations between its values reach past that."""

    @pytest.mark.parametrize("f", [1, 2, 3, 6])
    def test_matches_the_scan(self, f):
        # every n in 2..399, composites and prime powers included
        units = CLOSED_FORM_UNITS[[1, 2, 3, 6].index(f) :: 4]
        assert len(units) == 76
        for m in units:
            for n in range(2, 400):
                assert pi_index(m, n) == pi_index_scan(m, n), (m, n)

    def test_sweep_meets_every_case(self):
        # p | M.c, p | Delta, p = 2 with tr M odd and even, and both signs
        # of (Delta/p) all occur among the primes of the sweep
        seen = set()
        for m in CLOSED_FORM_UNITS:
            delta = mat_trace(m) ** 2 - 4 * mat_det(m)
            for p in primes_below(400):
                if m.c % p == 0:
                    seen.add("p | c")
                elif p == 2:
                    seen.add(f"p = 2, tr {'odd' if mat_trace(m) % 2 else 'even'}")
                elif delta % p == 0:
                    seen.add("p | Delta")
                else:
                    seen.add(f"(Delta/p) = {legendre(delta, p)}")
        assert seen == {
            "p | c", "p = 2, tr odd", "p = 2, tr even", "p | Delta", "(Delta/p) = 1", "(Delta/p) = -1"
        }

    def test_divides_p_minus_legendre(self):
        # for an odd prime p dividing neither M.c nor Delta, pi(p) divides
        # p - (Delta/p); the large primes are far past the scan's reach
        big = [10**9 + 7, 10**12 + 39, 10**18 + 3, 3317044064679887385961981 - 168]
        for m in CLOSED_FORM_UNITS[::4]:
            delta = mat_trace(m) ** 2 - 4 * mat_det(m)
            for p in primes_below(3000)[1:] + big:
                if m.c % p and delta % p:
                    n = p - legendre(delta, p)
                    assert n % pi_index(m, p, cap=n) == 0, (m, p)

    def test_lcm_over_coprime_factors(self):
        # pi(m*n) = lcm(pi(m), pi(n)) for coprime m and n: the least power of
        # eps in both sublattices; products of large primes go through
        # Pollard-Brent
        rng = random.Random(24)
        big = [10**9 + 7, 10**9 + 9, 998244353, 10**12 + 39, 2**31 - 1]
        for i, m in enumerate(CLOSED_FORM_UNITS[::8]):
            pairs = [(rng.randint(2, 400), rng.randint(2, 400)) for _ in range(30)]
            if i % 4 == 0:
                pairs += [(a, b) for a in big for b in big if a < b]
            for a, b in pairs:
                if math.gcd(a, b) == 1:
                    cap = a * b * a * b
                    whole = pi_index(m, a * b, cap=cap)
                    assert whole == math.lcm(pi_index(m, a, cap=cap), pi_index(m, b, cap=cap))

    def test_near_the_miller_rabin_limit(self):
        # p + 1 = 2*q1*q2 with q1 and q2 of 41 and 40 bits: trial division
        # leaves q1*q2 for Pollard-Brent.  pi(p) is checked from the
        # factorisation: M^pi has c = 0 mod p, and no M^(pi/l) does
        q1, q2 = 2147475745049, 587322960011
        p = 2522523622268012516471077
        assert p - legendre(8, p) == 2 * q1 * q2 and legendre(8, p) == -1
        m = unit(SQRT2M1)  # tr 2, det -1, Delta = 8
        start = time.perf_counter()
        with pytest.raises(SearchLimitExceeded):
            pi_index(m, p)
        k = pi_index(m, p, cap=p + 1)
        assert time.perf_counter() - start < 2
        assert (p + 1) % k == 0
        assert mod_pow(m, k, p).c == 0
        assert all(mod_pow(m, k // l, p).c for l in (2, q1, q2) if k % l == 0)

    def test_rejects_a_matrix_that_is_not_a_unit(self):
        with pytest.raises(ValueError, match="det 3 is not"):
            pi_index(IMat2(2, 1, 1, 2), 5)


class TestTracePower:
    def test_matches_matrix_powers(self):
        # units of both norms, and matrices of other determinants
        for m, step in [(unit(SQRT2M1), 1), (unit(GOLDEN), 7), (unit(SQRT3M1), 7), (unit(SQRT2M1, 3), 7)]:
            for k in range(0, 5001, step):
                assert mat_trace_pow(m, k) == mat_trace(mat_pow(m, k)), (m, k)
        for m in [IMat2(3, 5, 7, 2), IMat2(0, 0, 0, 0), IMat2(-4, 1, 9, 6), IMat2(2, 4, 1, 2)]:
            for k in range(200):
                assert mat_trace_pow(m, k) == mat_trace(mat_pow(m, k)), (m, k)

    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            mat_trace_pow(unit(SQRT2M1), -1)


class TestUnitMatrix:
    def test_examples(self):
        # the trace and determinant of a unit's matrix are its trace and norm
        m = unit(SQRT2M1)  # 1 + sqrt(2)
        assert mat_trace(m) == 2
        assert mat_det(m) == -1

        m = unit(GOLDEN)
        assert mat_trace(m) == 1
        assert mat_det(m) == -1

        m = mat_pow(unit(SQRT2M1), 4)  # 17 + 12*sqrt(2)
        assert mat_trace(m) == 34
        assert mat_det(m) == 1

    def test_non_integral_theta_unit_matrix(self):
        # theta = (1+sqrt(5))/3: the multiplier ring is the conductor-6 ring
        # of the golden field; its unit has integral matrix entries because
        # the theta-coordinate absorbs the trace/norm denominators
        m = unit(canonicalize(1, 5, 3))
        assert coords(m) == (89, 216)  # 161 + 72*sqrt(5)
        assert mat_trace(m) == 322
        assert mat_det(m) == 1

    def test_product_is_exact_product(self):
        # mat_mul of unit matrices is the exact product of the units
        for surd in SWEEP_SURDS:
            theta = canonicalize(*surd)
            m = unit(theta)
            eps = Elt(*coords(m), theta)
            acc, power = eps, m
            for _ in range(6):
                acc, power = elt_mul(acc, eps), mat_mul(power, m)
                assert (power.a, power.c) == (acc.x, acc.y)


class TestInvariants:
    def test_norm_multiplicative_on_powers(self):
        for theta in THETAS:
            m = unit(theta)
            n1 = mat_det(m)
            for k in range(1, 21):
                assert mat_det(mat_pow(m, k)) == n1**k

    def test_trace_links_unit_and_period_matrix(self):
        for theta in THETAS:
            m = unit(theta)
            a = matrix_A(cf_expand(theta).period)
            for k in range(1, 11):
                assert mat_trace(mat_pow(m, k)) == mat_trace(mat_pow(a, k))

    @pytest.mark.parametrize("surd", SWEEP_SURDS, ids=lambda t: ",".join(map(str, t)))
    def test_fingerprint_trace_matches_period_matrix(self, surd):
        # fingerprint takes T from the unit's matrix; the period matrix A of
        # theta must give the same tr(A^pi)
        theta = canonicalize(*surd)
        a = matrix_A(cf_expand(theta).period)
        for row in fingerprint(theta, PRIMES_BELOW_600):
            assert row.T == mat_trace(mat_pow(a, row.pi)), row.p

    def test_coefficient_growth(self):
        # nondecreasing throughout, strict from the second step on; the golden
        # ratio ties at the first step (Fibonacci F_1 = F_2 = 1)
        for theta in THETAS:
            m = unit(theta)
            ys = [mat_pow(m, k).c for k in range(1, 21)]
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert all(b > a for a, b in zip(ys[1:], ys[2:]))
