"""Acceptance suite: one function per criterion, each asserting exact values
and its stated time budget.

Run under pytest, or standalone for one PASS/FAIL line per criterion:

    PYTHONPATH=src python3 tests/test_acceptance.py
"""

import io
import random
import sys
import time
from contextlib import redirect_stdout

from reference import (
    cf_value,
    conv_mul,
    conv_star,
    count_points_naive,
    primes_below,
    random_aut,
    random_period,
    random_skew,
    random_surd,
    reduce,
    smith_normal_form,
    u_infinity_system,
)
from rmtorus.cli import main as cli_main
from rmtorus.ecpoints import Curve, count_points, fingerprint, is_good_prime
from rmtorus.intmat import (
    AbelianGroup,
    IMat2,
    cokernel_group,
    mat_det,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_trace,
    matrix_A,
)
from rmtorus.quadratic import canonicalize, cf_expand
from rmtorus.skewlaurent import (
    check_star_coherent,
    skew_mul,
    skew_star,
    verify_example2,
)
from rmtorus.freealg import star_defect, star_image, u_infinity_relation
from rmtorus.units import SubOrder, fundamental_unit, pi_index

SQRT2M1 = canonicalize(-1, 2, 1)
GOLDEN = canonicalize(-1, 5, 2)
SQRT3M1 = canonicalize(-1, 3, 1)

CRITERIA = []


def criterion(number, title, budget):
    def wrap(fn):
        CRITERIA.append((number, title, budget, fn))
        return fn

    return wrap


@criterion(1, "CF round trip on 50 random theta with D <= 10^4", budget=1.0)
def crit_cf_round_trip():
    rng = random.Random(101)
    for _ in range(50):
        theta = random_surd(rng)
        assert cf_value(cf_expand(theta)) == theta


@criterion(2, "matrix invariant: det sign and rotation invariance, 100 periods", budget=1.0)
def crit_matrix_invariant():
    rng = random.Random(102)
    for _ in range(100):
        per = random_period(rng)
        a = matrix_A(per)
        assert mat_det(a) == (-1) ** len(per)
        for r in range(1, len(per)):
            rot = matrix_A(per[r:] + per[:r])
            assert mat_trace(rot) == mat_trace(a)
            assert mat_det(rot) == mat_det(a)


@criterion(3, "unit pipeline: pi-index vs sub-order units, trace link", budget=5.0)
def crit_unit_pipeline():
    for theta in (SQRT2M1, GOLDEN, SQRT3M1):
        m = fundamental_unit(SubOrder(theta, 1))
        a = matrix_A(cf_expand(theta).period)
        for p in (2, 3, 5, 7, 11, 13):
            k = pi_index(m, p)
            power = mat_pow(m, k)
            # first columns: the coordinates of eps^k and of the unit of
            # Z + (p*theta)Z, read on {1, theta}
            sub = fundamental_unit(SubOrder(theta, p))
            assert (power.a, power.c) == (sub.a, p * sub.c)
            assert mat_trace(power) == mat_trace(mat_pow(a, k))


@criterion(4, "det(I - L_p) = 1 + p - tr(A^pi(p)) incl. worked values -30, -1", budget=5.0)
def crit_lp_identity():
    worked = {}
    for theta, name in ((SQRT2M1, "sqrt2"), (GOLDEN, "golden"), (SQRT3M1, "sqrt3")):
        for row in fingerprint(theta, [2, 3, 5, 7, 11, 13]):
            assert mat_det(mat_sub(IMat2.identity(), row.Lp)) == 1 + row.p - row.T
            worked[(name, row.p)] = row.det_iml
    assert worked[("sqrt2", 3)] == -30
    assert worked[("golden", 2)] == -1


@criterion(5, "SNF soundness and cokernel_group, 500 matrices, entries up to 10^6", budget=1.0)
def crit_snf():
    rng = random.Random(105)
    for _ in range(500):
        m = IMat2(*(rng.randint(-(10**6), 10**6) for _ in range(4)))
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1
        assert d.b == 0 and d.c == 0 and d.a >= 0 and d.d >= 0
        if d.d != 0:
            assert d.a != 0 and d.d % d.a == 0
        assert abs(d.a * d.d) == abs(mat_det(m))
        assert cokernel_group(mat_sub(IMat2.identity(), m)) == AbelianGroup(d.a, d.d)


@criterion(6, "point counts: character sum equals enumeration, p <= 200, Hasse", budget=10.0)
def crit_point_counts():
    curves = [Curve(0, 1), Curve(-1, 0), Curve(1, 1), Curve(0, -4), Curve(2, 3)]
    for curve in curves:
        for p in primes_below(201):
            if not is_good_prime(curve, p):
                continue
            n, ap = count_points(curve, p)
            assert n == count_points_naive(curve, p)
            assert ap * ap <= 4 * p


@criterion(7, "skew/convolution isomorphism, associativity, star^2 = id", budget=2.0)
def crit_skew_convolution():
    rng = random.Random(107)
    for _ in range(200):
        alpha = random_aut(rng)
        f, g = random_skew(rng, alpha), random_skew(rng, alpha)
        assert conv_mul(f, g) == skew_mul(f, g)
        assert conv_star(f) == skew_star(f)
        assert skew_star(skew_star(f)) == f
    for _ in range(200):
        alpha = random_aut(rng)
        f, g, h = random_skew(rng, alpha), random_skew(rng, alpha), random_skew(rng, alpha)
        assert skew_mul(skew_mul(f, g), h) == skew_mul(f, skew_mul(g, h))
        assert skew_mul(f, g + h) == skew_mul(f, g) + skew_mul(f, h)


@criterion(8, "symbolic claims: twist relation, star defect x1^2 - x2^2, coherence", budget=1.0)
def crit_symbolic_claims():
    assert verify_example2() is True
    rel = u_infinity_relation()
    assert str(star_defect(rel)) == "x1^2 - x2^2"
    # the rewriting oracle reaches the same residual
    assert str(reduce(star_image(rel), u_infinity_system())) == "x1^2 - x2^2"
    # p and q as (re, im) pairs
    assert check_star_coherent((1, 0), (1, 0)) is True
    assert check_star_coherent((-1, 0), (0, 0)) is True
    assert check_star_coherent((2, 0), (-3, 0)) is True
    assert check_star_coherent((1, 0), (0, 1)) is False


@criterion(9, "match pipeline is byte-deterministic over primes <= 50", budget=10.0)
def crit_match_determinism(tmp_dir=None):
    import tempfile

    primes = ",".join(map(str, primes_below(51)))
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write("0,1\n-1,0\n")
        path = fh.name
    args = ["match", "--curves-file", path, "--primes", primes, "--", "-1,2,1"]
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(args)
        assert code == 0
        outputs.append(buf.getvalue().encode("utf-8"))
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) > 2


def _run(number, title, budget, fn):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    return elapsed


def _make_test(number, title, budget, fn):
    def test():
        elapsed = _run(number, title, budget, fn)
        print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s < {budget}s)")

    test.__name__ = f"test_criterion_{number}"
    test.__doc__ = title
    return test


for _n, _t, _b, _f in CRITERIA:
    _test = _make_test(_n, _t, _b, _f)
    globals()[_test.__name__] = _test


def run_all() -> int:
    failures = 0
    for number, title, budget, fn in CRITERIA:
        try:
            elapsed = _run(number, title, budget, fn)
        except Exception as exc:
            failures += 1
            print(f"[FAIL] criterion {number}: {title} -- {exc}")
        else:
            print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s < {budget}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run_all())
