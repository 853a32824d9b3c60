import random

import pytest

from reference import cf_value, fold_matrix_A, random_period, smith_normal_form, snf_cokernel
from rmtorus.intmat import (
    AbelianGroup,
    IMat2,
    build_Lp,
    cokernel_group,
    mat_det,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_trace,
    matrix_A,
)
from rmtorus.quadratic import canonicalize, cf_expand
from rmtorus.units import SubOrder, fundamental_unit


# sqrt(1000033) - 1000 in (0, 1): the period of sqrt(1000033) has 1165 terms
LONG_THETA = canonicalize(-1000, 1000033, 1)


class TestMatrixA:
    def test_single_factors(self):
        assert matrix_A([1]) == IMat2(1, 1, 1, 0)
        assert matrix_A([2]) == IMat2(2, 1, 1, 0)

    def test_product(self):
        assert matrix_A([1, 2]) == IMat2(3, 1, 2, 1)

    def test_det_sign(self):
        rng = random.Random(3)
        for _ in range(100):
            per = random_period(rng)
            assert mat_det(matrix_A(per)) == (-1) ** len(per)

    def test_rotation_invariance(self):
        rng = random.Random(5)
        for _ in range(100):
            per = random_period(rng)
            a = matrix_A(per)
            for r in range(1, len(per)):
                rot = matrix_A(per[r:] + per[:r])
                assert mat_trace(rot) == mat_trace(a)
                assert mat_det(rot) == mat_det(a)

    def test_rejects(self):
        with pytest.raises(ValueError):
            matrix_A([])
        with pytest.raises(ValueError):
            matrix_A([1, 0])

    def test_matches_fold_random(self):
        rng = random.Random(13)
        for _ in range(200):
            per = random_period(rng, max_len=40, max_entry=rng.choice((3, 50, 10**6)))
            assert matrix_A(per) == fold_matrix_A(per)

    def test_matches_fold_every_length(self):
        # lengths 1..200 cross the leaf size of the balanced product
        rng = random.Random(41)
        for n in range(1, 201):
            per = [rng.randint(1, rng.choice((3, 1000))) for _ in range(n)]
            assert matrix_A(per) == fold_matrix_A(per), n

    @pytest.mark.parametrize(
        "theta,length", [((-3162, 10000054, 1), 3702), ((-31622, 1000000007, 1), 12352)]
    )
    def test_matches_fold_large_d(self, theta, length):
        period = cf_expand(canonicalize(*theta)).period
        assert len(period) == length
        assert matrix_A(period) == fold_matrix_A(period)

    def test_long_period(self):
        cf = cf_expand(LONG_THETA)
        assert len(cf.period) == 1165
        a = matrix_A(cf.period)
        assert a == fold_matrix_A(cf.period)
        assert mat_det(a) == (-1) ** len(cf.period)
        # the round trip, and the unit that also takes the period product
        assert cf_value(cf) == LONG_THETA
        assert abs(mat_det(fundamental_unit(SubOrder(LONG_THETA)))) == 1


class TestArithmetic:
    def test_square(self):
        m = IMat2(2, 1, 1, 0)
        assert mat_mul(m, m) == IMat2(5, 2, 2, 1)

    def test_fourth_power(self):
        m = mat_pow(IMat2(2, 1, 1, 0), 4)
        assert m == IMat2(29, 12, 12, 5)
        assert mat_trace(m) == 34

    def test_pow_zero(self):
        assert mat_pow(IMat2(7, -3, 2, 9), 0) == IMat2.identity()

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(7)
        for _ in range(20):
            m = IMat2(*(rng.randint(-9, 9) for _ in range(4)))
            acc = IMat2.identity()
            for k in range(6):
                assert mat_pow(m, k) == acc
                acc = mat_mul(acc, m)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(IMat2.identity(), -1)


class TestBuildLp:
    def test_worked_values(self):
        l3 = build_Lp(34, 3)
        assert l3 == IMat2(31, 3, 30, 3)
        assert mat_det(mat_sub(IMat2.identity(), l3)) == -30

        l2 = build_Lp(6, 2)
        assert l2 == IMat2(4, 2, 3, 2)
        assert mat_det(mat_sub(IMat2.identity(), l2)) == -3

    def test_degenerate_trace(self):
        for p in (2, 5, 11):
            l = build_Lp(p + 1, p)
            assert mat_det(mat_sub(IMat2.identity(), l)) == 0

    def test_det_identity_random(self):
        rng = random.Random(11)
        for _ in range(100):
            t = rng.randint(-50, 50)
            p = rng.randint(2, 40)
            l = build_Lp(t, p)
            assert mat_det(mat_sub(IMat2.identity(), l)) == 1 + p - t

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            build_Lp(10, 1)


def assert_snf_sound(m: IMat2):
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    assert d.b == 0 and d.c == 0
    d1, d2 = d.a, d.d
    assert d1 >= 0 and d2 >= 0
    if d2 != 0:
        assert d1 != 0 and d2 % d1 == 0
    assert abs(d1 * d2) == abs(mat_det(m))
    return d1, d2


class TestSmith:
    def test_worked_example(self):
        _, d, _ = smith_normal_form(IMat2(-30, -3, -30, -2))
        assert (d.a, d.d) == (1, 30)

    def test_identity(self):
        _, d, _ = smith_normal_form(IMat2.identity())
        assert (d.a, d.d) == (1, 1)

    def test_already_diagonal(self):
        _, d, _ = smith_normal_form(IMat2(2, 0, 0, 4))
        assert (d.a, d.d) == (2, 4)

    def test_diagonal_needing_divisibility_fix(self):
        d1, d2 = assert_snf_sound(IMat2(4, 0, 0, 6))
        assert (d1, d2) == (2, 12)

    def test_zero_matrix(self):
        _, d, _ = smith_normal_form(IMat2(0, 0, 0, 0))
        assert (d.a, d.d) == (0, 0)

    def test_rank_one(self):
        d1, d2 = assert_snf_sound(IMat2(2, 4, 3, 6))
        assert d2 == 0 and d1 == 1

    def test_random_soundness(self):
        rng = random.Random(13)
        for _ in range(500):
            m = IMat2(*(rng.randint(-10**6, 10**6) for _ in range(4)))
            assert_snf_sound(m)


def cokernel_cases(seed):
    """Matrices M = I - l: fixed edge cases, then random ones with entries up
    to 10^400, some with a common factor, each followed by a singular one."""
    rng = random.Random(seed)
    cases = [
        IMat2(0, 0, 0, 0),
        IMat2(2, 4, 3, 6),  # rank one
        IMat2(-6, 9, 4, -6),  # rank one, entries with no common factor
        IMat2(0, 5, 0, 0),
        IMat2(4, 0, 0, 6),  # diagonal, but the invariant factors are (2, 12)
        IMat2(12, 18, 30, 42),  # full rank with a common factor
    ]
    for _ in range(300):
        g = rng.choice((1, 6, 10**50))
        bound = rng.choice((3, 10**6, 10**400))
        m = IMat2(*(g * rng.randint(-bound, bound) for _ in range(4)))
        k = rng.randint(-5, 5)
        cases += [m, IMat2(m.a, m.b, k * m.a, k * m.b)]
    return cases


class TestCokernel:
    def test_order_three(self):
        assert cokernel_group(IMat2(4, 2, 3, 2)) == AbelianGroup(1, 3)

    def test_trivial(self):
        assert cokernel_group(IMat2(2, 2, 1, 2)) == AbelianGroup(1, 1)

    def test_identity_gives_free_group(self):
        assert cokernel_group(IMat2.identity()) == AbelianGroup(0, 0)

    def test_order_matches_det(self):
        rng = random.Random(17)
        for _ in range(100):
            l = IMat2(*(rng.randint(-20, 20) for _ in range(4)))
            det = mat_det(mat_sub(IMat2.identity(), l))
            g = cokernel_group(l)
            # a zero factor is infinite
            assert g.d1 * g.d2 == abs(det)

    def test_matches_oracle(self):
        for m in cokernel_cases(19):
            l = mat_sub(IMat2.identity(), m)
            assert cokernel_group(l) == snf_cokernel(l), m

    def test_matches_sympy_smith_normal_form(self):
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        for m in cokernel_cases(23):
            d = normalforms.smith_normal_form(sympy.Matrix(m.rows()), domain=sympy.ZZ)
            g = cokernel_group(mat_sub(IMat2.identity(), m))
            # sympy may return negative diagonal entries
            assert (g.d1, g.d2) == (abs(d[0, 0]), abs(d[1, 1])), m

    def test_group_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(2, 3)
        with pytest.raises(ValueError):
            AbelianGroup(0, 2)
        with pytest.raises(ValueError):
            AbelianGroup(-1, 2)
