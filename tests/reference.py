"""Reference computations that the tests compare the package against; none
of them is part of the package."""

from math import isqrt

from rmtorus.ecpoints import Curve, is_good_prime
from rmtorus.intmat import AbelianGroup, IMat2, mat_det, mat_mul, mat_sub
from rmtorus.quadratic import QuadraticIrrational


def count_points_naive(e: Curve, p: int) -> int:
    """|E(F_p)| by full O(p^2) enumeration; the independent oracle."""
    if not is_good_prime(e, p):
        raise ValueError(f"p={p} is not a good prime for {e}")
    a, b = e.a % p, e.b % p
    count = 1  # point at infinity
    for x in range(p):
        rhs = ((x * x % p) * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                count += 1
    return count


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(m: IMat2) -> tuple[IMat2, IMat2, IMat2]:
    """Unimodular U, V and diagonal D with U*m*V = D, d1 >= 0, d1 | d2."""
    u = IMat2.identity()
    v = IMat2.identity()
    w = m
    while True:
        # clear below-diagonal then above-diagonal; a column op can reintroduce
        # the former, so loop until both are zero.  When a already divides the
        # target entry a plain shear is used: the xgcd matrix would churn rows
        # without shrinking |a| and the loop could oscillate forever.
        while w.c != 0 or w.b != 0:
            if w.c != 0:
                if w.a != 0 and w.c % w.a == 0:
                    e = IMat2(1, 0, -(w.c // w.a), 1)
                else:
                    g, s, t = _xgcd(w.a, w.c)
                    e = IMat2(s, t, -(w.c // g), w.a // g)
                w = mat_mul(e, w)
                u = mat_mul(e, u)
            if w.b != 0:
                if w.a != 0 and w.b % w.a == 0:
                    f = IMat2(1, -(w.b // w.a), 0, 1)
                else:
                    g, s, t = _xgcd(w.a, w.b)
                    f = IMat2(s, -(w.b // g), t, w.a // g)
                w = mat_mul(w, f)
                v = mat_mul(v, f)
        if w.a == 0 and w.d != 0:
            swap = IMat2(0, 1, 1, 0)
            w = mat_mul(mat_mul(swap, w), swap)
            u = mat_mul(swap, u)
            v = mat_mul(v, swap)
        if w.a != 0 and w.d % w.a != 0:
            # fold the second diagonal entry into the first and re-clear
            e = IMat2(1, 1, 0, 1)
            w = mat_mul(e, w)
            u = mat_mul(e, u)
            continue
        break
    if w.a < 0:
        w = IMat2(-w.a, w.b, w.c, w.d)
        u = IMat2(-u.a, -u.b, u.c, u.d)
    if w.d < 0:
        w = IMat2(w.a, w.b, w.c, -w.d)
        u = IMat2(u.a, u.b, -u.c, -u.d)
    assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == w
    return u, w, v


def snf_cokernel(l: IMat2) -> AbelianGroup:
    """Invariant factors of Z^2 / (I - l) Z^2 from the Smith normal form."""
    _, d, _ = smith_normal_form(mat_sub(IMat2.identity(), l))
    return AbelianGroup(d.a, d.d)


def fold_matrix_A(period):
    """Checks intmat.matrix_A: one IMat2 factor per term, folded left to right
    by mat_mul, with no splitting of the period."""
    result = IMat2.identity()
    for a in period:
        result = mat_mul(result, IMat2(a, 1, 1, 0))
    return result


def expand_cycle_by_dict(
    theta: QuadraticIrrational,
) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """Checks quadratic._expand_cycle: finds the cycle as the first state seen
    twice, keeping every state in a dict, with no use of Galois' criterion.

    Returns (preperiod, period, P, Q) with (P + sqrt(D))/Q the surd at the
    cycle start.
    """
    D, s = theta.D, isqrt(theta.D)
    P, Q = theta.P, theta.Q
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    cap = 2 * D + 8 * (abs(P).bit_length() + abs(Q).bit_length()) + 64
    for _ in range(cap):
        if (P, Q) in seen:
            i = seen[P, Q]
            return tuple(quotients[:i]), tuple(quotients[i:]), P, Q
        seen[P, Q] = len(quotients)
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)
        quotients.append(a)
        # theta' = 1/(theta - a):  P' = a*Q - P,  Q' = (D - P'^2)/Q
        P = a * Q - P
        Q, r = divmod(D - P * P, Q)
        if r:
            raise ValueError(f"recurrence left the integers at P={P}: Q does not divide D - P^2")
    raise RuntimeError(f"no cycle within {cap} steps; recurrence invariant broken")
