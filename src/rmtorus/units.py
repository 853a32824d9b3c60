"""Pseudo-lattices Z + Z*theta, fundamental units of their multiplier rings,
and the conductor index: the least power of the fundamental unit landing in
Z + (f*theta)Z.

A unit is held in one form: the integer matrix of multiplication by it on
the lattice's basis {1, f*theta}.  Products of units are mat_mul, norm and
trace mat_det and mat_trace, and the trace of a power mat_trace_pow.

The unit computation rides on the continued fraction, a product of integer
matrices: the period's matrix multiplies the cycle's eigenvector by the
smallest unit > 1 of the multiplier ring of the lattice, and conjugating it
by the preperiod's matrix moves that action onto the lattice's basis.  Tests
certify minimality against a separate brute-force norm-equation sweep.

The index pi(n) never forms a power of the unit.  It is the rank of
apparition of n / gcd(n, M.c) in the Lucas sequence U_k(tr M, det M), read
from the factorisation of n and of q - (Delta/q) for each prime q | n:
trial division, then Pollard-Brent, with Miller-Rabin (is_prime) deciding
which cofactors are prime.  Tests check it against the mod-p scan
(tests/reference.py::pi_index_scan), which takes O(pi(n)) steps.
"""

from __future__ import annotations

from math import gcd, lcm

from .intmat import IMat2, _period_product, mat_det, mat_mul, mat_trace, matrix_A
from .quadratic import QuadraticIrrational, _expand_cycle, _mobius
from .value import Value

DEFAULT_CAP = 10**6  # largest pi(p) computed, the CLI's --cap


class SearchLimitExceeded(RuntimeError):
    """A result would pass its work bound: the index pi(p) its cap, or a
    point count its largest p."""


class SubOrder(Value):
    """The pseudo-lattice Z + (conductor * theta) Z; conductor 1 is the lattice itself."""

    __slots__ = ("theta", "conductor")

    def __init__(self, theta: QuadraticIrrational, conductor: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "conductor", conductor)


def fundamental_unit(order: SubOrder) -> IMat2:
    """Smallest unit eps > 1 (norm +-1) of the multiplier ring of the lattice
    Z + (f*theta)Z, f the conductor, as the integer matrix M of multiplication
    by eps on the basis {1, f*theta}.

    The first column holds the coordinates of eps, so eps = M.a + (f*M.c)*theta;
    mat_trace(M) and mat_det(M) are its trace and norm."""
    f = order.conductor
    psi = _mobius(order.theta, f, 0, 0, 1) if f != 1 else order.theta
    pre, period = _expand_cycle(psi)
    # psi = [pre; w] for the cycle surd w, so (psi, 1) is proportional to
    # B(w, 1) with B the preperiod's product, and the period matrix A has the
    # eigenvector (w, 1) for eps: K = B A B^-1 multiplies (psi, 1) by eps,
    # that is eps*psi = K.a*psi + K.b and eps = K.c*psi + K.d
    a, b, c, d = _period_product(pre, 0, len(pre))
    s = -1 if len(pre) % 2 else 1  # det B, so B^-1 = s*adj(B)
    k = mat_mul(mat_mul(IMat2(a, b, c, d), matrix_A(period)), IMat2(s * d, -s * b, -s * c, s * a))
    return IMat2(k.d, k.b, k.c, k.a)


def pi_index(unit: IMat2, p: int, cap: int = DEFAULT_CAP) -> int:
    """Least k >= 1 with p dividing the second coordinate of eps^k, for the
    unit matrix M = fundamental_unit(SubOrder(theta)): eps^k lies in
    Z + (p*theta)Z.  p may be any integer >= 2; it is factored, so a factor
    that trial division leaves at or past is_prime's bound raises ValueError.
    Raises SearchLimitExceeded when that k is above cap.

    M^k = U_k*M - det(M)*U_{k-1}*I for the Lucas sequence U_k(tr M, det M),
    so the second coordinate of eps^k is U_k*M.c, and k is the least index
    with m = p / gcd(p, M.c) dividing U_k.  With det M = +-1 the sequence is
    a strong divisibility sequence, so that index is the lcm over the prime
    powers q^e of m of their own (_apparition)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    t, d = mat_trace(unit), mat_det(unit)
    if d not in (1, -1):
        raise ValueError(f"det {d} is not +-1: not the matrix of a unit")
    k = 1
    for q, e in _factor(p // gcd(p, unit.c)).items():
        k = lcm(k, _apparition(t, d, q, e))
    if k > cap:
        raise SearchLimitExceeded(f"no power of the fundamental unit within {cap} steps for p={p}")
    return k


def _apparition(t: int, d: int, q: int, e: int) -> int:
    """Least r >= 1 with q^e dividing U_r(t, d), for a prime q and d = +-1.

    For q itself: U_2 = t and U_3 = t^2 - d decide q = 2; for q | Delta =
    t^2 - 4d, U_r = r*(t/2)^(r-1) mod q gives r = q; otherwise r divides
    q - (Delta/q), and each prime factor l of that is stripped while
    U_(r/l) = 0 mod q.  The index of q^e is then r*q^j for the least j."""
    delta = t * t - 4 * d
    if q == 2:
        r = 2 if t % 2 == 0 else 3
    elif delta % q == 0:
        r = q
    else:
        r = q - 1 if pow(delta, (q - 1) // 2, q) == 1 else q + 1
        for l in _factor(r):
            while r % l == 0 and _lucas_u(t, d, r // l, q) == 0:
                r //= l
    qe = q**e
    while _lucas_u(t, d, r, qe):
        r *= q
    return r


def _lucas_u(t: int, d: int, k: int, n: int) -> int:
    """U_k(t, d) mod n, doubling on (U_j, U_j+1): U_2j = U_j*(2*U_j+1 - t*U_j)
    and U_2j+1 = U_j+1^2 - d*U_j^2."""
    u, w = 0, 1
    for bit in bin(k)[2:]:
        u, w = u * (2 * w - t * u) % n, (w * w - d * u * u) % n
        if bit == "1":
            u, w = w, (t * w - d * u) % n
    return u


_TRIAL = 1 << 10  # trial divisors up to here; Pollard-Brent splits what is left


def _factor(n: int) -> dict[int, int]:
    """{q: e} with n = prod q^e, for n >= 1: trial division below _TRIAL,
    then is_prime and _pollard_brent on the cofactor."""
    out: dict[int, int] = {}
    q = 2
    while q < _TRIAL and q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 + (q > 2)  # 2, then the odd numbers
    rest = [n] if n > 1 else []
    while rest:
        n = rest.pop()
        if q * q > n or is_prime(n):  # no factor below q, so n is prime
            out[n] = out.get(n, 0) + 1
        else:
            f = _pollard_brent(n)
            rest += [f, n // f]
    return out


def _pollard_brent(n: int) -> int:
    """A factor 1 < f < n of the composite n, which has no factor below
    _TRIAL: Pollard's rho with Brent's cycle search, the differences
    multiplied 128 at a time per gcd, and seeds 2 and c = 1, 2, ... so that
    runs repeat exactly."""
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step from its start one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
# (psi_k, k): the least strong pseudoprime to the first k prime bases is
# psi_k, so below it those k bases decide primality exactly (Sorenson and
# Webster 2015); k = 8, 10 and 11 are missing because psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9
_MR_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (_MR_LIMIT, 13),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with as many of the first 13 prime bases as
    the size of n needs.  Exact for n < 3317044064679887385961981; raises
    ValueError at or above that bound."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:  # a composite this small has a prime factor up to 41
        return n > 1
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    k = next(k for psi, k in _MR_PSI if n < psi)
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
