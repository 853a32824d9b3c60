"""Reference computations that the tests compare the package against, and the
inputs the tests share; none of them is part of the package.

Every public function here is either an oracle or an input generator (its
name starts with `random_`); fixed inputs are constants (SWEEP_SURDS,
SWEEP_CURVES).  An oracle's docstring starts with `Checks <module>.<name>`,
naming the function of `rmtorus` it checks, and says why it is independent
of it.  The rule: an oracle never calls the code it checks, directly or
through a helper in this file.  It may call other parts of the package;
tests/test_reference.py enforces the rule.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm, sqrt

from rmtorus.ecpoints import Curve, is_good_prime
from rmtorus.freealg import NCPoly
from rmtorus.intmat import AbelianGroup, IMat2, mat_det, mat_mul, mat_sub
from rmtorus.quadratic import ContinuedFraction, QuadraticIrrational, canonicalize
from rmtorus.skewlaurent import UP_ZERO, AffineAut, SkewPoly, UPoly


# --- primes and point counts -------------------------------------------------


def primes_below(n: int) -> list[int]:
    """Checks units.is_prime: the sieve of Eratosthenes, which crosses off
    multiples and never tests a single number."""
    sieve = bytearray([1]) * n
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(2, n) if sieve[i]]


def count_points_naive(e: Curve, p: int) -> int:
    """Checks ecpoints.count_points: |E(F_p)| by full O(p^2) enumeration of
    the pairs (x, y), with no quadratic character."""
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


def count_points_euler(e: Curve, p: int) -> int:
    """Checks ecpoints.count_points: |E(F_p)| as p + 1 plus the quadratic
    character of x^3 + a*x + b summed over x, each character by Euler's
    criterion v^((p-1)/2) mod p, so with no table of squares.  O(p log p)."""
    if not is_good_prime(e, p):
        raise ValueError(f"p={p} is not a good prime for {e}")
    a, b = e.a % p, e.b % p
    half = (p - 1) // 2
    s = 0
    for x in range(p):
        v = ((x * x % p) * x + a * x + b) % p
        if v == 0:
            continue
        s += 1 if pow(v, half, p) == 1 else -1
    return p + 1 + s


# the curves (a, b) of rmbench's match-sweep: two fixed, two drawn by seed 1
SWEEP_CURVES = [(0, 1), (-1, 0), (-16, -4), (-13, 11)]


# --- cokernels ---------------------------------------------------------------


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
    """Checks intmat.cokernel_group: unimodular U, V and diagonal D with
    U*m*V = D, d1 >= 0, d1 | d2, by row and column operations rather than
    determinantal divisors."""
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
    """Checks intmat.cokernel_group: the invariant factors of Z^2 / (I - l) Z^2
    read off the Smith normal form above."""
    _, d, _ = smith_normal_form(mat_sub(IMat2.identity(), l))
    return AbelianGroup(d.a, d.d)


# --- continued fractions and period matrices ---------------------------------


# the 16 surds of the match-sweep benchmark, P,D,Q; six of them span
# lattices Z + Z*theta that are not rings
SWEEP_SURDS = [
    (-1, 5, 2), (-1, 2, 1), (-3, 13, 2), (-1, 3, 1), (-2, 5, 1), (-3, 21, 2), (-2, 8, 1), (-3, 10, 1),
    (-2, 10, 2), (-3, 17, 2), (-4, 26, 2), (-5, 37, 3), (-3, 24, 3), (-2, 7, 1), (-5, 65, 5), (-4, 65, 7),
]


def primitive_triple(P: int, D: int, Q: int) -> tuple[int, int, int]:
    """Checks quadratic.canonicalize: the least |Q0| for which the value
    (P + sqrt(D))/Q has an integer triple (P0, D0, Q0) with Q0 | D0 - P0^2,
    read off in Fraction arithmetic with no content gcd.  With x = P/Q and
    c = (D - P^2)/Q^2, a triple of the value with denominator Q0 needs Q0*x
    and Q0*c integral (then D0 = (Q0*x)^2 + Q0*(Q0*c) is too), so |Q0| is
    the lcm k of their denominators and Q0 = sign(Q)*k."""
    x = Fraction(P, Q)
    c = Fraction(D - P * P, Q * Q)
    q0 = lcm(x.denominator, c.denominator) * (1 if Q > 0 else -1)
    d0 = Fraction(D, Q * Q) * q0 * q0
    return int(x * q0), int(d0), q0


def random_surd(rng, dmax: int = 10**4) -> QuadraticIrrational:
    """Random primitive triple with D <= dmax: pick D and P, then a divisor of
    D - P^2, of either sign, as Q."""
    while True:
        d = rng.randint(2, dmax)
        if isqrt(d) ** 2 == d:
            continue
        p = rng.randint(-50, 50)
        rem = d - p * p
        if rem == 0:
            continue
        divisors = [q for q in range(1, abs(rem) + 1) if rem % q == 0]
        q = rng.choice(divisors) * rng.choice([1, -1])
        return canonicalize(p, d, q)


def random_period(rng, max_len: int = 6, max_entry: int = 9) -> list[int]:
    """Random continued fraction period of 1 to max_len terms in 1..max_entry."""
    return [rng.randint(1, max_entry) for _ in range(rng.randint(1, max_len))]


def _surd_steps(P: int, D: int, Q: int):
    """The states (P, Q) of the recurrence theta' = 1/(theta - a) on
    theta = (P + sqrt(D))/Q, each with its quotient a = floor(theta)."""
    s = isqrt(D)
    while True:
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)
        yield P, Q, a
        # theta' = 1/(theta - a):  P' = a*Q - P,  Q' = (D - P'^2)/Q
        P = a * Q - P
        Q, r = divmod(D - P * P, Q)
        if r:
            raise ValueError(f"recurrence left the integers at P={P}: Q does not divide D - P^2")


def oracle_quotients(P: int, D: int, Q: int, n: int) -> list[int]:
    """Checks quadratic.cf_expand: the first n quotients of (P + sqrt(D))/Q,
    stepped one by one with no cycle detection."""
    return [a for _, _, a in islice(_surd_steps(P, D, Q), n)]


def expand_cycle_by_dict(
    theta: QuadraticIrrational,
) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """Checks quadratic._expand_cycle: finds the cycle as the first state seen
    twice, keeping every state in a dict, with no use of Galois' criterion.

    Returns (preperiod, period, P, Q) with (P + sqrt(D))/Q the surd at the
    cycle start.
    """
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    cap = 2 * theta.D + 8 * (abs(theta.P).bit_length() + abs(theta.Q).bit_length()) + 64
    for P, Q, a in islice(_surd_steps(theta.P, theta.D, theta.Q), cap):
        if (P, Q) in seen:
            i = seen[P, Q]
            return tuple(quotients[:i]), tuple(quotients[i:]), P, Q
        seen[P, Q] = len(quotients)
        quotients.append(a)
    raise RuntimeError(f"no cycle within {cap} steps; recurrence invariant broken")


def fold_matrix_A(period):
    """Checks intmat.matrix_A: one IMat2 factor per term, folded left to right
    by mat_mul, with no splitting of the period."""
    result = IMat2.identity()
    for a in period:
        result = mat_mul(result, IMat2(a, 1, 1, 0))
    return result


def cf_value(cf: ContinuedFraction) -> QuadraticIrrational:
    """Checks quadratic.cf_expand as its inverse: the exact value of an
    eventually periodic continued fraction, with no recurrence on surds.
    The periodic tail y > 1 is the fixed point of the period's matrix
    [[a, b], [c, d]], and the preperiod's matrix [[e, f], [g, h]] maps it to
    (e*y + f)/(g*y + h), rationalized by the conjugate of its denominator;
    both matrices are folded term by term."""
    a, b, c, d = fold_matrix_A(cf.period)
    # c*y^2 + (d - a)*y - b = 0, so y = (a - d + r)/(2c) with r = sqrt(disc)
    B, disc, q = a - d, (a - d) ** 2 + 4 * b * c, 2 * c
    e, f, g, h = fold_matrix_A(cf.preperiod)
    # (e*y + f)/(g*y + h) = (n + e*r)/(m + g*r), both sides times q
    n, m = e * B + f * q, g * B + h * q
    # times (m - g*r): the coefficient of r is e*m - n*g = q*(e*h - f*g) = ±q
    P, s, Q = n * m - e * g * disc, e * m - n * g, m * m - g * g * disc
    if s < 0:
        P, s, Q = -P, -s, -Q
    return canonicalize(P, disc * s * s, Q)


# --- units -------------------------------------------------------------------


def trace_norm(theta: QuadraticIrrational) -> tuple[Fraction, Fraction]:
    """Checks units.fundamental_unit, as the part its oracles below share:
    the trace 2P/Q and the norm (P^2 - D)/Q^2 of theta = (P + sqrt(D))/Q,
    read off the triple.  The oracles expand theta^2 = tr*theta - nm with
    them; the unit layer works on integer matrices and forms neither."""
    return Fraction(2 * theta.P, theta.Q), Fraction(theta.P**2 - theta.D, theta.Q**2)


def _integral(value: Fraction) -> int:
    if value.denominator != 1:
        raise ValueError(f"not integral: {value}")
    return value.numerator


def cycle_surd_unit(theta: QuadraticIrrational, f: int = 1) -> IMat2:
    """Checks units.fundamental_unit through the cycle surd w = (P + sqrt(D))/Q
    at the start of the period of psi = f*theta, found by a dict of states:
    the bottom row of the period matrix, folded term by term, gives the unit
    c*w + d, which is rewritten on the basis {1, psi} in Fraction arithmetic
    with psi^2 = tr*psi - nm, and every entry is checked to be an integer.
    Returns the matrix of the unit on {1, psi}, as fundamental_unit does."""
    psi = canonicalize(f * theta.P, f * f * theta.D, theta.Q)
    _, period, P, Q = expand_cycle_by_dict(psi)
    m = fold_matrix_A(period)
    x = _integral(Fraction(m.c * (P - psi.P) + m.d * Q, Q))
    y = _integral(Fraction(m.c * psi.Q, Q))
    tr, nm = trace_norm(psi)
    # eps*psi = x*psi + y*psi^2 = -y*nm + (x + y*tr)*psi
    return IMat2(x, _integral(-y * nm), y, _integral(x + y * tr))


@dataclass(frozen=True)
class Elt:
    """x + y*theta, for the exact product below."""

    x: int
    y: int
    theta: object


def elt_mul(a: Elt, b: Elt) -> Elt:
    """Checks intmat.mat_mul on unit matrices: the exact product of
    x + y*theta through Fraction arithmetic, expanding theta^2 =
    tr(theta)*theta - nm(theta), with no matrix in sight."""
    if a.theta != b.theta:
        raise ValueError("elements live over different theta")
    tr, nm = trace_norm(a.theta)
    x = Fraction(a.x * b.x) - a.y * b.y * nm
    y = Fraction(a.x * b.y + a.y * b.x) + a.y * b.y * tr
    if x.denominator != 1 or y.denominator != 1:
        raise ValueError(f"product leaves the lattice: {x} + {y}*theta")
    return Elt(int(x), int(y), a.theta)


def exact_pi_index(eps: Elt, p: int, cap: int = 10**6) -> int:
    """Checks units.pi_index: multiplies out the exact powers of eps by
    elt_mul until p divides the theta coordinate, with no reduction mod p."""
    acc = eps
    for k in range(1, cap + 1):
        if acc.y % p == 0:
            return k
        acc = elt_mul(acc, eps)
    raise AssertionError(f"no power within {cap} steps for p={p}")


def pi_index_scan(unit: IMat2, n: int, cap: int = 10**6) -> int:
    """Checks units.pi_index: steps the first column of M^k, the coordinates
    of eps^k, mod n and returns the least k with the second one 0, in
    O(pi(n)) steps; no factoring and no Lucas sequence."""
    a, b, c, d = unit.a % n, unit.b % n, unit.c % n, unit.d % n
    x, y = a, c
    for k in range(1, cap + 1):
        if y == 0:
            return k
        x, y = (a * x + b * y) % n, (c * x + d * y) % n
    raise AssertionError(f"no power within {cap} steps for n={n}")


def brute_force_unit(theta: QuadraticIrrational, conductor: int = 1, vmax: int = 100000):
    """Checks units.fundamental_unit: sweeps the theta coordinate y of
    x + y*theta upward (y a multiple of the conductor) and solves the norm
    equation |x^2 + x*y*tr + y^2*nm| = 1 for integer x, with no continued
    fraction.  The fundamental unit is the smallest candidate > 1 found at
    the first y admitting any; two units can share that y (golden ratio: phi
    and phi^2 both have coordinate 1), so all roots are compared.  Returns
    its coordinates (x, y)."""
    tr, nm = trace_norm(theta)
    approx = (theta.P + sqrt(theta.D)) / theta.Q
    for y in range(conductor, vmax * conductor + 1, conductor):
        hits = []
        # x^2 + (y*tr)x + (y^2*nm -+ 1) = 0
        for target in (1, -1):
            b = y * tr
            c = y * y * nm - target
            disc = b * b - 4 * c
            if disc < 0:
                continue
            num = Fraction(disc).numerator * Fraction(disc).denominator
            s = isqrt(num)
            if s * s != num:
                continue
            root = Fraction(s, Fraction(disc).denominator)
            for sgn in (1, -1):
                x = (-b + sgn * root) / 2
                if x.denominator == 1 and x + y * approx > 1 + 1e-9:
                    hits.append(int(x))
        if hits:
            return min(hits), y
    raise AssertionError("oracle sweep exhausted")


# --- twisted Laurent polynomials ---------------------------------------------


def conv_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Checks skewlaurent.skew_mul: the crossed product as the convolution of
    finitely supported functions Z -> Q[u] (f and g share alpha),
    (f g)(k) = sum_l f(l) * t^l g(k-l) t^-l with t^l b t^-l = alpha^l(b),
    summed one degree k of the result at a time instead of term by term."""
    out: dict[int, UPoly] = {}
    for k in {m + n for m in f._coeffs for n in g._coeffs}:
        acc = UP_ZERO
        for l, fl in f._coeffs.items():
            gk = g._coeffs.get(k - l)
            if gk is not None:
                acc = acc + fl * f.alpha.power(l).apply(gk)
        out[k] = acc
    return SkewPoly(f.alpha, out)


def conv_star(f: SkewPoly) -> SkewPoly:
    """Checks skewlaurent.skew_star: the involution in convolution
    coordinates, f*(k) = alpha^k(f(-k)), read at each degree k of the result
    instead of from each term of f."""
    out = {}
    for k in {-j for j in f._coeffs}:
        out[k] = f.alpha.power(k).apply(f._coeffs[-k])
    return SkewPoly(f.alpha, out)


def random_rational(rng) -> Fraction:
    """Random rational in {-2, ..., 2}/{1, 2}."""
    return Fraction(rng.randint(-2, 2), rng.choice([1, 2]))


def random_upoly(rng, maxdeg: int = 3) -> UPoly:
    """Random polynomial in u of degree at most maxdeg."""
    deg = rng.randint(0, maxdeg)
    return UPoly.make([random_rational(rng) for _ in range(deg + 1)])


def random_skew(rng, alpha: AffineAut) -> SkewPoly:
    """Random skew Laurent polynomial with 1 to 3 terms t^k, -3 <= k <= 3."""
    support = rng.sample(range(-3, 4), rng.randint(1, 3))
    return SkewPoly(alpha, {k: random_upoly(rng) for k in support})


def random_aut(rng) -> AffineAut:
    """Random affine twist u -> p*u + q with p != 0, p = 1 among others."""
    while True:
        p = random_rational(rng)
        if p:
            return AffineAut(p, random_rational(rng))


# --- the free algebra --------------------------------------------------------


def _deglex(word: str) -> tuple[int, str]:
    return (len(word), word)


class RewriteSystem:
    """Ordered rules word -> NCPoly, each strictly decreasing in deglex."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        if not self.rules:
            raise ValueError("at least one rule required")
        for lhs, rhs in self.rules:
            if not lhs:
                raise ValueError("empty left-hand side")
            for w, _ in rhs.terms:
                if _deglex(w) >= _deglex(lhs):
                    raise ValueError(f"rule {lhs} -> {rhs} does not decrease the order")

    def leftmost_match(self, word: str):
        """(position, rule index) of the leftmost match; earlier rules win ties."""
        best = None
        for idx, (lhs, _) in enumerate(self.rules):
            pos = word.find(lhs)
            if pos >= 0 and (best is None or pos < best[0]):
                best = (pos, idx)
        return best


def u_infinity_system() -> RewriteSystem:
    """Checks freealg.normal_form: the system that reduce runs, the single rule
    x2*x1 -> x1*x2 - x1^2 that orients the quadratic relation by deglex with
    x2 > x1, whose irreducible words are the x1^i * x2^j."""
    return RewriteSystem([("21", NCPoly({"12": 1, "11": -1}))])


def _rewrite(work: NCPoly, w: str, pos: int, lhs: str, rhs: NCPoly) -> NCPoly:
    """work with its term in w rewritten at the match of lhs at pos: c*w
    becomes c * prefix * rhs * suffix."""
    terms = dict(work.terms)
    c = terms.pop(w)
    pre, suf = w[:pos], w[pos + len(lhs):]
    return NCPoly([*terms.items(), *((pre + v + suf, c * d) for v, d in rhs.terms)])


def reduce(f: NCPoly, rs: RewriteSystem) -> NCPoly:
    """Checks freealg.normal_form: rewrites leftmost occurrences of rule
    left-hand words, in the largest reducible word first, until none remain,
    with no embedding in a twisted ring.  Terminates because every step
    strictly decreases the deglex multiset."""
    work = f
    while True:
        target = None
        for w in sorted(dict(work.terms), key=_deglex, reverse=True):
            m = rs.leftmost_match(w)
            if m is not None:
                target = (w, m)
                break
        if target is None:
            return work
        w, (pos, idx) = target
        work = _rewrite(work, w, pos, *rs.rules[idx])


def reduce_rightmost(f: NCPoly, rs: RewriteSystem) -> NCPoly:
    """Checks freealg.normal_form: rewrites the rightmost match in the smallest
    reducible word first, where reduce rewrites the leftmost match in the
    largest."""
    work = f
    while True:
        target = None
        for w in sorted(dict(work.terms), key=_deglex):
            best = None
            for idx, (lhs, _) in enumerate(rs.rules):
                pos = w.rfind(lhs)
                if pos >= 0 and (best is None or pos > best[0]):
                    best = (pos, idx)
            if best is not None:
                target = (w, best)
                break
        if target is None:
            return work
        w, (pos, idx) = target
        work = _rewrite(work, w, pos, *rs.rules[idx])


def self_overlaps(rs: RewriteSystem) -> list[tuple[int, int, int]]:
    """Checks freealg.normal_form: the diamond-lemma certificate that the
    rewriting normal forms of reduce are unique, read from the rules' left
    sides alone.  Returns (i, j, k) where a proper suffix of rule i's left
    side of length k is a prefix of rule j's, or one left side sits inside
    another; empty means no ambiguity can arise."""
    found = []
    for i, (a, _) in enumerate(rs.rules):
        for j, (b, _) in enumerate(rs.rules):
            for k in range(1, min(len(a), len(b))):
                if a[-k:] == b[:k]:
                    found.append((i, j, k))
            if i != j and b in a:
                found.append((i, j, len(b)))
    return found
