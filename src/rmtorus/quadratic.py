"""Exact real quadratic irrationals and their periodic continued fractions.

A value is the integer triple (P, D, Q) meaning (P + sqrt(D))/Q, with D > 0
not a perfect square and Q != 0.  The sign of the irrational part lives in Q,
so the numerator always carries +sqrt(D).  A value is stored as its primitive
triple: Q | D - P^2, which makes the continued fraction recurrence purely
integral, and gcd(P, (D - P^2)/Q, Q) = 1, so that every other triple of the
value is a positive multiple (kP, k^2 D, kQ) of it and equal values have equal
fields.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from math import gcd, isqrt

from .value import Value


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _floor(P: int, s: int, Q: int) -> int:
    """floor((P + sqrt(D))/Q) for s = isqrt(D): sqrt(D) is irrational, so
    floor(P + sqrt(D)) = P + s."""
    return (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)


class QuadraticIrrational(Value):
    """(P + sqrt(D)) / Q as its primitive triple: Q | D - P^2 and
    gcd(P, (D - P^2)/Q, Q) = 1.  Build any other triple via canonicalize()."""

    __slots__ = ("P", "D", "Q")

    def __init__(self, P: int, D: int, Q: int):
        if D <= 0 or _is_square(D):
            raise ValueError(f"D must be positive and not a perfect square, got {D}")
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if (D - P * P) % Q != 0:
            raise ValueError(f"({P},{D},{Q}) violates Q | D - P^2; use canonicalize()")
        if gcd(P, (D - P * P) // Q, Q) != 1:
            raise ValueError(f"({P},{D},{Q}) is not primitive; use canonicalize()")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Q", Q)

    def floor(self) -> int:
        return _floor(self.P, isqrt(self.D), self.Q)


class ContinuedFraction(Value):
    """Eventually periodic expansion: preperiod then period repeated forever."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: tuple[int, ...], period: tuple[int, ...]):
        preperiod, period = tuple(preperiod), tuple(period)
        if not period:
            raise ValueError("period must be nonempty")
        if min(period) < 1:
            raise ValueError("period entries must be >= 1")
        if min(preperiod[1:], default=1) < 1:
            raise ValueError("preperiod entries after the first must be >= 1")
        n = len(period)
        for d in range(1, n):
            if n % d == 0 and period == period[:d] * (n // d):
                raise ValueError(f"period {period} is a repetition of length {d}")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)


def canonicalize(P: int, D: int, Q: int) -> QuadraticIrrational:
    """The primitive triple of (P + sqrt(D))/Q: rescale by |Q| so that
    Q | D - P^2, then divide by the content g = gcd(P, (D - P^2)/Q, Q), which
    gives (P/g, D/g^2, Q/g).  Idempotent."""
    if D <= 0 or _is_square(D):
        raise ValueError(f"D must be positive and not a perfect square, got {D}")
    if Q == 0:
        raise ValueError("Q must be nonzero")
    if (D - P * P) % Q != 0:
        s = abs(Q)
        P *= s
        D *= s * s
        Q *= s
    g = gcd(P, (D - P * P) // Q, Q)
    return QuadraticIrrational(P // g, D // (g * g), Q // g)


def _from_parts(P: int, m: int, D: int, Q: int) -> QuadraticIrrational:
    """Primitive triple of (P + m*sqrt(D))/Q for any integer multiplier m != 0."""
    if m == 0:
        raise ValueError("value is rational (zero irrational part)")
    if m < 0:
        P, m, Q = -P, -m, -Q
    return canonicalize(P, D * m * m, Q)


def _mobius(theta: QuadraticIrrational, a: int, b: int, c: int, d: int) -> QuadraticIrrational:
    """Exact (a*theta + b)/(c*theta + d) for integers with ad - bc != 0."""
    det = a * d - b * c
    if det == 0:
        raise ValueError("transform is singular")
    P, D, Q = theta.P, theta.D, theta.Q
    A = a * P + b * Q
    C = c * P + d * Q
    den = C * C - c * c * D
    # c*theta + d = 0 would force theta rational
    assert den != 0
    return _from_parts(A * C - a * c * D, Q * det, D, den)


def _expand_cycle(theta: QuadraticIrrational) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Run the integer recurrence on (P, Q), D fixed, into its cycle and once
    round it; returns (preperiod, period).

    By Galois' theorem a tail is purely periodic iff it is reduced (x > 1
    and -1 < x' < 0), so the period starts at the first reduced state and
    ends when that state recurs; no state is stored.  Once the surd is
    reduced there are O(D) states; reaching the reduced range from a tall
    input shrinks P, Q like Euclid's algorithm, so the cap on steps over both
    phases gets a term linear in their bit size.
    """
    D, s = theta.D, isqrt(theta.D)
    P, Q = theta.P, theta.Q
    # checked once: each step below keeps Q | D - P^2
    if (D - P * P) % Q:
        raise ValueError(f"recurrence leaves the integers at P={P}: Q does not divide D - P^2")
    quotients: list[int] = []
    cap = 2 * D + 8 * (abs(P).bit_length() + abs(Q).bit_length()) + 64
    for _ in range(cap):
        # reduced, x > 1 and -1 < x' < 0, in integers: sqrt(D) is irrational, so
        # P < sqrt(D) iff P <= s, and Q <= P + sqrt(D) iff Q <= P + s
        if Q > 0 and 0 < P <= s and s - P < Q <= s + P:
            break
        a = _floor(P, s, Q)
        quotients.append(a)
        # theta' = 1/(theta - a):  P' = a*Q - P,  Q' = (D - P'^2)/Q, exact as
        # D - P'^2 = D - P^2 (mod Q); then D - P'^2 = Q*Q', so Q' | D - P'^2
        P = a * Q - P
        Q = (D - P * P) // Q
    else:
        raise RuntimeError(f"no cycle within {cap} steps; recurrence invariant broken")
    pre, P0, Q0 = len(quotients), P, Q
    # a reduced state has Q > 0 and leads to a reduced state
    for _ in range(pre + 1, cap):
        a = (P + s) // Q
        quotients.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if P == P0 and Q == Q0:
            return tuple(quotients[:pre]), tuple(quotients[pre:])
    raise RuntimeError(f"no cycle within {cap} steps; recurrence invariant broken")


def cf_expand(theta: QuadraticIrrational) -> ContinuedFraction:
    """Minimal-period continued fraction of theta, found by exact cycle detection."""
    return ContinuedFraction(*_expand_cycle(theta))

