"""Elliptic curves y^2 = x^3 + a*x + b over prime fields: exact point counts,
and the per-prime fingerprint pipeline that compares the cokernel group
order |det(I - L_p)| with the curve's point count.

The character sum in count_points is the one point-count kernel, in pure
Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .intmat import AbelianGroup, IMat2, build_Lp, cokernel_group, mat_pow, mat_trace
from .quadratic import QuadraticIrrational
from .units import DEFAULT_CAP, SubOrder, fundamental_unit, pi_index

BACKEND = "python"  # name of the point-count kernel, for reports


@dataclass(frozen=True)
class Curve:
    """Short Weierstrass curve with integer coefficients; must be non-singular."""

    a: int
    b: int

    def __post_init__(self):
        if self.discriminant() == 0:
            raise ValueError(f"singular curve: a={self.a}, b={self.b}")

    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    def __str__(self):
        return f"y^2 = x^3 + {self.a}*x + {self.b}"


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


def is_good_prime(e: Curve, p: int) -> bool:
    """True iff p > 3 and p does not divide the discriminant."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p > 3 and e.discriminant() % p != 0


def count_points(e: Curve, p: int) -> tuple[int, int]:
    """(|E(F_p)|, a_p) via the quadratic-character sum; a_p = p + 1 - count."""
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
    n = p + 1 + s
    ap = p + 1 - n
    if ap * ap > 4 * p:
        raise ArithmeticError(f"count {n} violates |a_p| <= 2*sqrt({p})")
    return n, ap


@dataclass(frozen=True)
class Fingerprint:
    """Per-prime data of the unit/matrix pipeline for one theta: the prime p,
    the index pi(p) and T = tr(A^pi(p)); L_p, det(I - L_p) and the cokernel
    group are derived from them."""

    p: int
    pi: int
    T: int

    @property
    def Lp(self) -> IMat2:
        return build_Lp(self.T, self.p)

    @property
    def det_iml(self) -> int:
        """det(I - L_p)."""
        return 1 + self.p - self.T

    @property
    def group(self) -> AbelianGroup:
        # gcd(p, 1 - p) = 1, so the group is cyclic
        return cokernel_group(self.Lp)


def fingerprint(
    theta: QuadraticIrrational, primes: Sequence[int], cap: int = DEFAULT_CAP
) -> list[Fingerprint]:
    """For each p: the index pi(p) and T = tr(A^pi(p)) for the period matrix A
    of theta, from which a Fingerprint derives L_p, det(I - L_p) and the
    cokernel group.

    Both pi(p) and T come from the one unit matrix M: A and M share the
    eigenvalues eps and its conjugate, so tr(A^k) = tr(M^k).  The cap and
    the primes are checked before the unit is computed."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    unit = fundamental_unit(SubOrder(theta))
    rows = []
    for p in primes:
        k = pi_index(unit, p, cap=cap)
        rows.append(Fingerprint(p, k, mat_trace(mat_pow(unit, k))))
    return rows


@dataclass(frozen=True)
class MatchEntry:
    data: Fingerprint
    ec_count: int
    match: bool


@dataclass(frozen=True)
class MatchReport:
    curve: Curve
    entries: tuple[MatchEntry, ...]
    skipped: tuple[int, ...]

    def matching(self) -> list[int]:
        return [e.data.p for e in self.entries if e.match]

    def mismatching(self) -> list[int]:
        return [e.data.p for e in self.entries if not e.match]


def match_curves(
    theta: QuadraticIrrational,
    curves: Sequence[Curve],
    primes: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> Iterator[MatchReport]:
    """One MatchReport per curve, lazily and in order: per good prime,
    compare |det(I - L_p)| with |E(F_p)|.  A report records agreement where
    it happens; it asserts nothing about whether matches must exist.

    The fingerprint of each prime is computed once and shared by every curve
    for which it is good.  Laziness keeps the order of effects: a curve's
    report is yielded before any prime only a later curve needs is searched."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    rows: dict[int, Fingerprint] = {}
    for e in curves:
        good = [p for p in primes if is_good_prime(e, p)]
        skipped = tuple(p for p in primes if p not in good)
        missing = list(dict.fromkeys(p for p in good if p not in rows))
        if missing:
            rows.update((row.p, row) for row in fingerprint(theta, missing, cap=cap))
        entries = []
        for p in good:
            row = rows[p]
            n, _ = count_points(e, p)
            entries.append(MatchEntry(row, n, abs(row.det_iml) == n))
        yield MatchReport(e, tuple(entries), skipped)


def match_curve(
    theta: QuadraticIrrational,
    e: Curve,
    primes: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> MatchReport:
    """match_curves for a single curve."""
    return next(match_curves(theta, [e], primes, cap=cap))
