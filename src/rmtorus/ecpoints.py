"""Elliptic curves y^2 = x^3 + a*x + b over prime fields: exact point counts,
and the per-prime fingerprint pipeline that compares the cokernel group
order |det(I - L_p)| with the curve's point count.

count_points is the one point-count kernel, in pure Python: a sum over x of
the number of square roots of x^3 + a*x + b, read from a table of the
squares of F_p.  Since f(-x) = 2b - f(x), each x in 1..(p - 1)/2 is paired
with -x: one step reads the table at f(x) and at 2b - f(x), so the loop
covers half of F_p.  The tests check it against two oracles that share
nothing with a table, count_points_naive (all pairs (x, y)) and the
Euler-criterion character sum.  The table has p bytes, so p is bounded by
COUNT_P_MAX.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Sequence

from .intmat import AbelianGroup, IMat2, build_Lp, cokernel_group, mat_trace_pow
from .quadratic import QuadraticIrrational
from .units import DEFAULT_CAP, SearchLimitExceeded, SubOrder, fundamental_unit, is_prime, pi_index
from .value import Value

BACKEND = "python"  # name of the point-count kernel, for reports

# largest p that count_points takes: a table of p bytes and (p - 1)/2 paired
# steps, about 10 MB and 2.5 s at p = 9,999,991
COUNT_P_MAX = 10**7


class Curve(Value):
    """Short Weierstrass curve with integer coefficients; must be non-singular."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.discriminant() == 0:
            raise ValueError(f"singular curve: a={a}, b={b}")

    def discriminant(self) -> int:
        return -16 * (4 * self.a**3 + 27 * self.b**2)

    def __str__(self):
        return f"y^2 = x^3 + {self.a}*x + {self.b}"


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def is_good_prime(e: Curve, p: int) -> bool:
    """True iff p > 3 and p does not divide the discriminant."""
    _require_prime(p)
    return _is_good(e, p)


def _is_good(e: Curve, p: int) -> bool:
    """is_good_prime for a p already known to be prime."""
    return p > 3 and e.discriminant() % p != 0


def count_points(e: Curve, p: int) -> tuple[int, int]:
    """(|E(F_p)|, a_p) for a good prime p <= COUNT_P_MAX; a_p = p + 1 - count."""
    if not is_good_prime(e, p):
        raise ValueError(f"p={p} is not a good prime for {e}")
    _require_countable(p)
    return _count(e, p)


def _require_countable(p: int) -> None:
    if p > COUNT_P_MAX:
        raise SearchLimitExceeded(
            f"p={p} is above {COUNT_P_MAX}, the largest p whose points are counted"
        )


def _count(e: Curve, p: int) -> tuple[int, int]:
    """count_points for a p already known to be a good prime, at most
    COUNT_P_MAX.

    sq[v] is the number of y in F_p with y^2 = v: 1 at 0, 2 at each of the
    (p - 1)/2 nonzero squares, 0 elsewhere.  The count is then the point at
    infinity plus the sum of sq over the values of the cubic.

    The cubic is odd up to its constant: f(-x) = 2b - f(x).  So x = 0 gives
    sq[b], and x, p - x for 1 <= x <= (p - 1)/2 give sq[v] + sq[c - v] with
    v = f(x) mod p and c = 2b mod p; as c - v lies in (-p, p), Python's
    negative indexing reads sq[(c - v) mod p] from the same table.  The sum
    runs over half of F_p and builds no second p-sized object."""
    a, b = e.a % p, e.b % p
    sq = bytearray(p)
    sq[0] = 1
    for y in range(1, (p + 1) // 2):
        sq[y * y % p] = 2
    c = 2 * b % p
    n = 1 + sq[b] + sum(
        sq[(v := ((x * x + a) * x + b) % p)] + sq[c - v] for x in range(1, (p + 1) // 2)
    )
    ap = p + 1 - n
    if ap * ap > 4 * p:
        raise ArithmeticError(f"count {n} violates |a_p| <= 2*sqrt({p})")
    return n, ap


class Fingerprint(namedtuple("Fingerprint", "p pi T")):
    """Per-prime data of the unit/matrix pipeline for one theta: the prime p,
    the index pi(p) and T = tr(A^pi(p)); L_p, det(I - L_p) and the cokernel
    group are derived from them."""

    __slots__ = ()

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
    eigenvalues eps and its conjugate, so tr(A^k) = tr(M^k), which
    mat_trace_pow takes by Lucas doubling.  The cap and
    the primes are checked before the unit is computed."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for p in primes:
        _require_prime(p)
    return _fingerprint(theta, primes, cap)


def _fingerprint(theta: QuadraticIrrational, primes: Sequence[int], cap: int) -> list[Fingerprint]:
    """fingerprint for a cap and primes already checked."""
    unit = fundamental_unit(SubOrder(theta))
    rows = []
    for p in primes:
        k = pi_index(unit, p, cap=cap)
        rows.append(Fingerprint(p, k, mat_trace_pow(unit, k)))
    return rows


def match_curves(
    theta: QuadraticIrrational,
    curves: Sequence[Curve],
    primes: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> Iterator[tuple[Curve, tuple[tuple[Fingerprint, int, bool], ...], tuple[int, ...]]]:
    """One report (curve, entries, skipped) per curve, lazily and in order.
    entries holds, per good prime in order, (fingerprint row, |E(F_p)|,
    whether |det(I - L_p)| equals it); skipped holds the primes bad for the
    curve.  A report records agreement where it happens; it asserts nothing
    about whether matches must exist.

    Each distinct prime is tested for primality once, before any work, and
    each curve's good primes are held to COUNT_P_MAX before its fingerprints.
    The fingerprint of each prime is computed once and shared by every curve
    for which it is good.  Laziness keeps the order of effects: a curve's report
    is yielded before any prime only a later curve needs is searched."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for p in dict.fromkeys(primes):
        _require_prime(p)
    rows: dict[int, Fingerprint] = {}
    for e in curves:
        good = [p for p in primes if _is_good(e, p)]
        for p in good:
            _require_countable(p)
        skipped = tuple(p for p in primes if p not in good)
        missing = list(dict.fromkeys(p for p in good if p not in rows))
        if missing:
            rows.update((row.p, row) for row in _fingerprint(theta, missing, cap))
        entries = []
        for p in good:
            row = rows[p]
            n, _ = _count(e, p)
            entries.append((row, n, abs(row.det_iml) == n))
        yield e, tuple(entries), skipped


def match_curve(
    theta: QuadraticIrrational,
    e: Curve,
    primes: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> tuple[Curve, tuple[tuple[Fingerprint, int, bool], ...], tuple[int, ...]]:
    """match_curves for a single curve."""
    return next(match_curves(theta, [e], primes, cap=cap))
