"""Seeded request streams for the three workloads.

A workload is an endless sequence of rounds.  Every round of a workload has
the same composition, so a run that attempts whole rounds attempts the same
share of each kind of request whatever the seed.  The seed picks the
concrete inputs: surds, prime blocks, curves, primes, matrices.  The program
sees only the argv built here (and, for match, the curves file named in it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable

import oracles as orc


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[str], None]
    # the output holds an integer of more than 4300 digits, which Python's
    # int-to-str limit refuses: the program exits 2 (a known fault)
    digit_limit_fault: bool = False


def _tok(theta: tuple[int, int, int]) -> str:
    return ",".join(map(str, theta))


# --- match-sweep -----------------------------------------------------------

# Surds in (0,1) as P,D,Q, each with fundamental unit below 20, so that
# T = tr(A^pi(p)) stays under 4300 digits for every p < 3000 (pi(p) <= p+1).
# A longer period forces a larger unit, so "long" here means period 3 to 5.
SHORT_PERIOD = [(-1, 5, 2), (-1, 2, 1), (-3, 13, 2), (-1, 3, 1), (-2, 5, 1), (-3, 21, 2), (-2, 8, 1), (-3, 10, 1)]
LONG_PERIOD = [(-2, 10, 2), (-3, 17, 2), (-4, 26, 2), (-5, 37, 3), (-3, 24, 3), (-2, 7, 1), (-5, 65, 5), (-4, 65, 7)]
FIXED_CURVES = [(0, 1), (-1, 0)]
MATCH_PRIMES = orc.primes_below(3000)
MATCH_STRATA = 24


def _nonsingular(a: int, b: int) -> bool:
    return 4 * a**3 + 27 * b**2 != 0


class Workload:
    """Rounds are generated in order from one seeded stream and kept, so the
    timed run and the traced run of a seed see the same requests."""

    name = ""
    distinct_rounds = 0  # 0: every round is new; n: cycle through n rounds

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.rounds: list[list[Request]] = []

    def round(self, r: int) -> list[Request]:
        if self.distinct_rounds:
            r %= self.distinct_rounds
        while len(self.rounds) <= r:
            self.rounds.append(self._new_round(len(self.rounds)))
        return self.rounds[r]

    def _new_round(self, r: int) -> list[Request]:
        raise NotImplementedError


class MatchSweep(Workload):
    """Rounds of 24 requests, one per stratum of the primes below 3000.

    The cost of pi_index grows as pi(p)^2, so blocks get shorter and
    requests name fewer curves as the primes grow: a block in the lowest
    stratum has 5 primes and 3 curves, one in the highest 1 prime and 1
    curve.  That keeps request times within one order of magnitude and
    lets a 36 s run finish several hundred requests.
    """

    name = "match-sweep"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed)
        extra = []
        while len(extra) < 2:
            a, b = self.rng.randint(-20, 20), self.rng.randint(-20, 20)
            if _nonsingular(a, b) and (a, b) not in FIXED_CURVES + extra:
                extra.append((a, b))
        self.curves = FIXED_CURVES + extra
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)

    def _curves_file(self, curves: list[tuple[int, int]]) -> str:
        path = self.work / ("curves_" + "_".join(f"{a}.{b}" for a, b in curves) + ".csv")
        if not path.exists():
            path.write_text("".join(f"{a},{b}\n" for a, b in curves), encoding="utf-8")
        return str(path)

    def _new_round(self, r: int) -> list[Request]:
        rng = self.rng
        short, long_ = SHORT_PERIOD[:], LONG_PERIOD[:]
        rng.shuffle(short)
        rng.shuffle(long_)
        order = list(range(MATCH_STRATA))
        rng.shuffle(order)
        out = []
        for s in order:
            f = s / MATCH_STRATA
            length = 1 + int((1 - f) * 4)
            ncurves = 3 - int(f * 3)
            theta = (short if (s + r) % 2 == 0 else long_)[(s // 2) % 8]
            lo = len(MATCH_PRIMES) * s // MATCH_STRATA
            hi = len(MATCH_PRIMES) * (s + 1) // MATCH_STRATA
            start = rng.randrange(lo, hi)
            primes = MATCH_PRIMES[start : start + length]
            first = FIXED_CURVES[(s + r) % 2]
            rest = rng.sample([c for c in self.curves if c != first], ncurves - 1)
            curves = [first] + rest
            argv = ["match", f"--curve={first[0]},{first[1]}", "--primes", ",".join(map(str, primes))]
            if rest:
                argv += ["--curves-file", self._curves_file(rest)]
            argv += ["--", _tok(theta)]
            out.append(
                Request(
                    "match",
                    tuple(argv),
                    lambda o, t=theta, c=curves, p=primes: orc.check_match(o, t, c, p),
                )
            )
        return out


# --- count-large-p -----------------------------------------------------------

COUNT_LO, COUNT_HI, COUNT_STRATA = 40_000, 120_000, 10


def _next_prime(n: int) -> int:
    while not all(n % d for d in range(2, isqrt(n) + 1)):
        n += 1
    return n


class CountLargeP(Workload):
    """Rounds of 10 count requests, one per tenth of [40000, 120000).

    Curves cycle through three families: y^2 = x^3 + b and y^2 = x^3 + a*x
    (supersingular at p = 2 mod 3 and p = 3 mod 4), and general a, b.
    """

    name = "count-large-p"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed)

    def _new_round(self, r: int) -> list[Request]:
        rng = self.rng
        order = list(range(COUNT_STRATA))
        rng.shuffle(order)
        width = (COUNT_HI - COUNT_LO) // COUNT_STRATA
        out = []
        for i, s in enumerate(order):
            family = (i + r) % 3
            while True:
                c = rng.randint(1, 10**6) * rng.choice((1, -1))
                a, b = [(0, c), (c, 0), (c, rng.randint(-(10**6), 10**6))][family]
                p = _next_prime(COUNT_LO + s * width + rng.randrange(width))
                if orc.is_good(a, b, p):
                    break
            argv = ("count", f"--curve={a},{b}", "--p", str(p))
            out.append(Request("count", argv, lambda o, a=a, b=b, p=p: orc.check_count(o, a, b, p)))
        return out


# --- small-requests ----------------------------------------------------------

# Fixed inputs whose matrix/unit output exceeds the 4300-digit int-to-str
# limit: sqrt(1000000007) has a period of 12352 terms and a unit of about
# 6400 digits.  They do not depend on the seed.
FAULT_THETA = (-31622, 1000000007, 1)
LARGE_D_POOL = 16
LARGE_D_PERIOD = (3600, 4400)  # period terms; the unit then has about 1900-2300 digits
SMALL_ROUND = [
    # (kind, variant, how many per round).  The 12 large-D requests are a
    # fifth of the 62 that complete, so the 90th percentile falls among them.
    ("cfrac", "small", 10),
    ("cfrac", "large", 4),
    ("matrix", "small", 7),
    ("matrix", "large", 4),
    ("matrix", "fault", 1),
    ("unit", "sqrtD", 4),
    ("unit", "general", 3),
    ("unit", "large", 4),
    ("unit", "fault", 1),
    ("group", "small", 7),
    ("group", "huge", 3),
    ("star-check", "", 8),
    ("ustar-check", "", 4),
    ("skew-demo", "", 4),
]


def _sqrt_period(D: int) -> tuple[int, float]:
    """Period length of sqrt(D) and log10 of its fundamental unit."""
    a0 = isqrt(D)
    m, d, a, n, lg, sd = 0, 1, a0, 0, 0.0, math.sqrt(D)
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        n += 1
        lg += math.log10((m + sd) / d)
        if a == 2 * a0:
            return n, lg


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        D = rng.randint(lo, hi)
        if isqrt(D) ** 2 != D:
            return D


def _unit_interval_theta(rng: random.Random, dmax: int) -> tuple[int, int, int]:
    """(P + sqrt(D))/Q in (0, 1) with 1 <= Q <= 12."""
    D = _nonsquare(rng, 2, dmax)
    q = rng.randint(1, 12)
    return (-isqrt(D) + rng.randrange(q), D, q)


def _gauss(rng: random.Random, real: bool, nonzero: bool = False) -> tuple[Fraction, Fraction]:
    def rat():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 9))

    re = rat()
    while nonzero and re == 0:
        re = rat()
    im = Fraction(0) if real else Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))
    return re, im


class SmallRequests(Workload):
    """Rounds of 64 quick requests in a seeded order; 2 of them hit the
    4300-digit fault, and 12 use D of order 10^8..10^9.  A run cycles through
    16 distinct rounds, which bounds the time spent checking outputs."""

    name = "small-requests"
    distinct_rounds = 16

    def __init__(self, seed: int, work: Path):
        super().__init__(seed)
        self.large = []
        while len(self.large) < LARGE_D_POOL:
            D = _nonsquare(self.rng, 10**8, 10**9)
            n, lg = _sqrt_period(D)
            if LARGE_D_PERIOD[0] <= n <= LARGE_D_PERIOD[1] and lg < 3500:
                self.large.append(D)

    def _make(self, kind: str, variant: str, i: int) -> Request:
        """The i-th request of this kind and variant in the run."""
        rng = self.rng
        if kind == "cfrac":
            if variant == "large":
                theta = (rng.randint(-50, 50), self.large[i % LARGE_D_POOL], 1)
            else:
                D = _nonsquare(rng, 2, 10**4)
                theta = (rng.randint(-100, 100), D, rng.randint(1, min(50, 2 * isqrt(D))))
            return Request(kind, ("cfrac", "--", _tok(theta)), lambda o, t=theta: orc.check_cfrac(o, t))
        if kind == "matrix":
            if variant == "fault":
                theta = FAULT_THETA
            elif variant == "large":
                D = self.large[(i + 3) % LARGE_D_POOL]
                theta = (-isqrt(D), D, 1)
            else:
                theta = _unit_interval_theta(rng, 10**4)
            return Request(
                kind, ("matrix", "--", _tok(theta)), lambda o, t=theta: orc.check_matrix(o, t), variant == "fault"
            )
        if kind == "unit":
            f = 1
            if variant == "fault":
                theta = FAULT_THETA
            elif variant == "large":
                D = self.large[(i + 5) % LARGE_D_POOL]
                theta = (-isqrt(D), D, 1)
            elif variant == "sqrtD":
                D = _nonsquare(rng, 2, 2000)
                theta, f = (-isqrt(D), D, 1), rng.randint(1, 10)
            else:
                theta, f = _unit_interval_theta(rng, 2000), rng.randint(1, 10)
            argv = ("unit", "--conductor", str(f), "--", _tok(theta))
            return Request(kind, argv, lambda o, t=theta, f=f: orc.check_unit(o, t, f), variant == "fault")
        if kind == "group":
            while True:
                if variant == "huge":
                    entries = tuple(
                        rng.choice((1, -1)) * rng.randrange(10 ** rng.randint(100, 400)) for _ in range(4)
                    )
                else:
                    entries = tuple(rng.randint(-50, 50) for _ in range(4))
                a, b, c, d = entries
                if (1 - a) * (1 - d) - b * c != 0:
                    break
            return Request(
                kind, ("group", "--matrix=" + ",".join(map(str, entries))), lambda o, e=entries: orc.check_group(o, e)
            )
        if kind == "star-check":
            real = rng.random() < 0.5
            p = _gauss(rng, real or rng.random() < 0.5, nonzero=True)
            q = _gauss(rng, real or rng.random() < 0.5)
            argv = ("star-check", f"--p={p[0]},{p[1]}", f"--q={q[0]},{q[1]}")
            return Request(kind, argv, lambda o, pi=p[1], qi=q[1]: orc.check_star(o, pi, qi))
        if kind == "ustar-check":
            return Request(kind, ("ustar-check",), orc.check_ustar)
        return Request(kind, ("skew-demo",), orc.check_skew_demo)

    def _new_round(self, r: int) -> list[Request]:
        out = [self._make(kind, variant, r * n + j) for kind, variant, n in SMALL_ROUND for j in range(n)]
        self.rng.shuffle(out)
        return out


WORKLOADS = {w.name: w for w in (MatchSweep, CountLargeP, SmallRequests)}
