"""Independent checks of rmtorus output.

Nothing here imports rmtorus.  Every expected value is either computed by a
different method than the program uses (brute-force unit search, a scan of
unit powers modulo p, the Lucas recurrence for traces, square-count tables
for point counts, sympy's continued fractions and Pell solver) or is a
property the answer must have (Hasse bound, norm +-1, Smith normal form
divisibility, supersingular counts).  A failed check raises WrongAnswer.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


class WrongAnswer(Exception):
    """An output disagrees with an independent computation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def same_surd(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """(P + sqrt(D))/Q equal as real numbers for two integer triples."""
    (p1, d1, q1), (p2, d2, q2) = a, b
    return (
        Fraction(p1, q1) == Fraction(p2, q2)
        and Fraction(d1, q1 * q1) == Fraction(d2, q2 * q2)
        and (q1 > 0) == (q2 > 0)
    )


def surd_trace_norm(P: int, D: int, Q: int) -> tuple[Fraction, Fraction]:
    return Fraction(2 * P, Q), Fraction(P * P - D, Q * Q)


# --- units of the multiplier ring, by brute force --------------------------


@lru_cache(maxsize=None)
def lattice_unit(P: int, D: int, Q: int) -> tuple[int, int, int, int]:
    """Smallest unit eps > 1 of the multiplier ring of Z + Z*theta,
    theta = (P + sqrt(D))/Q, as (x, y, trace, norm) with eps = x + y*theta.

    theta is a root of the primitive form a*X^2 + b*X + c; the ring is
    Z[a*theta] of discriminant disc = b^2 - 4ac, and its units are
    (t + u*sqrt(disc))/2 with t^2 - disc*u^2 = +-4.  The smallest u > 0 with
    a solution gives the smallest unit; at equal u the norm -1 one is smaller.
    """
    a, b, c = Q * Q, -2 * P * Q, P * P - D
    g = gcd(gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    disc = b * b - 4 * a * c
    s = 1 if Q > 0 else -1  # theta = (-b + s*sqrt(disc)) / (2a)
    u = 1
    while True:
        for n4 in (-4, 4):
            t2 = disc * u * u + n4
            t = isqrt(t2)
            if t * t == t2:
                # (t + u*sqrt(disc))/2 with sqrt(disc) = s*(2a*theta + b)
                return (t + s * u * b) // 2, s * u * a, t, n4 // 4
        u += 1


def multiplication_matrix(x: int, y: int, P: int, D: int, Q: int) -> tuple[int, int, int, int]:
    """Integer matrix (row-major) of multiplication by x + y*theta on {1, theta}."""
    tr, nm = surd_trace_norm(P, D, Q)
    c01 = -y * nm
    c11 = x + y * tr
    require(c01.denominator == 1 and c11.denominator == 1, "unit does not preserve the lattice")
    return x, int(c01), y, int(c11)


def least_power_in_sublattice(m: tuple[int, int, int, int], p: int) -> int:
    """Least k >= 1 with p | theta-coordinate of eps^k, scanning eps^k * 1 mod p."""
    m00, m01, m10, m11 = (v % p for v in m)
    x, y = m00, m10
    for k in range(1, p * p + 2):
        if y == 0:
            return k
        x, y = (m00 * x + m01 * y) % p, (m10 * x + m11 * y) % p
    raise WrongAnswer(f"no power of the unit lands in the conductor-{p} sublattice")


def lucas_trace(tr: int, det: int, n: int) -> int:
    """V_n = tr*V_{n-1} - det*V_{n-2}, V_0 = 2, V_1 = tr: the trace of M^n."""
    v0, v1 = 2, tr
    for _ in range(n):
        v0, v1 = v1, tr * v1 - det * v0
    return v0


# --- point counts ------------------------------------------------------------


@lru_cache(maxsize=64)
def _square_counts(p: int) -> tuple[int, ...]:
    counts = [0] * p
    for y in range(p):
        counts[y * y % p] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def point_count_small(a: int, b: int, p: int) -> int:
    sq = _square_counts(p)
    return 1 + sum(sq[(x * x * x + a * x + b) % p] for x in range(p))


def point_count_numpy(a: int, b: int, p: int) -> int:
    import numpy as np

    x = np.arange(p, dtype=np.int64)
    sq = np.bincount(x * x % p, minlength=p)
    rhs = ((x * x % p) * x + (a % p) * x + (b % p)) % p
    return 1 + int(sq[rhs].sum())


def check_hasse(count: int, p: int) -> None:
    ap = p + 1 - count
    require(ap * ap <= 4 * p, f"count {count} at p={p} breaks the Hasse bound")


def is_good(a: int, b: int, p: int) -> bool:
    return p > 3 and (4 * a**3 + 27 * b**2) % p != 0


# --- workload checks -----------------------------------------------------------


@lru_cache(maxsize=None)
def fingerprint_oracle(theta: tuple[int, int, int], p: int) -> tuple[int, int]:
    """(pi(p), T) computed independently of the program."""
    x, y, tr, nrm = lattice_unit(*theta)
    k = least_power_in_sublattice(multiplication_matrix(x, y, *theta), p)
    # the period matrix A has the fundamental unit as eigenvalue: tr A = tr eps, det A = N eps
    return k, lucas_trace(tr, nrm, k)


def check_match(out: str, theta, curves, primes) -> None:
    lines = json_lines(out)
    pos = 0
    for a, b in curves:
        good = [p for p in primes if is_good(a, b, p)]
        for p in good:
            require(pos < len(lines), "match output ends early")
            row = lines[pos]
            pos += 1
            k, T = fingerprint_oracle(theta, p)
            require(row["p"] == p and row["curve"] == [a, b], f"unexpected line {row}")
            require(row["pi"] == k, f"pi({p}) = {row['pi']}, least power is {k}")
            require(row["T"] == T, f"T at p={p} differs from the Lucas recurrence")
            require(row["detImL"] == 1 + p - T, f"detImL at p={p} is not 1 + p - T")
            require(row["group"] == [1, abs(1 + p - T)], f"group at p={p} is not Z/|1+p-T|")
            n = point_count_small(a, b, p)
            check_hasse(n, p)
            require(row["ec_count"] == n, f"ec_count of {a},{b} at p={p}: {row['ec_count']} != {n}")
            require(row["match"] == (abs(1 + p - T) == n), f"match flag wrong at p={p}")
        require(pos < len(lines), "match summary missing")
        summary = lines[pos]
        pos += 1
        rows = lines[pos - 1 - len(good) : pos - 1]
        require(
            summary
            == {
                "curve": [a, b],
                "matching": [r["p"] for r in rows if r["match"]],
                "mismatching": [r["p"] for r in rows if not r["match"]],
                "skipped": [p for p in primes if not is_good(a, b, p)],
            },
            f"summary disagrees with per-prime lines: {summary}",
        )
    require(pos == len(lines), "match printed extra lines")


def check_count(out: str, a: int, b: int, p: int) -> None:
    (row,) = json_lines(out)
    n = point_count_numpy(a, b, p)
    check_hasse(n, p)
    if a == 0 and p % 3 == 2 or b == 0 and p % 4 == 3:
        require(n == p + 1, f"supersingular curve {a},{b} at p={p} must have p+1 points")
    require(row == {"curve": [a, b], "p": p, "count": n, "a_p": p + 1 - n}, f"count row {row} != {n}")


def _sympy_cf(P: int, D: int, Q: int) -> tuple[list[int], list[int]]:
    """Preperiod and period of (P + sqrt(D))/Q, Q > 0, from sympy's PQa
    expansion (the one behind its Pell solver), cut at the first repeated
    (P_i, Q_i) state.  PQa takes floors as (P_i + isqrt(D)) // Q_i, right only
    while Q_i > 0; otherwise sympy's continued_fraction_periodic is used,
    which is exact but evaluates a symbolic floor per term (about 15 s for a
    4000-term period)."""
    from sympy.ntheory.continued_fraction import continued_fraction_periodic
    from sympy.solvers.diophantine.diophantine import PQa

    if (D - P * P) % Q:
        P, D, Q = P * Q, D * Q * Q, Q * Q
    seen: dict[tuple[int, int], int] = {}
    terms: list[int] = []
    for p_i, q_i, a_i, *_ in PQa(P, Q, D):
        if (p_i, q_i) in seen:
            i = seen[p_i, q_i]
            return terms[:i], terms[i:]
        if q_i <= 0:
            *pre, per = continued_fraction_periodic(P, Q, D)
            return [int(t) for t in pre], [int(t) for t in per]
        seen[p_i, q_i] = len(terms)
        terms.append(int(a_i))
    raise AssertionError("PQa is an endless generator")


def check_cfrac(out: str, theta) -> None:
    (row,) = json_lines(out)
    require(same_surd((row["P"], row["D"], row["Q"]), theta), f"cfrac changed the value of {theta}")
    pre, per = _sympy_cf(*theta)
    require(row["preperiod"] == pre and row["period"] == per, f"cfrac of {theta} disagrees with sympy")


def check_matrix(out: str, theta) -> None:
    (row,) = json_lines(out)
    _, per = _sympy_cf(*theta)
    require(row["period"] == per, f"period of {theta} disagrees with sympy")
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in per:
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    require(row["A"] == [[m00, m01], [m10, m11]], f"A of {theta} is not the period product")
    require(row["trace"] == m00 + m11, "matrix trace is not tr A")
    require(row["det"] == (-1) ** len(per), "det A is not (-1)^len(period)")


def check_unit(out: str, theta, conductor: int) -> None:
    (row,) = json_lines(out)
    x, y = row["x"], row["y"]
    P, D, Q = theta
    tr, nm = surd_trace_norm(P, D, Q)
    norm = x * x + x * y * tr + y * y * nm
    require(norm in (1, -1) and row["norm"] == norm, f"unit of {theta} has norm {norm}")
    require(y % conductor == 0, f"unit y={y} not divisible by conductor {conductor}")
    if Q == 1:
        # Z + Z*theta = Z[sqrt(D)], so the suborder is Z[sqrt(f^2 D)]: compare
        # with sympy's least solution of X^2 - f^2 D Z^2 = -1, else = +1
        from sympy.solvers.diophantine.diophantine import diop_DN

        dd = conductor * conductor * D
        sols = diop_DN(dd, -1) or diop_DN(dd, 1)
        X, Z = (int(v) for v in sols[0])
        require((x + y * P, y // conductor) == (X, Z), f"unit of {theta}, f={conductor} is not the least")


def check_group(out: str, entries: tuple[int, int, int, int]) -> None:
    (row,) = json_lines(out)
    a, b, c, d = entries
    m = (1 - a, -b, -c, 1 - d)
    det = m[0] * m[3] - m[1] * m[2]
    d1, d2 = row["group"]
    require(row["L"] == [[a, b], [c, d]] and row["detImL"] == det, "group echoes L or det(I-L) wrongly")
    require(d1 == gcd(gcd(m[0], m[1]), gcd(m[2], m[3])), "d1 is not the gcd of the entries of I-L")
    require(d2 % d1 == 0 if d1 else d2 == 0, "d1 does not divide d2")
    require(d1 * d2 == abs(det), "d1*d2 is not |det(I-L)|")


def check_star(out: str, p_im: Fraction, q_im: Fraction) -> None:
    require(json_lines(out) == [{"coherent": p_im == 0 and q_im == 0}], "star-check verdict wrong")


_TERM = re.compile(r"([+-]?)(\d*)\*?((?:x[12](?:\^\d+)?\*?)*)")


def parse_nc(text: str) -> dict[str, int]:
    """'x1^2 - x2^2' -> {'x1x1': 1, 'x2x2': -1}; words in x1, x2 only."""
    poly: dict[str, int] = {}
    for sign, coef, word in _TERM.findall(text.replace(" ", "")):
        if not (coef or word):
            continue
        letters = ""
        for gen, exp in re.findall(r"x([12])(?:\^(\d+))?", word):
            letters += ("x" + gen) * int(exp or 1)
        poly[letters] = poly.get(letters, 0) + (-1 if sign == "-" else 1) * int(coef or 1)
    return {w: c for w, c in poly.items() if c}


def check_ustar(out: str) -> None:
    # r = x1x2 - x2x1 - x1^2; with (fg)* = g*f*, x1* = x2: r* = x1x2 - x2x1 - x2^2,
    # and rewriting x2x1 -> x1x2 - x1^2 leaves x1^2 - x2^2
    (row,) = json_lines(out)
    require(row["preserved"] is False, "x1* = x2 must not preserve the relation")
    require(parse_nc(row["residual"]) == {"x1x1": 1, "x2x2": -1}, f"residual {row['residual']!r}")


def check_skew_demo(out: str) -> None:
    # alpha(u) = u + 1: t*u = (u+1)*t, t^-1*u = (u-1)*t^-1, star(u*t) = t^-1*u
    require("relation x1*x2 - x2*x1 - x1^2 == 0 with x1 = t, x2 = u*t: True" in out, "relation check")
    rows = {line.split("|")[0].strip(): [c.strip() for c in line.split("|")[1:]] for line in out.splitlines() if "|" in line}
    require(rows.get("*") == ["u", "t", "t^-1", "u*t"], "product table header")
    require(rows["t"][0] == "(u + 1)*t" and rows["t"][2] == "1", "t*u or t*t^-1 wrong")
    require(rows["t^-1"][0] == "(u - 1)*t^-1" and rows["t^-1"][1] == "1", "t^-1*u or t^-1*t wrong")
    require(out.rstrip().endswith("star(u*t) = (u - 1)*t^-1"), "star(u*t) wrong")
