"""Exact 2x2 integer matrix algebra: period-matrix products, Smith normal
form, and the cokernel groups Z^2/(I - L)Z^2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IMat2:
    """Row-major [[a, b], [c, d]] over arbitrary-precision integers."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity() -> IMat2:
        return IMat2(1, 0, 0, 1)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group on two generators, as invariant
    factors d1 | d2; a zero factor is an infinite cyclic summand."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("invariant factors must be nonnegative")
        if self.d1 == 0 and self.d2 != 0:
            raise ValueError("zero factors come last")
        if self.d1 != 0 and self.d2 != 0 and self.d2 % self.d1 != 0:
            raise ValueError(f"d1={self.d1} must divide d2={self.d2}")

    def order(self) -> int | None:
        """Group order, or None when a factor is infinite."""
        if self.d1 == 0 or self.d2 == 0:
            return None
        return self.d1 * self.d2

    def is_trivial(self) -> bool:
        return self.d1 == 1 and self.d2 == 1

    def __str__(self):
        names = []
        for d in (self.d1, self.d2):
            if d == 0:
                names.append("Z")
            elif d > 1:
                names.append(f"Z/{d}")
        return " x ".join(names) if names else "0"


def mat_mul(x: IMat2, y: IMat2) -> IMat2:
    return IMat2(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def mat_pow(m: IMat2, k: int) -> IMat2:
    if k < 0:
        raise ValueError("negative matrix powers are not supported")
    result = IMat2.identity()
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_trace(m: IMat2) -> int:
    return m.a + m.d


def mat_det(m: IMat2) -> int:
    return m.a * m.d - m.b * m.c


def mat_sub(x: IMat2, y: IMat2) -> IMat2:
    return IMat2(x.a - y.a, x.b - y.b, x.c - y.c, x.d - y.d)


def matrix_A(period: Sequence[int]) -> IMat2:
    """Left-to-right product of [[a_i, 1], [1, 0]] over a continued fraction
    period; det is (-1)^len(period)."""
    if not period:
        raise ValueError("period must be nonempty")
    if any(a < 1 for a in period):
        raise ValueError("period entries must be >= 1")
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in period:
        # right-multiply by [[a, 1], [1, 0]]
        m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
    return IMat2(m00, m01, m10, m11)


def build_Lp(T: int, p: int) -> IMat2:
    """The degree-p endomorphism matrix [[T-p, p], [T-p-1, p]] attached to a
    trace value T; det(I - L) = 1 + p - T by construction."""
    if p < 2:
        raise ValueError("p must be >= 2")
    L = IMat2(T - p, p, T - p - 1, p)
    assert mat_det(mat_sub(IMat2.identity(), L)) == 1 + p - T
    return L


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


def cokernel_group(l: IMat2) -> AbelianGroup:
    """Invariant factors of Z^2 / (I - l) Z^2 via Smith normal form."""
    _, d, _ = smith_normal_form(mat_sub(IMat2.identity(), l))
    return AbelianGroup(d.a, d.d)
