"""Exact 2x2 integer matrix algebra: period-matrix products by binary
splitting, traces of powers by Lucas doubling, and the cokernel groups
Z^2/(I - L)Z^2 read from the determinantal divisors of I - L."""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import Sequence


class IMat2(namedtuple("IMat2", "a b c d")):
    """Row-major [[a, b], [c, d]] over arbitrary-precision integers."""

    __slots__ = ()

    @staticmethod
    def identity() -> IMat2:
        return IMat2(1, 0, 0, 1)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


class AbelianGroup(namedtuple("AbelianGroup", "d1 d2")):
    """Finitely generated abelian group on two generators, as invariant
    factors d1 | d2; a zero factor is an infinite cyclic summand."""

    __slots__ = ()

    def __new__(cls, d1: int, d2: int):
        if d1 < 0 or d2 < 0:
            raise ValueError("invariant factors must be nonnegative")
        if d1 == 0 and d2 != 0:
            raise ValueError("zero factors come last")
        if d1 != 0 and d2 != 0 and d2 % d1 != 0:
            raise ValueError(f"d1={d1} must divide d2={d2}")
        return super().__new__(cls, d1, d2)


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


def mat_trace_pow(m: IMat2, k: int) -> int:
    """tr(m^k) for k >= 0, by Lucas doubling on V_j = tr(m^j): with t = tr m
    and d = det m, V_2j = V_j^2 - 2*d^j and V_2j+1 = V_j*V_j+1 - t*d^j, so a
    bit of k costs two products of V's, where mat_pow squares a matrix."""
    if k < 0:
        raise ValueError("negative matrix powers are not supported")
    t, d = mat_trace(m), mat_det(m)
    v, w, s = 2, t, 1  # V_j, V_j+1 and d^j, from j = 0
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w, s = v * w - t * s, w * w - 2 * s * d, s * s * d
        else:
            v, w, s = v * v - 2 * s, v * w - t * s, s * s
    return v


def mat_det(m: IMat2) -> int:
    return m.a * m.d - m.b * m.c


def mat_sub(x: IMat2, y: IMat2) -> IMat2:
    return IMat2(x.a - y.a, x.b - y.b, x.c - y.c, x.d - y.d)


def matrix_A(period: Sequence[int]) -> IMat2:
    """Product of [[a_i, 1], [1, 0]] over a continued fraction period, in
    order; det is (-1)^len(period).  Taken over a balanced tree (binary
    splitting), so the big multiplications pair operands of equal size."""
    if not period:
        raise ValueError("period must be nonempty")
    if min(period) < 1:
        raise ValueError("period entries must be >= 1")
    return IMat2(*_period_product(period, 0, len(period)))


_LEAF = 32  # terms folded linearly; below this size a split does not pay


def _period_product(period: Sequence[int], lo: int, hi: int) -> tuple[int, int, int, int]:
    """Entries of the product over period[lo:hi], row-major."""
    if hi - lo <= _LEAF:
        m00, m01, m10, m11 = 1, 0, 0, 1
        for a in period[lo:hi]:
            # right-multiply by [[a, 1], [1, 0]]
            m00, m01, m10, m11 = m00 * a + m01, m00, m10 * a + m11, m10
        return m00, m01, m10, m11
    mid = (lo + hi) // 2
    a, b, c, d = _period_product(period, lo, mid)
    e, f, g, h = _period_product(period, mid, hi)
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def build_Lp(T: int, p: int) -> IMat2:
    """The degree-p endomorphism matrix [[T-p, p], [T-p-1, p]] attached to a
    trace value T; det(I - L) = 1 + p - T by construction."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return IMat2(T - p, p, T - p - 1, p)


def cokernel_group(l: IMat2) -> AbelianGroup:
    """Invariant factors d1 | d2 of Z^2 / (I - l) Z^2, from the determinantal
    divisors of M = I - l: d1 is the gcd of the entries of M, d1 * d2 = |det M|,
    and d2 = 0 when M is singular (so M = 0 gives Z x Z)."""
    m = mat_sub(IMat2.identity(), l)
    d1 = gcd(m.a, m.b, m.c, m.d)
    return AbelianGroup(d1, abs(mat_det(m)) // d1 if d1 else 0)
