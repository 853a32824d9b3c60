"""Pseudo-lattices Z + Z*theta, fundamental units of their multiplier rings,
and the conductor index: the least power of the fundamental unit landing in
Z + (f*theta)Z.

A unit is held in one form: the integer matrix of multiplication by it on
the lattice's basis {1, f*theta}.  Products of units are mat_mul, powers
mat_pow, norm and trace mat_det and mat_trace.

The unit computation rides on the continued fraction: once the expansion of a
surd enters its cycle, the period's matrix product fixes the cycle surd, and
the bottom row of that matrix evaluates to the smallest unit > 1 of the
multiplier ring of the lattice.  Tests certify minimality against a separate
brute-force norm-equation sweep.

The index pi(p) never forms the powers of the unit exactly: it scans the
unit's matrix reduced mod p, O(pi(p)) word-size steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intmat import IMat2, mat_det, matrix_A
from .quadratic import QuadraticIrrational, _expand_cycle, _mobius


class SearchLimitExceeded(RuntimeError):
    """The unit power search hit its iteration cap."""


@dataclass(frozen=True)
class SubOrder:
    """The pseudo-lattice Z + (conductor * theta) Z; conductor 1 is the lattice itself."""

    theta: QuadraticIrrational
    conductor: int = 1

    def __post_init__(self):
        if self.conductor < 1:
            raise ValueError("conductor must be >= 1")


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} is not integral: {value}")
    return value.numerator


def fundamental_unit(order: SubOrder) -> IMat2:
    """Smallest unit eps > 1 (norm +-1) of the multiplier ring of the lattice
    Z + (f*theta)Z, f the conductor, as the integer matrix M of multiplication
    by eps on the basis {1, f*theta}.

    The first column holds the coordinates of eps, so eps = M.a + (f*M.c)*theta;
    mat_trace(M) and mat_det(M) are its trace and norm."""
    f = order.conductor
    psi = _mobius(order.theta, f, 0, 0, 1) if f != 1 else order.theta
    _, period, P, Q = _expand_cycle(psi)
    m = matrix_A(period)
    # the cycle surd w = (P + sqrt(D))/Q is fixed by the period matrix, so its
    # bottom row gives the unit c*w + d multiplying the lattice into itself;
    # rewrite it on the basis {1, psi}
    x = _as_int(Fraction(m.c * (P - psi.P) + m.d * Q, Q), "unit x")
    y = _as_int(Fraction(m.c * psi.Q, Q), "unit y")
    # eps*psi = x*psi + y*psi^2 with psi^2 = tr(psi)*psi - nm(psi)
    unit = IMat2(
        x,
        _as_int(-y * psi.norm(), "matrix entry"),
        y,
        _as_int(x + y * psi.trace(), "matrix entry"),
    )
    assert abs(mat_det(unit)) == 1
    return unit


def pi_index(unit: IMat2, p: int, cap: int = 10**6) -> int:
    """Least k >= 1 with p dividing the second coordinate of eps^k, for the
    unit matrix M = fundamental_unit(SubOrder(theta)): eps^k lies in
    Z + (p*theta)Z.  Raises SearchLimitExceeded beyond cap steps.

    A mod-p scan in O(pi(p)) word-size steps: the first column of M^k holds
    the coordinates of eps^k, and is stepped mod p."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    a, b, c, d = unit.a % p, unit.b % p, unit.c % p, unit.d % p
    x, y = a, c
    for k in range(1, cap + 1):
        if y == 0:
            return k
        x, y = (a * x + b * y) % p, (c * x + d * y) % p
    raise SearchLimitExceeded(f"no power of the fundamental unit within {cap} steps for p={p}")
