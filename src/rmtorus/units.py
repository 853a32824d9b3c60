"""Pseudo-lattices Z + Z*theta, fundamental units of their multiplier rings,
and the conductor index: the least power of the fundamental unit landing in
Z + (f*theta)Z.

The unit computation rides on the continued fraction: once the expansion of a
surd enters its cycle, the period's matrix product fixes the cycle surd, and
the bottom row of that matrix evaluates to the smallest unit > 1 of the
multiplier ring of the lattice.  Tests certify minimality against a separate
brute-force norm-equation sweep.

The index pi(p) never forms the powers of the unit exactly: it scans the
integer matrix of the unit reduced mod p, O(pi(p)) word-size steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intmat import IMat2, matrix_A
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


@dataclass(frozen=True)
class OrderElt:
    """x + y*theta with integer coordinates on the basis {1, theta}."""

    x: int
    y: int
    theta: QuadraticIrrational

    def norm(self) -> Fraction:
        # (x + y*theta)(x + y*conj(theta)) = x^2 + x*y*tr + y^2*nm
        return (
            Fraction(self.x * self.x)
            + self.x * self.y * self.theta.trace()
            + self.y * self.y * self.theta.norm()
        )

    def trace(self) -> Fraction:
        return Fraction(2 * self.x) + self.y * self.theta.trace()

    def __str__(self):
        return f"{self.x}+{self.y}*theta"


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValueError(f"{what} is not integral: {value}")
    return value.numerator


def elt_mul(a: OrderElt, b: OrderElt) -> OrderElt:
    """Exact product, expanding theta^2 = tr(theta)*theta - nm(theta)."""
    if a.theta != b.theta:
        raise ValueError("elements live over different theta")
    tr = a.theta.trace()
    nm = a.theta.norm()
    x = Fraction(a.x * b.x) - a.y * b.y * nm
    y = Fraction(a.x * b.y + a.y * b.x) + a.y * b.y * tr
    return OrderElt(_as_int(x, "product x"), _as_int(y, "product y"), a.theta)


def elt_pow(e: OrderElt, k: int) -> OrderElt:
    if k < 0:
        raise ValueError("negative powers are not supported")
    result = OrderElt(1, 0, e.theta)
    base = e
    while k:
        if k & 1:
            result = elt_mul(result, base)
        base = elt_mul(base, base)
        k >>= 1
    return result


def fundamental_unit(order: SubOrder) -> OrderElt:
    """Smallest unit > 1 (norm +-1) of the multiplier ring of the pseudo-lattice,
    returned on the basis {1, theta} of the ambient lattice."""
    theta = order.theta
    f = order.conductor
    psi = _mobius(theta, f, 0, 0, 1) if f != 1 else theta
    _, period, cyc = _expand_cycle(psi)
    m = matrix_A(period)
    # the cycle surd is fixed by the period matrix, so its bottom row gives
    # the unit c*cyc + d multiplying the lattice into itself; rewrite it on
    # the basis {1, psi}
    assert cyc.D == psi.D
    x = Fraction(m.c * (cyc.P - psi.P) + m.d * cyc.Q, cyc.Q)
    y_psi = Fraction(m.c * psi.Q, cyc.Q)
    eps = OrderElt(
        _as_int(x, "unit x"),
        _as_int(y_psi, "unit y") * f,
        theta,
    )
    assert abs(eps.norm()) == 1
    return eps


def pi_index(theta: QuadraticIrrational, p: int, cap: int = 10**6) -> int:
    """Least k >= 1 with eps^k in Z + (p*theta)Z, i.e. p divides the theta
    coordinate of eps^k.  Raises SearchLimitExceeded beyond cap steps.

    A mod-p scan in O(pi(p)) word-size steps, exact for every lattice
    Z + Z*theta, ring or not: the unit multiplies the lattice into itself,
    so its matrix M on {1, theta} is integral, and the first column of M^k
    holds the coordinates of eps^k."""
    if p < 2:
        raise ValueError("p must be >= 2")
    m = matrix_of(fundamental_unit(SubOrder(theta, 1)))
    a, b, c, d = m.a % p, m.b % p, m.c % p, m.d % p
    x, y = a, c
    for k in range(1, cap + 1):
        if y == 0:
            return k
        x, y = (a * x + b * y) % p, (c * x + d * y) % p
    raise SearchLimitExceeded(f"no power of the fundamental unit within {cap} steps for p={p}")


def matrix_of(e: OrderElt) -> IMat2:
    """Integer matrix of multiplication by a unit e on the basis {1, theta};
    its trace and determinant are the algebraic trace and norm of e."""
    nrm = e.norm()
    if abs(nrm) != 1:
        raise ValueError(f"not a unit: norm {nrm}")
    tr = e.theta.trace()
    nm = e.theta.norm()
    return IMat2(
        e.x,
        _as_int(-Fraction(e.y) * nm, "matrix entry"),
        e.y,
        _as_int(Fraction(e.x) + e.y * tr, "matrix entry"),
    )
