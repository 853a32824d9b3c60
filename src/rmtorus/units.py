"""Pseudo-lattices Z + Z*theta, fundamental units of their multiplier rings,
and the conductor index: the least power of the fundamental unit landing in
Z + (f*theta)Z.

A unit is held in one form: the integer matrix of multiplication by it on
the lattice's basis {1, f*theta}.  Products of units are mat_mul, powers
mat_pow, norm and trace mat_det and mat_trace.

The unit computation rides on the continued fraction, a product of integer
matrices: the period's matrix multiplies the cycle's eigenvector by the
smallest unit > 1 of the multiplier ring of the lattice, and conjugating it
by the preperiod's matrix moves that action onto the lattice's basis.  Tests
certify minimality against a separate brute-force norm-equation sweep.

The index pi(p) never forms the powers of the unit exactly: it scans the
unit's matrix reduced mod p, O(pi(p)) word-size steps.
"""

from __future__ import annotations

from .intmat import IMat2, _period_product, mat_mul, matrix_A
from .quadratic import QuadraticIrrational, _expand_cycle, _mobius
from .value import Value

DEFAULT_CAP = 10**6  # steps of the unit power search, the CLI's --cap


class SearchLimitExceeded(RuntimeError):
    """A search or a count would pass its work bound: the unit power search
    its iteration cap, or a point count its largest p."""


class SubOrder(Value):
    """The pseudo-lattice Z + (conductor * theta) Z; conductor 1 is the lattice itself."""

    __slots__ = ("theta", "conductor")

    def __init__(self, theta: QuadraticIrrational, conductor: int = 1):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "conductor", conductor)


def fundamental_unit(order: SubOrder) -> IMat2:
    """Smallest unit eps > 1 (norm +-1) of the multiplier ring of the lattice
    Z + (f*theta)Z, f the conductor, as the integer matrix M of multiplication
    by eps on the basis {1, f*theta}.

    The first column holds the coordinates of eps, so eps = M.a + (f*M.c)*theta;
    mat_trace(M) and mat_det(M) are its trace and norm."""
    f = order.conductor
    psi = _mobius(order.theta, f, 0, 0, 1) if f != 1 else order.theta
    pre, period = _expand_cycle(psi)
    # psi = [pre; w] for the cycle surd w, so (psi, 1) is proportional to
    # B(w, 1) with B the preperiod's product, and the period matrix A has the
    # eigenvector (w, 1) for eps: K = B A B^-1 multiplies (psi, 1) by eps,
    # that is eps*psi = K.a*psi + K.b and eps = K.c*psi + K.d
    a, b, c, d = _period_product(pre, 0, len(pre))
    s = -1 if len(pre) % 2 else 1  # det B, so B^-1 = s*adj(B)
    k = mat_mul(mat_mul(IMat2(a, b, c, d), matrix_A(period)), IMat2(s * d, -s * b, -s * c, s * a))
    return IMat2(k.d, k.b, k.c, k.a)


def pi_index(unit: IMat2, p: int, cap: int = DEFAULT_CAP) -> int:
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
