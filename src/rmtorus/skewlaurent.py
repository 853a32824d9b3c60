"""Twisted Laurent polynomials R[t, t^-1; alpha] over R = Q[u], their
involution, and the reality test for a twist given with complex parts.

The twist is an affine substitution u -> p*u + q with rational p != 0 and q.
Moving t^m left past a coefficient b applies the m-th power of the
substitution: t^m * b = alpha^m(b) * t^m.  Coefficients are exact rationals
(fractions.Fraction), the same numbers that freealg's polynomials hold.
Complex coefficients and complex twists are not offered: over Q conjugation
is the identity, so the involution needs no coherence condition.  The
convolution presentation on finitely supported functions Z -> R is kept in
tests/reference.py, as the oracle of skew_mul and skew_star.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .value import Value


class UPoly(Value):
    """Polynomial in u over Q; coeffs[k] multiplies u^k, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def make(coeffs: Iterable[Fraction]) -> UPoly:
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return UPoly(tuple(cs))

    @staticmethod
    def const(c: int | Fraction) -> UPoly:
        return UPoly.make([Fraction(c)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: UPoly) -> UPoly:
        short, long = sorted((self.coeffs, other.coeffs), key=len)
        return UPoly.make([a + b for a, b in zip(short, long)] + list(long[len(short):]))

    def __neg__(self) -> UPoly:
        return UPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: UPoly) -> UPoly:
        return self + (-other)

    def __mul__(self, other: UPoly) -> UPoly:
        if self.is_zero or other.is_zero:
            return UPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return UPoly.make(out)

    def scale(self, c: Fraction) -> UPoly:
        return UPoly.make([c * x for x in self.coeffs])

    def subst_affine(self, p: Fraction, q: Fraction) -> UPoly:
        """Evaluate at p*u + q, by Horner's rule."""
        if p == 1 and not q:
            return self
        arg = UPoly.make([q, p])
        out = UP_ZERO
        for c in reversed(self.coeffs):
            out = out * arg + UPoly.make([c])
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "u" if k == 1 else f"u^{k}"
                cs = str(c)
                parts.append(head if cs == "1" else f"-{head}" if cs == "-1" else f"({cs})*{head}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


UP_ZERO = UPoly(())
UP_ONE = UPoly.const(1)
UP_U = UPoly((Fraction(0), Fraction(1)))


class AffineAut(Value):
    """The ring automorphism of Q[u] sending u to p*u + q, p nonzero."""

    __slots__ = ("p", "q")

    def __init__(self, p: Fraction, q: Fraction):
        if not p:
            raise ValueError("p must be nonzero")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def apply(self, poly: UPoly) -> UPoly:
        return poly.subst_affine(self.p, self.q)

    def power(self, m: int) -> AffineAut:
        """alpha^m for any integer m, via the closed form for affine iteration."""
        if m == 0:
            return AffineAut(Fraction(1), Fraction(0))
        if m == 1:
            return self
        if self.p == 1:
            return AffineAut(self.p, self.q * m)
        # an int p would make p ** -k a float
        pm = Fraction(self.p) ** m
        return AffineAut(pm, self.q * (pm - 1) / (self.p - 1))

    def __str__(self):
        return f"u -> ({self.p})*u + ({self.q})"


def shift_by_one() -> AffineAut:
    """The substitution u -> u + 1."""
    return AffineAut(Fraction(1), Fraction(1))


class SkewPoly:
    """Finitely supported sum of b_k * t^k over Q[u], twisted by alpha."""

    __slots__ = ("alpha", "_coeffs")

    def __init__(self, alpha: AffineAut, coeffs: Mapping[int, UPoly]):
        self.alpha = alpha
        self._coeffs = {k: c for k, c in coeffs.items() if not c.is_zero}

    @classmethod
    def term(cls, alpha: AffineAut, k: int, poly: UPoly) -> SkewPoly:
        return cls(alpha, {k: poly})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: SkewPoly) -> SkewPoly:
        _check_same_alpha(self, other)
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, UP_ZERO) + c
        return SkewPoly(self.alpha, out)

    def __neg__(self) -> SkewPoly:
        return SkewPoly(self.alpha, {k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other: SkewPoly) -> SkewPoly:
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.alpha == other.alpha and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.alpha, frozenset(self._coeffs.items())))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in sorted(self._coeffs, reverse=True):
            c = str(self._coeffs[k])
            if k == 0:
                parts.append(c)
                continue
            tk = "t" if k == 1 else f"t^{k}"
            parts.append(tk if c == "1" else f"({c})*{tk}")
        return " + ".join(parts)


def _check_same_alpha(f: SkewPoly, g: SkewPoly) -> None:
    if f.alpha != g.alpha:
        raise ValueError("operands twisted by different automorphisms")


def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product by the normal-form rule a*t^m * b*t^n = a * alpha^m(b) * t^(m+n)."""
    _check_same_alpha(f, g)
    out: dict[int, UPoly] = {}
    for m, am in f._coeffs.items():
        twist = f.alpha.power(m)
        for n, bn in g._coeffs.items():
            k = m + n
            out[k] = out.get(k, UP_ZERO) + am * twist.apply(bn)
    return SkewPoly(f.alpha, out)


def check_star_coherent(p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]) -> bool:
    """Whether the twist u -> p*u + q, with p and q given as (re, im) pairs,
    is real.  Complex conjugation commutes with the twist exactly then, which
    is what the involution t* = t^-1, b* = conj(b) would need over Q(i)."""
    if p == (0, 0):
        raise ValueError("p must be nonzero")
    return p[1] == 0 and q[1] == 0


def skew_star(f: SkewPoly) -> SkewPoly:
    """Involution with t* = t^-1 fixing Q[u]: term by term,
    (b t^k)* = t^-k b = alpha^(-k)(b) * t^(-k)."""
    return SkewPoly(f.alpha, {-k: f.alpha.power(-k).apply(b) for k, b in f._coeffs.items()})


def verify_example2(alpha: AffineAut | None = None) -> bool:
    """With x1 = t and x2 = u*t, test whether x1*x2 - x2*x1 - x1^2 vanishes.
    It does precisely for the shift u -> u + 1 (the default)."""
    if alpha is None:
        alpha = shift_by_one()
    x1 = SkewPoly.term(alpha, 1, UP_ONE)
    x2 = SkewPoly.term(alpha, 1, UP_U)
    defect = skew_mul(x1, x2) - skew_mul(x2, x1) - skew_mul(x1, x1)
    return defect.is_zero
