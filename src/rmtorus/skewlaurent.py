"""Twisted Laurent polynomials R[t, t^-1; alpha] over R = Q(i)[u], with the
equivalent convolution-algebra presentation on finitely supported functions
Z -> R, an involution, and the coherence test it requires.

The twist is an affine substitution u -> p*u + q.  Moving t^m left past a
coefficient b applies the m-th power of the substitution: t^m * b = alpha^m(b) * t^m.
Coefficients are exact: rational real and imaginary parts throughout; the
conjugation i -> -i is what makes the coherence condition falsifiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class GaussRational:
    """(a + b*i)/d with integers, d > 0 and gcd(a, b, d) = 1.

    A single shared denominator keeps the hot arithmetic on plain integers
    with one gcd normalization per operation; re/im expose the parts as
    Fractions."""

    a: int
    b: int
    d: int

    @staticmethod
    def _make(a: int, b: int, d: int) -> GaussRational:
        if d == 0:
            raise ZeroDivisionError("zero denominator in Q(i)")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        return GaussRational(a, b, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: GaussRational) -> GaussRational:
        return GaussRational._make(
            self.a * other.d + other.a * self.d,
            self.b * other.d + other.b * self.d,
            self.d * other.d,
        )

    def __sub__(self, other: GaussRational) -> GaussRational:
        return GaussRational._make(
            self.a * other.d - other.a * self.d,
            self.b * other.d - other.b * self.d,
            self.d * other.d,
        )

    def __neg__(self) -> GaussRational:
        return GaussRational(-self.a, -self.b, self.d)

    def __mul__(self, other: GaussRational) -> GaussRational:
        return GaussRational._make(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d * other.d,
        )

    def __truediv__(self, other: GaussRational) -> GaussRational:
        n = other.a * other.a + other.b * other.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRational._make(
            (self.a * other.a + self.b * other.b) * other.d,
            (self.b * other.a - self.a * other.b) * other.d,
            self.d * n,
        )

    def __pow__(self, k: int) -> GaussRational:
        if k < 0:
            return GR_ONE / (self ** (-k))
        result = GR_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> GaussRational:
        return GaussRational(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self):
        if not self.b:
            return str(self.re)
        if not self.a:
            return f"{self.im}i"
        sign = "+" if self.b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def gr(re: Rat, im: Rat = 0) -> GaussRational:
    """Convenience constructor for exact Q(i) scalars."""
    re = Fraction(re)
    im = Fraction(im)
    return GaussRational._make(
        re.numerator * im.denominator,
        im.numerator * re.denominator,
        re.denominator * im.denominator,
    )


GR_ZERO = gr(0)
GR_ONE = gr(1)


@dataclass(frozen=True)
class UPoly:
    """Polynomial in u over Q(i); coeffs[k] multiplies u^k, no trailing zeros."""

    coeffs: tuple[GaussRational, ...]

    @staticmethod
    def make(coeffs: Iterable[GaussRational]) -> UPoly:
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return UPoly(tuple(cs))

    @staticmethod
    def const(c: Rat | GaussRational) -> UPoly:
        if not isinstance(c, GaussRational):
            c = gr(c)
        return UPoly.make([c])

    @staticmethod
    def gen() -> UPoly:
        return UPoly.make([GR_ZERO, GR_ONE])

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
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return UPoly.make(out)

    def scale(self, c: GaussRational) -> UPoly:
        return UPoly.make([c * x for x in self.coeffs])

    def conj(self) -> UPoly:
        """Coefficientwise i -> -i; u itself is fixed."""
        return UPoly(tuple(c.conjugate() for c in self.coeffs))

    def subst_affine(self, p: GaussRational, q: GaussRational) -> UPoly:
        """Evaluate at p*u + q, by Horner's rule."""
        if p == GR_ONE and not q:
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
UP_U = UPoly.gen()


@dataclass(frozen=True)
class AffineAut:
    """The ring automorphism of Q(i)[u] sending u to p*u + q, p invertible."""

    p: GaussRational
    q: GaussRational

    def __post_init__(self):
        if not self.p:
            raise ValueError("p must be nonzero")

    def apply(self, poly: UPoly) -> UPoly:
        return poly.subst_affine(self.p, self.q)

    def power(self, m: int) -> AffineAut:
        """alpha^m for any integer m, via the closed form for affine iteration."""
        if m == 0:
            return AffineAut(GR_ONE, GR_ZERO)
        if m == 1:
            return self
        if self.p == GR_ONE:
            return AffineAut(GR_ONE, self.q * gr(m))
        pm = self.p**m
        return AffineAut(pm, self.q * (pm - GR_ONE) / (self.p - GR_ONE))

    def __str__(self):
        return f"u -> ({self.p})*u + ({self.q})"


def shift_by_one() -> AffineAut:
    """The substitution u -> u + 1."""
    return AffineAut(GR_ONE, GR_ONE)


class SkewPoly:
    """Finitely supported sum of b_k * t^k over Q(i)[u], twisted by alpha."""

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


def check_star_coherent(alpha: AffineAut) -> bool:
    """Whether conjugation commutes with the twist, i.e. p and q are real.
    This is exactly what the involution below needs to be well defined."""
    return alpha.p.im == 0 and alpha.q.im == 0


def _require_coherent(alpha: AffineAut) -> None:
    if not check_star_coherent(alpha):
        raise ValueError(f"involution undefined: conjugation does not commute with {alpha}")


def skew_star(f: SkewPoly) -> SkewPoly:
    """Involution with t* = t^-1 and b* = conj(b): term by term,
    (b t^k)* = alpha^(-k)(conj(b)) * t^(-k)."""
    _require_coherent(f.alpha)
    out = {}
    for k, b in f._coeffs.items():
        out[-k] = f.alpha.power(-k).apply(b.conj())
    return SkewPoly(f.alpha, out)


def conv_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Convolution product of functions Z -> R:
    (f g)(k) = sum_l f(l) * t^l g(k-l) t^-l, with t^l b t^-l = alpha^l(b)."""
    _check_same_alpha(f, g)
    out: dict[int, UPoly] = {}
    for k in {m + n for m in f._coeffs for n in g._coeffs}:
        acc = UP_ZERO
        for l, fl in f._coeffs.items():
            gk = g._coeffs.get(k - l)
            if gk is not None:
                acc = acc + fl * f.alpha.power(l).apply(gk)
        out[k] = acc
    return SkewPoly(f.alpha, out)


def conv_star(f: SkewPoly) -> SkewPoly:
    """Involution in convolution coordinates: f*(k) = alpha^k(conj(f(-k)))."""
    _require_coherent(f.alpha)
    out = {}
    for k in {-j for j in f._coeffs}:
        out[k] = f.alpha.power(k).apply(f._coeffs[-k].conj())
    return SkewPoly(f.alpha, out)


def verify_example2(alpha: AffineAut | None = None) -> bool:
    """With x1 = t and x2 = u*t, test whether x1*x2 - x2*x1 - x1^2 vanishes.
    It does precisely for the shift u -> u + 1 (the default)."""
    if alpha is None:
        alpha = shift_by_one()
    x1 = SkewPoly.term(alpha, 1, UP_ONE)
    x2 = SkewPoly.term(alpha, 1, UP_U)
    defect = skew_mul(x1, x2) - skew_mul(x2, x1) - skew_mul(x1, x1)
    return defect.is_zero
