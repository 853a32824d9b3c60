"""Free associative algebra on x1, x2 over Q, with normal forms modulo the
quadratic relation x1*x2 - x2*x1 - x1^2 = 0, the Jordan plane.

Words are strings over the alphabet '1', '2'.  Normal forms are spanned by
the words x1^i * x2^j, and are read through the embedding x1 -> t, x2 -> u*t
of the Jordan plane in the twisted Laurent ring Q[u][t, t^-1; u -> u + 1].
Both rings hold their coefficients as Fractions, so the embedding and its
inverse convert nothing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .skewlaurent import UP_ONE, UP_ZERO, UPoly
from .value import Value

Rat = Union[int, Fraction]

_ALPHABET = frozenset("12")


def _deglex(term: tuple[str, Fraction]) -> tuple[int, str]:
    return (len(term[0]), term[0])


class NCPoly(Value):
    """Finitely supported map word -> rational coefficient, held as its
    nonzero (word, coefficient) pairs in deglex order, so that equal
    polynomials have equal fields.  Repeated words are added up."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[str, Rat] | Iterable[tuple[str, Rat]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[str, Fraction] = {}
        for word, c in items:
            if set(word) - _ALPHABET:
                raise ValueError(f"word {word!r} uses letters outside x1, x2")
            acc[word] = acc.get(word, 0) + Fraction(c)
        nonzero = [(w, c) for w, c in acc.items() if c]
        object.__setattr__(self, "terms", tuple(sorted(nonzero, key=_deglex)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for w, c in self.terms:
            mono = _word_str(w)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _word_str(w: str) -> str:
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        n = j - i
        parts.append(f"x{w[i]}" + (f"^{n}" if n > 1 else ""))
        i = j
    return "*".join(parts)


def _image(word: str) -> UPoly:
    """The u-part of the image of word under x1 -> t, x2 -> u*t in
    Q[u][t; u -> u + 1]: moving u right past t^k gives t^k*u = (u + k)*t^k,
    so each x2 at position k contributes the factor u + k."""
    out = UP_ONE
    for k, letter in enumerate(word):
        if letter == "2":
            out = out * UPoly.make([Fraction(k), Fraction(1)])
    return out


def normal_form(f: NCPoly) -> NCPoly:
    """The normal form of f modulo x1*x2 - x2*x1 - x1^2, a combination of the
    words x1^i * x2^j.

    The quotient is the Jordan plane, which x1 -> t, x2 -> u*t embeds in the
    twisted ring of the shift u -> u + 1; there x1^i * x2^j maps to the rising
    product (u + i)(u + i + 1)...(u + i + j - 1) * t^(i+j), of u-degree j.  So
    the degree-n part of f is read back from its image by peeling off the
    leading u-term against these products."""
    images: dict[int, UPoly] = {}
    for w, c in f.terms:
        images[len(w)] = images.get(len(w), UP_ZERO) + _image(w).scale(c)
    out: dict[str, Fraction] = {}
    for n, poly in images.items():
        # rising[j] = (u + n - j)...(u + n - 1), the image of x1^(n-j) * x2^j
        rising = [UP_ONE]
        for j in range(1, poly.degree() + 1):
            rising.append(rising[-1] * UPoly.make([Fraction(n - j), Fraction(1)]))
        while not poly.is_zero:
            j = poly.degree()
            c = poly.coeffs[j]
            out["1" * (n - j) + "2" * j] = c
            poly = poly - rising[j].scale(c)
    return NCPoly(out)


def star_image(f: NCPoly) -> NCPoly:
    """Anti-automorphism determined by x1* = x2 and x2* = x1: reverse each
    word and swap the letters."""
    swap = {"1": "2", "2": "1"}
    return NCPoly(("".join(swap[ch] for ch in reversed(w)), c) for w, c in f.terms)


def star_defect(rel: NCPoly) -> NCPoly:
    """Normal form of the star image of a relation that itself reduces to zero;
    it is zero iff the involution maps the relation back into the ideal."""
    if not normal_form(rel).is_zero:
        raise ValueError("relation does not reduce to zero")
    return normal_form(star_image(rel))


def u_infinity_relation() -> NCPoly:
    """x1*x2 - x2*x1 - x1^2."""
    return NCPoly({"12": 1, "21": -1, "11": -1})
