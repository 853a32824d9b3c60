"""Free associative algebra on x1, x2 over Q, with rewriting modulo the
quadratic relation x1*x2 - x2*x1 - x1^2 = 0.

Words are strings over the alphabet '1', '2'.  The monomial order is
degree-lexicographic with x2 > x1, so the relation rewrites as
x2*x1 -> x1*x2 - x1^2 and normal forms are spanned by x1^i * x2^j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]

_ALPHABET = frozenset("12")


def _deglex(word: str) -> tuple[int, str]:
    return (len(word), word)


class NCPoly:
    """Finitely supported map word -> rational coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[str, Rat] | Iterable[tuple[str, Rat]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[str, Fraction] = {}
        for word, c in items:
            if set(word) - _ALPHABET:
                raise ValueError(f"word {word!r} uses letters outside x1, x2")
            c = Fraction(c)
            if c:
                acc[word] = acc.get(word, Fraction(0)) + c
        self._terms = {w: c for w, c in acc.items() if c}

    def terms(self) -> dict[str, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: NCPoly) -> NCPoly:
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return NCPoly(out)

    def __neg__(self) -> NCPoly:
        return NCPoly({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: NCPoly) -> NCPoly:
        return self + (-other)

    def __mul__(self, other: NCPoly) -> NCPoly:
        return nc_mul(self, other)

    def scale(self, c: Rat) -> NCPoly:
        return NCPoly({w: Fraction(c) * x for w, x in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for w in sorted(self._terms, key=_deglex):
            c = self._terms[w]
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


def nc_mul(f: NCPoly, g: NCPoly) -> NCPoly:
    """Word concatenation, extended bilinearly."""
    out: dict[str, Fraction] = {}
    for wf, cf in f._terms.items():
        for wg, cg in g._terms.items():
            w = wf + wg
            out[w] = out.get(w, Fraction(0)) + cf * cg
    return NCPoly(out)


class RewriteSystem:
    """Ordered rules word -> NCPoly, each strictly decreasing in deglex."""

    def __init__(self, rules: Iterable[tuple[str, NCPoly]]):
        self.rules = tuple(rules)
        if not self.rules:
            raise ValueError("at least one rule required")
        for lhs, rhs in self.rules:
            if not lhs:
                raise ValueError("empty left-hand side")
            for w in rhs._terms:
                if _deglex(w) >= _deglex(lhs):
                    raise ValueError(f"rule {lhs} -> {rhs} does not decrease the order")

    def leftmost_match(self, word: str) -> tuple[int, int] | None:
        """(position, rule index) of the leftmost match; earlier rules win ties."""
        best = None
        for idx, (lhs, _) in enumerate(self.rules):
            pos = word.find(lhs)
            if pos >= 0 and (best is None or pos < best[0]):
                best = (pos, idx)
        return best


def u_infinity_system() -> RewriteSystem:
    """The single rule x2*x1 -> x1*x2 - x1^2 presenting the quadratic relation."""
    return RewriteSystem([("21", NCPoly({"12": 1, "11": -1}))])


def reduce(f: NCPoly, rs: RewriteSystem) -> NCPoly:
    """Rewrite leftmost occurrences of rule left-hand words until none remain.
    Terminates because every step strictly decreases the deglex multiset."""
    work = f
    while True:
        target = None
        for w in sorted(work._terms, key=_deglex, reverse=True):
            m = rs.leftmost_match(w)
            if m is not None:
                target = (w, m)
                break
        if target is None:
            return work
        w, (pos, idx) = target
        lhs, rhs = rs.rules[idx]
        c = work._terms[w]
        pre, suf = w[:pos], w[pos + len(lhs):]
        replacement = nc_mul(nc_mul(NCPoly({pre: 1}), rhs), NCPoly({suf: 1}))
        work = work - NCPoly({w: c}) + replacement.scale(c)


def star_image(f: NCPoly) -> NCPoly:
    """Anti-automorphism determined by x1* = x2 and x2* = x1: reverse each
    word and swap the letters."""
    swap = {"1": "2", "2": "1"}
    return NCPoly({"".join(swap[ch] for ch in reversed(w)): c for w, c in f._terms.items()})


def star_defect(rel: NCPoly, rs: RewriteSystem) -> NCPoly:
    """Normal form of the star image of a relation that itself reduces to zero;
    it is zero iff the involution maps the relation back into the ideal."""
    if not reduce(rel, rs).is_zero:
        raise ValueError("relation does not reduce to zero under the system")
    return reduce(star_image(rel), rs)


def u_infinity_relation() -> NCPoly:
    """x1*x2 - x2*x1 - x1^2."""
    return NCPoly({"12": 1, "21": -1, "11": -1})
