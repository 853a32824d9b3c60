"""Exact arithmetic for quadratic irrationals and the invariants attached to
them: periodic continued fractions, fundamental units and conductor indices,
2x2 integer matrix cokernels, elliptic point counts over prime fields, and
twisted Laurent / free-algebra relation checks."""

from .ecpoints import fingerprint
from .quadratic import canonicalize, cf_expand
from .units import SubOrder, fundamental_unit, pi_index

__version__ = "0.1.0"
