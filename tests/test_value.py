import copy
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from rmtorus.ecpoints import Curve, Fingerprint
from rmtorus.freealg import NCPoly
from rmtorus.intmat import AbelianGroup, IMat2
from rmtorus.quadratic import ContinuedFraction, QuadraticIrrational, canonicalize
from rmtorus.skewlaurent import AffineAut, UPoly
from rmtorus.units import SubOrder

THETA = QuadraticIrrational(1, 5, 2)

# one value of each type, built from the same small numbers wherever the
# fields allow, so that only the types tell them apart: the surd
# (1 + sqrt(5))/2 and Fingerprint(1, 5, 2) hold the same three integers
SAME_NUMBERS = [
    THETA,
    Fingerprint(1, 5, 2),
    IMat2(1, 5, 2, 0),
    Curve(1, 2),
    AbelianGroup(1, 2),
    AffineAut(Fraction(1), Fraction(2)),
    ContinuedFraction((1,), (2,)),
    SubOrder(THETA, 2),
    UPoly((Fraction(1), Fraction(2))),
    NCPoly({"1": 2}),
]

# the validated types, each with an equal twin built separately
VALIDATED = [
    (THETA, canonicalize(2, 20, 4)),
    (Curve(1, 2), Curve(1, 2)),
    (AffineAut(Fraction(1), Fraction(2)), AffineAut(1, 2)),
    (ContinuedFraction([1], [2]), ContinuedFraction((1,), (2,))),
    (SubOrder(THETA, 2), SubOrder(canonicalize(1, 5, 2), 2)),
    (UPoly((Fraction(1), Fraction(2))), UPoly((1, 2))),
    (NCPoly({"12": 1, "2": Fraction(1, 2)}), NCPoly([("2", 1), ("12", 1), ("2", Fraction(-1, 2))])),
]


@pytest.mark.parametrize(
    "x, y", list(combinations(SAME_NUMBERS, 2)), ids=lambda v: type(v).__name__
)
def test_values_of_different_types_never_compare_equal(x, y):
    assert x != y and y != x
    assert not (x == y or y == x)


@pytest.mark.parametrize("x, twin", VALIDATED, ids=lambda v: type(v).__name__)
def test_equal_fields_make_equal_values(x, twin):
    assert x == twin and hash(x) == hash(twin)
    assert x != tuple(getattr(x, name) for name in x.__slots__)


@pytest.mark.parametrize("x, _", VALIDATED, ids=lambda v: type(v).__name__)
def test_values_are_immutable(x, _):
    name = x.__slots__[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(x, name, 0)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 0


@pytest.mark.parametrize("x, _", VALIDATED, ids=lambda v: type(v).__name__)
def test_copy_and_pickle_give_an_equal_value(x, _):
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x


def test_repr_names_the_fields():
    assert repr(Curve(1, 2)) == "Curve(a=1, b=2)"
    assert repr(THETA) == "QuadraticIrrational(P=1, D=5, Q=2)"
    assert repr(AbelianGroup(1, 2)) == "AbelianGroup(d1=1, d2=2)"
    assert repr(NCPoly({"2": 3})) == "NCPoly(terms=(('2', Fraction(3, 1)),))"


def test_checks_run_on_construction():
    with pytest.raises(ValueError, match="not primitive"):
        QuadraticIrrational(2, 20, 4)
    with pytest.raises(ValueError, match="singular"):
        Curve(0, 0)
    with pytest.raises(ValueError, match="conductor"):
        SubOrder(THETA, 0)
    with pytest.raises(ValueError, match="repetition"):
        ContinuedFraction((), (1, 1))
    with pytest.raises(ValueError, match="nonzero"):
        AffineAut(0, 1)
    with pytest.raises(ValueError, match="must divide"):
        AbelianGroup(2, 3)
    with pytest.raises(ValueError, match="outside"):
        NCPoly({"x1": 1})
