"""Properties of the surd and cokernel layers, drawn by hypothesis: the
continued fraction round trip through the oracle cf_value, the scale
invariance of canonicalize, and the invariance of cokernel_group under
unimodular changes of basis.  The @example cases pin negative Q, a triple
with gcd(P, Q) > 1, the README's L_3 and a singular I - L.  Skipped when
hypothesis is not installed."""

from math import isqrt

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from reference import cf_value  # noqa: E402
from rmtorus.intmat import IMat2, build_Lp, cokernel_group, mat_mul, mat_sub  # noqa: E402
from rmtorus.quadratic import canonicalize, cf_expand  # noqa: E402

# reproducible runs, so that a failure (or a mutant's survival) repeats
PROPERTY = settings(deadline=None, derandomize=True, database=None)

P_VALUES = st.integers(-40, 40)
D_VALUES = st.integers(2, 2000).filter(lambda d: isqrt(d) ** 2 != d)
Q_VALUES = st.integers(-20, 20).filter(bool)

I = IMat2.identity()
ENTRIES = st.integers(-30, 30)
MATRICES = st.builds(IMat2, ENTRIES, ENTRIES, ENTRIES, ENTRIES)
# the generators of GL_2(Z): the two shears by k, the swap and a sign change
GENERATORS = st.one_of(
    st.integers(-4, 4).map(lambda k: IMat2(1, k, 0, 1)),
    st.integers(-4, 4).map(lambda k: IMat2(1, 0, k, 1)),
    st.just(IMat2(0, 1, 1, 0)),
    st.just(IMat2(-1, 0, 0, 1)),
)


def _product(factors: list[IMat2]) -> IMat2:
    out = I
    for m in factors:
        out = mat_mul(out, m)
    return out


UNIMODULAR = st.lists(GENERATORS, max_size=5).map(_product)


@given(P_VALUES, D_VALUES, Q_VALUES)
@example(-1, 2, 1)
@example(7, 13, -3)
@example(-5, 1999, -17)
@PROPERTY
def test_cf_round_trip(P, D, Q):
    theta = canonicalize(P, D, Q)
    assert cf_value(cf_expand(theta)) == theta


@given(P_VALUES, D_VALUES, Q_VALUES, st.integers(1, 12))
@example(2, 8, 4, 3)
@example(3, 7, -2, 6)
@PROPERTY
def test_canonicalize_is_scale_invariant(P, D, Q, k):
    assert canonicalize(k * P, k * k * D, k * Q) == canonicalize(P, D, Q)


@given(MATRICES, UNIMODULAR, UNIMODULAR)
@example(build_Lp(34, 3), IMat2(1, 2, 0, 1), IMat2(0, 1, 1, 0))
@example(IMat2(3, 2, 2, 3), IMat2(1, 0, 3, 1), IMat2(1, -1, 0, 1))
@PROPERTY
def test_cokernel_is_invariant_under_unimodular_change_of_basis(l, u, v):
    # I - l' = U (I - l) V
    moved = mat_sub(I, mat_mul(mat_mul(u, mat_sub(I, l)), v))
    assert cokernel_group(moved) == cokernel_group(l)
