"""Exact arithmetic for quadratic irrationals and the invariants attached to
them: periodic continued fractions, fundamental units and conductor indices,
2x2 integer matrix cokernels, elliptic point counts over prime fields, and
twisted Laurent / free-algebra relation checks."""

from .quadratic import (
    ContinuedFraction,
    QuadraticIrrational,
    canonicalize,
    cf_expand,
    cf_value,
)
from .intmat import (
    AbelianGroup,
    IMat2,
    build_Lp,
    cokernel_group,
    mat_det,
    mat_mul,
    mat_pow,
    mat_trace,
    matrix_A,
    smith_normal_form,
)
from .units import (
    SearchLimitExceeded,
    SubOrder,
    fundamental_unit,
    pi_index,
)
from .skewlaurent import (
    AffineAut,
    GaussRational,
    SkewPoly,
    UPoly,
    check_star_coherent,
    conv_mul,
    conv_star,
    gr,
    shift_by_one,
    skew_mul,
    skew_star,
    verify_example2,
)
from .freealg import (
    NCPoly,
    RewriteSystem,
    nc_mul,
    reduce,
    relation_preserved,
    star_defect,
    star_image,
    u_infinity_relation,
    u_infinity_system,
)
from .ecpoints import (
    BACKEND,
    Curve,
    Fingerprint,
    MatchEntry,
    MatchReport,
    count_points,
    count_points_naive,
    fingerprint,
    hasse_bound,
    is_good_prime,
    is_prime,
    match_curve,
    match_curves,
)

__version__ = "0.1.0"
