"""Command-line front end.  Every subcommand wraps one library operation and
emits machine-readable output: compact JSON (default) or tab-separated values
with the same field order.  All numbers are exact integers; nothing is ever
printed through floating point.

Exit codes: 0 success, 2 validation error, 3 search-cap exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .ecpoints import Curve, count_points, fingerprint, match_curves
from .freealg import star_defect, u_infinity_relation, u_infinity_system
from .intmat import IMat2, cokernel_group, mat_det, mat_sub, mat_trace, matrix_A
from .quadratic import QuadraticIrrational, canonicalize, cf_expand
from .skewlaurent import (
    AffineAut,
    SkewPoly,
    UP_ONE,
    UP_U,
    check_star_coherent,
    gr,
    shift_by_one,
    skew_mul,
    skew_star,
    verify_example2,
)
from .units import SearchLimitExceeded, SubOrder, fundamental_unit

DEFAULT_CAP = 10**6


def _parse_theta(token: str, unit_interval: bool = False) -> QuadraticIrrational:
    parts = token.split(",")
    if len(parts) != 3:
        raise ValueError(f"theta must be three integers P,D,Q, got {token!r}")
    try:
        p, d, q = (int(s) for s in parts)
    except ValueError:
        raise ValueError(f"theta must be three integers P,D,Q, got {token!r}") from None
    theta = canonicalize(p, d, q)
    # the invariant pipeline assumes 0 < theta < 1; plain cfrac does not
    if unit_interval and theta.floor() != 0:
        raise ValueError(f"theta = ({token}) must lie in (0,1) for this command")
    return theta


def _parse_curve(token: str) -> Curve:
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError(f"curve must be two integers a,b, got {token!r}")
    try:
        a, b = (int(s) for s in parts)
    except ValueError:
        raise ValueError(f"curve must be two integers a,b, got {token!r}") from None
    return Curve(a, b)


def _parse_primes(token: str) -> list[int]:
    try:
        return [int(s) for s in token.split(",") if s]
    except ValueError:
        raise ValueError(f"primes must be a comma-separated integer list, got {token!r}") from None


def _parse_gauss(token: str):
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected re,im with rational parts, got {token!r}")
    try:
        return gr(Fraction(parts[0]), Fraction(parts[1]))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected re,im with rational parts, got {token!r}") from None


def _flat(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        out = []
        for v in value:
            if isinstance(v, list):
                out.extend(_flat(x) for x in v)
            else:
                out.append(_flat(v))
        return ",".join(out)
    return str(value)


def _emit(obj: dict, fmt: str) -> None:
    # Exact results (T grows with pi(p), A with the period) can pass the
    # int-to-str digit limit, which is there to guard the parsing of input;
    # lift it only while the output is formatted.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "tsv":
            line = "\t".join(_flat(v) for v in obj.values())
        else:
            line = json.dumps(obj, separators=(",", ":"))
    finally:
        sys.set_int_max_str_digits(limit)
    print(line)


def _cmd_cfrac(args) -> int:
    theta = _parse_theta(args.theta)
    cf = cf_expand(theta)
    _emit(
        {
            "P": theta.P,
            "D": theta.D,
            "Q": theta.Q,
            "preperiod": list(cf.preperiod),
            "period": list(cf.period),
        },
        args.output,
    )
    return 0


def _cmd_matrix(args) -> int:
    theta = _parse_theta(args.theta, unit_interval=True)
    period = cf_expand(theta).period
    a = matrix_A(period)
    _emit(
        {
            "period": list(period),
            "A": a.rows(),
            "trace": mat_trace(a),
            "det": mat_det(a),
        },
        args.output,
    )
    return 0


def _cmd_unit(args) -> int:
    theta = _parse_theta(args.theta, unit_interval=True)
    m = fundamental_unit(SubOrder(theta, args.conductor))
    _emit({"x": m.a, "y": args.conductor * m.c, "norm": mat_det(m)}, args.output)
    return 0


def _cmd_pi(args) -> int:
    theta = _parse_theta(args.theta, unit_interval=True)
    row = fingerprint(theta, [args.p], cap=args.cap)[0]
    _emit({"pi": row.pi, "trace_Apow": row.T}, args.output)
    return 0


def _cmd_lp(args) -> int:
    theta = _parse_theta(args.theta, unit_interval=True)
    row = fingerprint(theta, [args.p], cap=args.cap)[0]
    _emit(
        {
            "pi": row.pi,
            "T": row.T,
            "Lp": row.Lp.rows(),
            "detImL": row.det_iml,
            "group": [row.group.d1, row.group.d2],
        },
        args.output,
    )
    return 0


def _cmd_group(args) -> int:
    parts = args.matrix.split(",")
    if len(parts) != 4:
        raise ValueError(f"matrix must be four integers a,b,c,d, got {args.matrix!r}")
    l = IMat2(*(int(s) for s in parts))
    g = cokernel_group(l)
    _emit(
        {
            "L": l.rows(),
            "detImL": mat_det(mat_sub(IMat2.identity(), l)),
            "group": [g.d1, g.d2],
        },
        args.output,
    )
    return 0


def _cmd_count(args) -> int:
    curve = _parse_curve(args.curve)
    n, ap = count_points(curve, args.p)
    _emit({"curve": [curve.a, curve.b], "p": args.p, "count": n, "a_p": ap}, args.output)
    return 0


def _load_curves(args) -> list[Curve]:
    curves = []
    if args.curve:
        curves.append(_parse_curve(args.curve))
    if args.curves_file:
        try:
            with open(args.curves_file, encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        curves.append(_parse_curve(line))
        except OSError as exc:
            raise ValueError(f"cannot read curves file: {exc}") from None
    if not curves:
        raise ValueError("provide --curve a,b and/or --curves-file FILE")
    return curves


def _cmd_match(args) -> int:
    theta = _parse_theta(args.theta, unit_interval=True)
    primes = _parse_primes(args.primes)
    for report in match_curves(theta, _load_curves(args), primes, cap=args.cap):
        curve = report.curve
        for entry in report.entries:
            row = entry.data
            _emit(
                {
                    "p": row.p,
                    "pi": row.pi,
                    "T": row.T,
                    "detImL": row.det_iml,
                    "group": [row.group.d1, row.group.d2],
                    "curve": [curve.a, curve.b],
                    "ec_count": entry.ec_count,
                    "match": entry.match,
                },
                args.output,
            )
        _emit(
            {
                "curve": [curve.a, curve.b],
                "matching": report.matching(),
                "mismatching": report.mismatching(),
                "skipped": list(report.skipped),
            },
            args.output,
        )
    return 0


def _cmd_skew_demo(args) -> int:
    alpha = shift_by_one()
    t = SkewPoly.term(alpha, 1, UP_ONE)
    ut = SkewPoly.term(alpha, 1, UP_U)
    u0 = SkewPoly.term(alpha, 0, UP_U)
    tinv = SkewPoly.term(alpha, -1, UP_ONE)
    print(f"twist: {alpha}")
    print(f"relation x1*x2 - x2*x1 - x1^2 == 0 with x1 = t, x2 = u*t: {verify_example2()}")
    print()
    basis = [("u", u0), ("t", t), ("t^-1", tinv), ("u*t", ut)]
    cells = [[str(skew_mul(f, g)) for _, g in basis] for _, f in basis]
    width = max(len(s) for row in cells for s in row)
    width = max(width, max(len(name) for name, _ in basis))
    head = " * ".rjust(6) + " | " + " | ".join(name.center(width) for name, _ in basis)
    print(head)
    print("-" * len(head))
    for (name, _), row in zip(basis, cells):
        print(name.rjust(6) + " | " + " | ".join(s.center(width) for s in row))
    print()
    print(f"star(u*t) = {skew_star(ut)}")
    return 0


def _cmd_star_check(args) -> int:
    alpha = AffineAut(_parse_gauss(args.p), _parse_gauss(args.q))
    _emit({"coherent": check_star_coherent(alpha)}, args.output)
    return 0


def _cmd_ustar_check(args) -> int:
    defect = star_defect(u_infinity_relation(), u_infinity_system())
    _emit({"preserved": defect.is_zero, "residual": str(defect)}, args.output)
    return 0


def _add_theta(p: argparse.ArgumentParser) -> None:
    p.add_argument("theta", help="quadratic irrational (P+sqrt(D))/Q as P,D,Q")


def _add_common(p: argparse.ArgumentParser, cap: bool = False) -> None:
    p.add_argument("--output", choices=("json", "tsv"), default="json", help="output format")
    if cap:
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="unit power search limit")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call to
    main; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="rmtorus",
        description="exact continued fractions, units, cokernel groups, and point counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cfrac", help="continued fraction expansion of theta")
    _add_theta(p)
    _add_common(p)
    p.set_defaults(func=_cmd_cfrac)

    p = sub.add_parser("matrix", help="period matrix product for theta")
    _add_theta(p)
    _add_common(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("unit", help="fundamental unit of the (sub)lattice of theta")
    _add_theta(p)
    p.add_argument("--conductor", type=int, default=1, help="conductor f of Z + (f*theta)Z")
    _add_common(p)
    p.set_defaults(func=_cmd_unit)

    p = sub.add_parser("pi", help="least unit power landing in the conductor-p sublattice")
    _add_theta(p)
    p.add_argument("--p", type=int, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("lp", help="matrix L_p, det(I-L_p) and its cokernel group")
    _add_theta(p)
    p.add_argument("--p", type=int, required=True)
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("group", help="cokernel Z^2/(I-L)Z^2 of an explicit matrix L")
    p.add_argument("--matrix", required=True, help="row-major entries a,b,c,d of L")
    _add_common(p)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("count", help="point count of a curve over F_p")
    p.add_argument("--curve", required=True, help="coefficients a,b of y^2 = x^3 + a*x + b")
    p.add_argument("--p", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("match", help="compare |det(I-L_p)| with point counts per prime")
    _add_theta(p)
    p.add_argument("--curve", help="coefficients a,b of y^2 = x^3 + a*x + b")
    p.add_argument("--curves-file", help="CSV file with one a,b per line")
    p.add_argument("--primes", required=True, help="comma-separated prime list")
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("skew-demo", help="twisted Laurent ring demo (text output)")
    p.set_defaults(func=_cmd_skew_demo)

    p = sub.add_parser("star-check", help="test whether conjugation commutes with u -> p*u+q")
    p.add_argument("--p", required=True, help="scale as re,im (rationals)")
    p.add_argument("--q", required=True, help="shift as re,im (rationals)")
    _add_common(p)
    p.set_defaults(func=_cmd_star_check)

    p = sub.add_parser("ustar-check", help="does x1* = x2 preserve the quadratic relation?")
    _add_common(p)
    p.set_defaults(func=_cmd_ustar_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except SearchLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
