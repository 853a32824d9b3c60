"""Command-line front end.  Each subcommand is one row of COMMANDS: its
handler wraps one library operation and yields the objects it prints, which
main emits as compact JSON (default) or tab-separated values with the same
field order (skew-demo yields text lines).  All numbers are exact integers;
nothing is ever printed through floating point.

Exit codes: 0 success, 2 validation error, 3 search-cap exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .ecpoints import Curve, count_points, fingerprint, match_curves
from .freealg import star_defect, u_infinity_relation
from .intmat import IMat2, cokernel_group, mat_det, mat_sub, mat_trace, matrix_A
from .quadratic import QuadraticIrrational, canonicalize, cf_expand
from .skewlaurent import (
    SkewPoly,
    UP_ONE,
    UP_U,
    check_star_coherent,
    shift_by_one,
    skew_mul,
    skew_star,
    verify_example2,
)
from .units import DEFAULT_CAP, SearchLimitExceeded, SubOrder, fundamental_unit


def _ints(token: str, n: int, what: str) -> list[int]:
    """The n comma-separated integers of token; `what` names the expected form."""
    parts = token.split(",")
    if len(parts) == n:
        try:
            return [int(s) for s in parts]
        except ValueError:
            pass
    raise ValueError(f"{what}, got {token!r}")


def _parse_theta(token: str, unit_interval: bool = True) -> QuadraticIrrational:
    theta = canonicalize(*_ints(token, 3, "theta must be three integers P,D,Q"))
    # the invariant pipeline assumes 0 < theta < 1; plain cfrac does not
    if unit_interval and theta.floor() != 0:
        raise ValueError(f"theta = ({token}) must lie in (0,1) for this command")
    return theta


def _parse_curve(token: str) -> Curve:
    return Curve(*_ints(token, 2, "curve must be two integers a,b"))


def _parse_primes(token: str) -> list[int]:
    try:
        return [int(s) for s in token.split(",") if s]
    except ValueError:
        raise ValueError(f"primes must be a comma-separated integer list, got {token!r}") from None


def _parse_gauss(token: str) -> tuple[Fraction, Fraction]:
    """(re, im) of the token re,im; each part an integer, a/b or a plain
    decimal.  An exponent is refused, since Fraction would compute 10**exponent
    and a large one would not finish, and so is a digit-group underscore,
    which Fraction takes only from CPython 3.11 on."""
    parts = token.split(",")
    if len(parts) == 2 and "e" not in token.lower() and "_" not in token:
        try:
            return Fraction(parts[0]), Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected re,im with rational parts, got {token!r}")


def _flat(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(_flat(v) for v in value)
    return str(value)


def _emit(obj, fmt: str) -> None:
    # Exact results (T grows with pi(p), A with the period) can pass the
    # int-to-str digit limit, which is there to guard the parsing of input;
    # lift it only while the output is formatted.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "tsv":
            line = "\t".join(_flat(v) for v in obj.values())
        elif fmt == "json":
            line = json.dumps(obj, separators=(",", ":"))
        else:
            line = obj
    finally:
        sys.set_int_max_str_digits(limit)
    print(line)


def _cmd_cfrac(args):
    theta = _parse_theta(args.theta, unit_interval=False)
    cf = cf_expand(theta)
    yield {
        "P": theta.P,
        "D": theta.D,
        "Q": theta.Q,
        "preperiod": list(cf.preperiod),
        "period": list(cf.period),
    }


def _cmd_matrix(args):
    period = cf_expand(_parse_theta(args.theta)).period
    a = matrix_A(period)
    # det [[a_i, 1], [1, 0]] = -1 per term
    yield {"period": list(period), "A": a.rows(), "trace": mat_trace(a), "det": (-1) ** len(period)}


def _cmd_unit(args):
    m = fundamental_unit(SubOrder(_parse_theta(args.theta), args.conductor))
    yield {"x": m.a, "y": args.conductor * m.c, "norm": mat_det(m)}


def _cmd_pi(args):
    row = fingerprint(_parse_theta(args.theta), [args.p], cap=args.cap)[0]
    yield {"pi": row.pi, "trace_Apow": row.T}


def _cmd_lp(args):
    row = fingerprint(_parse_theta(args.theta), [args.p], cap=args.cap)[0]
    g = row.group
    yield {
        "pi": row.pi,
        "T": row.T,
        "Lp": row.Lp.rows(),
        "detImL": row.det_iml,
        "group": [g.d1, g.d2],
    }


def _cmd_group(args):
    l = IMat2(*_ints(args.matrix, 4, "matrix must be four integers a,b,c,d"))
    g = cokernel_group(l)
    yield {"L": l.rows(), "detImL": mat_det(mat_sub(IMat2.identity(), l)), "group": [g.d1, g.d2]}


def _cmd_count(args):
    curve = _parse_curve(args.curve)
    n, ap = count_points(curve, args.p)
    yield {"curve": [curve.a, curve.b], "p": args.p, "count": n, "a_p": ap}


# longest curves-file line, in characters: room for two coefficients at the
# 4300-digit input limit; the file is read in bounded pieces, so a file with
# no newline is never taken in as one line
CURVES_LINE_MAX = 10_000


def _load_curves(args) -> list[Curve]:
    curves = []
    if args.curve:
        curves.append(_parse_curve(args.curve))
    if args.curves_file:
        try:
            with open(args.curves_file, encoding="utf-8") as fh:
                lines = iter(functools.partial(fh.readline, CURVES_LINE_MAX + 1), "")
                for n, line in enumerate(lines, 1):
                    if len(line) > CURVES_LINE_MAX and not line.endswith("\n"):
                        raise ValueError(
                            f"curves file line {n} is longer than {CURVES_LINE_MAX} characters"
                        )
                    line = line.strip()
                    if line:
                        curves.append(_parse_curve(line))
        except OSError as exc:
            raise ValueError(f"cannot read curves file: {exc}") from None
    if not curves:
        raise ValueError("provide --curve a,b and/or --curves-file FILE")
    return curves


def _cmd_match(args):
    theta = _parse_theta(args.theta)
    primes = _parse_primes(args.primes)
    for e, entries, skipped in match_curves(theta, _load_curves(args), primes, cap=args.cap):
        curve = [e.a, e.b]
        for row, n, match in entries:
            g = row.group
            yield {
                "p": row.p,
                "pi": row.pi,
                "T": row.T,
                "detImL": row.det_iml,
                "group": [g.d1, g.d2],
                "curve": curve,
                "ec_count": n,
                "match": match,
            }
        yield {
            "curve": curve,
            "matching": [row.p for row, _, match in entries if match],
            "mismatching": [row.p for row, _, match in entries if not match],
            "skipped": list(skipped),
        }


def _cmd_skew_demo(args):
    """Text lines, not objects: skew-demo has no --output."""
    alpha = shift_by_one()
    t = SkewPoly.term(alpha, 1, UP_ONE)
    ut = SkewPoly.term(alpha, 1, UP_U)
    u0 = SkewPoly.term(alpha, 0, UP_U)
    tinv = SkewPoly.term(alpha, -1, UP_ONE)
    yield f"twist: {alpha}"
    yield f"relation x1*x2 - x2*x1 - x1^2 == 0 with x1 = t, x2 = u*t: {verify_example2()}"
    yield ""
    basis = [("u", u0), ("t", t), ("t^-1", tinv), ("u*t", ut)]
    cells = [[str(skew_mul(f, g)) for _, g in basis] for _, f in basis]
    width = max(len(s) for row in cells for s in row)
    width = max(width, max(len(name) for name, _ in basis))
    head = " * ".rjust(6) + " | " + " | ".join(name.center(width) for name, _ in basis)
    yield head
    yield "-" * len(head)
    for (name, _), row in zip(basis, cells):
        yield name.rjust(6) + " | " + " | ".join(s.center(width) for s in row)
    yield ""
    yield f"star(u*t) = {skew_star(ut)}"


def _cmd_star_check(args):
    yield {"coherent": check_star_coherent(_parse_gauss(args.p), _parse_gauss(args.q))}


def _cmd_ustar_check(args):
    defect = star_defect(u_infinity_relation())
    yield {"preserved": defect.is_zero, "residual": str(defect)}


_THETA = ("theta", {"help": "quadratic irrational (P+sqrt(D))/Q as P,D,Q"})
_P = ("--p", {"type": int, "required": True})
_CAP = ("--cap", {"type": int, "default": DEFAULT_CAP, "help": "unit power search limit"})
_CURVE_HELP = "coefficients a,b of y^2 = x^3 + a*x + b"

# subcommand -> (handler, help, arguments as (name or flag, add_argument keywords));
# every subcommand but skew-demo also takes --output
COMMANDS = {
    "cfrac": (_cmd_cfrac, "continued fraction expansion of theta", [_THETA]),
    "matrix": (_cmd_matrix, "period matrix product for theta", [_THETA]),
    "unit": (
        _cmd_unit,
        "fundamental unit of the (sub)lattice of theta",
        [
            _THETA,
            ("--conductor", {"type": int, "default": 1, "help": "conductor f of Z + (f*theta)Z"}),
        ],
    ),
    "pi": (_cmd_pi, "least unit power landing in the conductor-p sublattice", [_THETA, _P, _CAP]),
    "lp": (_cmd_lp, "matrix L_p, det(I-L_p) and its cokernel group", [_THETA, _P, _CAP]),
    "group": (
        _cmd_group,
        "cokernel Z^2/(I-L)Z^2 of an explicit matrix L",
        [("--matrix", {"required": True, "help": "row-major entries a,b,c,d of L"})],
    ),
    "count": (
        _cmd_count,
        "point count of a curve over F_p",
        [("--curve", {"required": True, "help": _CURVE_HELP}), _P],
    ),
    "match": (
        _cmd_match,
        "compare |det(I-L_p)| with point counts per prime",
        [
            _THETA,
            ("--curve", {"help": _CURVE_HELP}),
            ("--curves-file", {"help": "CSV file with one a,b per line"}),
            ("--primes", {"required": True, "help": "comma-separated prime list"}),
            _CAP,
        ],
    ),
    "skew-demo": (_cmd_skew_demo, "twisted Laurent ring demo (text output)", []),
    "star-check": (
        _cmd_star_check,
        "test whether the twist u -> p*u+q, given by (re, im) parts, is real",
        [
            ("--p", {"required": True, "help": "scale as re,im (rationals)"}),
            ("--q", {"required": True, "help": "shift as re,im (rationals)"}),
        ],
    ),
    "ustar-check": (_cmd_ustar_check, "does x1* = x2 preserve the quadratic relation?", []),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call to
    main; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="rmtorus",
        description="exact continued fractions, units, cokernel groups, and point counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        if name == "skew-demo":
            p.set_defaults(output="text")
        else:
            p.add_argument(
                "--output", choices=("json", "tsv"), default="json", help="output format"
            )
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        for obj in args.func(args):
            _emit(obj, args.output)
    except SearchLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
