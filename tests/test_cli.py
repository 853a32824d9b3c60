import argparse
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from reference import expand_cycle_by_dict, fold_matrix_A, random_surd
from rmtorus import cli, ecpoints, quadratic, units
from rmtorus.cli import CURVES_LINE_MAX, DEFAULT_CAP, build_parser, main
from rmtorus.intmat import mat_det, mat_pow, mat_trace, matrix_A
from rmtorus.quadratic import canonicalize, cf_expand


def run_cli(*args):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestCfrac:
    def test_sqrt2_minus_1(self):
        code, out, _ = run_cli("cfrac", "--", "-1,2,1")
        assert code == 0
        assert out == '{"P":-1,"D":2,"Q":1,"preperiod":[0],"period":[2]}\n'

    def test_rejects_square_d(self):
        code, _, err = run_cli("cfrac", "1,4,1")
        assert code == 2
        assert "error" in err

    def test_rejects_malformed_theta(self):
        code, _, err = run_cli("cfrac", "1,2")
        assert code == 2

    def test_one_value_prints_one_line(self):
        # (2 + sqrt(5))/4 and (6 + sqrt(45))/12 are one value: cfrac echoes
        # its primitive triple for both
        lines = {run_cli("cfrac", "--", token)[1] for token in ("2,5,4", "6,45,12")}
        assert lines == {'{"P":8,"D":80,"Q":16,"preperiod":[],"period":[1,16]}\n'}

    def test_tsv(self):
        code, out, _ = run_cli("cfrac", "--output", "tsv", "--", "0,3,1")
        assert code == 0
        assert out == "0\t3\t1\t1\t1,2\n"


class TestMatrix:
    def test_golden(self):
        code, out, _ = run_cli("matrix", "--", "-1,5,2")
        assert code == 0
        assert json.loads(out) == {"period": [1], "A": [[1, 1], [1, 0]], "trace": 1, "det": -1}

    def test_det_is_the_det_of_the_product(self):
        # det is printed from the period's length alone; on random surds moved
        # into (0, 1), periods of both parities, it must be the det of the
        # product folded term by term
        rng = random.Random(61)
        parities = set()
        for _ in range(200):
            t = random_surd(rng)
            code, out, _ = run_cli("matrix", "--", f"{t.P - t.floor() * t.Q},{t.D},{t.Q}")
            assert code == 0
            row = json.loads(out)
            assert row["det"] == mat_det(fold_matrix_A(row["period"])), t
            parities.add(len(row["period"]) % 2)
        assert parities == {0, 1}


class TestUnit:
    def test_fundamental(self):
        code, out, _ = run_cli("unit", "--", "-1,2,1")
        assert code == 0
        assert json.loads(out) == {"x": 2, "y": 1, "norm": -1}

    def test_conductor(self):
        code, out, _ = run_cli("unit", "--conductor", "3", "--", "-1,2,1")
        assert code == 0
        assert json.loads(out) == {"x": 29, "y": 12, "norm": 1}


class TestPi:
    def test_value(self):
        code, out, _ = run_cli("pi", "--p", "3", "--", "-1,2,1")
        assert code == 0
        assert json.loads(out) == {"pi": 4, "trace_Apow": 34}

    def test_cap_exhaustion_exit_code(self):
        code, _, err = run_cli("pi", "--p", "3", "--cap", "2", "--", "-1,2,1")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "cmd",
        [
            ["pi", "--p", "3"],
            ["lp", "--p", "3"],
            ["match", "--curve", "0,1", "--primes", "5,7"],
            # no prime needs a search: 2 and 3 are bad for y^2 = x^3 + 1
            ["match", "--curve", "0,1", "--primes", "2,3"],
        ],
        ids=["pi", "lp", "match", "match-no-search"],
    )
    @pytest.mark.parametrize("cap", ["0", "-4"])
    def test_cap_below_one_is_bad_input(self, cmd, cap):
        code, out, err = run_cli(*cmd, "--cap", cap, "--", "-1,2,1")
        assert code == 2
        assert out == ""
        assert err == "error: cap must be >= 1\n"

    @pytest.mark.parametrize("cmd", ["pi", "lp"])
    def test_cap_below_one_fails_before_the_unit(self, cmd):
        # the fundamental unit of this theta alone takes 0.1 s or more
        start = time.perf_counter()
        result = run_cli(cmd, "--p", "3", "--cap", "0", "--", "-100000,10000000019,1")
        assert time.perf_counter() - start < 0.05
        assert result == (2, "", "error: cap must be >= 1\n")


class TestLp:
    def test_worked_pipeline(self):
        code, out, _ = run_cli("lp", "--p", "3", "--", "-1,2,1")
        assert code == 0
        assert (
            out
            == '{"pi":4,"T":34,"Lp":[[31,3],[30,3]],"detImL":-30,"group":[1,30]}\n'
        )

    def test_golden_p2(self):
        code, out, _ = run_cli("lp", "--p", "2", "--", "-1,5,2")
        assert code == 0
        row = json.loads(out)
        assert row["pi"] == 3 and row["T"] == 4 and row["detImL"] == -1
        assert row["group"] == [1, 1]

    def test_unit_interval_required_for_pipeline(self):
        # sqrt(3) is a fine continued fraction input but not a torus parameter
        assert run_cli("cfrac", "0,3,1")[0] == 0
        for cmd in (
            ["matrix", "0,3,1"],
            ["unit", "0,3,1"],
            ["pi", "--p", "2", "0,3,1"],
            ["lp", "--p", "2", "0,3,1"],
            ["match", "--curve", "0,1", "--primes", "5", "0,3,1"],
        ):
            code, _, err = run_cli(*cmd)
            assert code == 2
            assert "(0,1)" in err


class TestGroup:
    def test_cokernel_of_explicit_matrix(self):
        code, out, _ = run_cli("group", "--matrix", "4,2,3,2")
        assert code == 0
        assert json.loads(out) == {"L": [[4, 2], [3, 2]], "detImL": -3, "group": [1, 3]}

    def test_identity_matrix(self):
        code, out, _ = run_cli("group", "--matrix", "1,0,0,1")
        assert code == 0
        assert json.loads(out)["group"] == [0, 0]


class TestCount:
    def test_f5(self):
        code, out, _ = run_cli("count", "--curve", "0,1", "--p", "5")
        assert code == 0
        assert json.loads(out) == {"curve": [0, 1], "p": 5, "count": 6, "a_p": 0}

    def test_bad_prime(self):
        code, _, err = run_cli("count", "--curve", "0,1", "--p", "3")
        assert code == 2

    def test_past_the_bound_exceeds_the_budget_at_once(self):
        start = time.perf_counter()
        code, out, err = run_cli("count", "--curve", "0,1", "--p", "1000000007")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert f"above {ecpoints.COUNT_P_MAX}" in err


class TestMatch:
    def test_single_curve_lines(self):
        code, out, _ = run_cli("match", "--curve", "0,1", "--primes", "2,3,5", "--", "-1,2,1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 2
        row = lines[0]
        assert row["p"] == 5 and row["detImL"] == -8 and row["ec_count"] == 6
        assert row["match"] is False and row["curve"] == [0, 1]
        summary = lines[1]
        assert summary == {
            "curve": [0, 1],
            "matching": [],
            "mismatching": [5],
            "skipped": [2, 3],
        }

    def test_curves_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text("0,1\n-1,0\n", encoding="utf-8")
        code, out, _ = run_cli(
            "match", "--curves-file", str(path), "--primes", "5,7", "--", "-1,2,1"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        curves = {tuple(l["curve"]) for l in lines}
        assert curves == {(0, 1), (-1, 0)}

    @pytest.mark.parametrize("tail", ["\n", ""], ids=["newline", "eof"])
    def test_curves_file_line_at_the_limit(self, tmp_path, tail):
        # two coefficients at the 4300-digit input limit fit in one line, and
        # a line of exactly CURVES_LINE_MAX characters is read whole
        big = "9" * 4300
        path = tmp_path / "curves.csv"
        path.write_text(f"{big},-{big}\n" + "0,1".ljust(CURVES_LINE_MAX) + tail, encoding="utf-8")
        code, out, err = run_cli(
            "match", "--curves-file", str(path), "--primes", "5,7", "--", "-1,2,1"
        )
        assert (code, err) == (0, "")
        summaries = [json.loads(line) for line in out.splitlines() if '"matching"' in line]
        assert [s["curve"] for s in summaries] == [[int(big), -int(big)], [0, 1]]

    @pytest.mark.parametrize(
        "text, n",
        [
            ("0,1".ljust(CURVES_LINE_MAX + 1), 1),
            ("0,1\n" + "0,1".ljust(CURVES_LINE_MAX + 1) + "\n", 2),
            ("\0" * (CURVES_LINE_MAX + 1), 1),  # what /dev/zero holds, cut one past the limit
        ],
        ids=["no-newline", "second-line", "nul-bytes"],
    )
    def test_curves_file_line_past_the_limit(self, tmp_path, text, n):
        path = tmp_path / "curves.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(
            "match", "--curves-file", str(path), "--primes", "5", "--", "-1,2,1"
        )
        assert (code, out) == (2, "")
        assert f"line {n} is longer than {CURVES_LINE_MAX} characters" in err

    def test_requires_some_curve(self):
        code, _, err = run_cli("match", "--primes", "5", "--", "-1,2,1")
        assert code == 2

    def _match_cli(self, tmp_path, curves, primes, *extra):
        path = tmp_path / "curves.csv"
        path.write_text("".join(c + "\n" for c in curves[1:]), encoding="utf-8")
        args = ["match", f"--curve={curves[0]}", "--primes", primes, *extra]
        if len(curves) > 1:
            args += ["--curves-file", str(path)]
        return run_cli(*args, "--", "-1,2,1")

    def test_one_pi_index_call_per_prime(self, tmp_path, monkeypatch):
        # bad primes: (1,1) at 2 and 31, (2,3) at 2, 3, 5 and 11, (0,1) at 2 and 3
        curves = ["1,1", "2,3", "0,1"]
        primes = "2,3,5,7,11,13,31,37"
        singles = [self._match_cli(tmp_path, [c], primes) for c in curves]
        calls = []
        real = ecpoints.pi_index

        def counting(unit, p, cap):
            calls.append(p)
            return real(unit, p, cap=cap)

        monkeypatch.setattr(ecpoints, "pi_index", counting)
        code, out, _ = self._match_cli(tmp_path, curves, primes)
        assert code == 0
        assert sorted(calls) == [5, 7, 11, 13, 31, 37]
        assert all(c == 0 for c, _, _ in singles)
        assert out == "".join(o for _, o, _ in singles)

    def test_one_primality_test_per_prime(self, tmp_path, monkeypatch):
        # each distinct prime of the request is tested once, whatever the
        # number of curves and whether the prime is good for them
        calls = []
        real = ecpoints.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(ecpoints, "is_prime", counting)
        code, _, _ = self._match_cli(tmp_path, ["1,1", "2,3", "0,1"], "2,3,5,7,11,13,31,37,5")
        assert code == 0
        assert sorted(calls) == [2, 3, 5, 7, 11, 13, 31, 37]

    def test_cap_exhaustion_after_earlier_curves(self, tmp_path):
        # pi(5) = 3 but pi(31) = 30: only the second curve needs p = 31 (the
        # first has bad reduction there), so the first curve's lines come out
        # before the search cap ends the run
        curves = ["1,1", "0,1"]
        first = self._match_cli(tmp_path, curves[:1], "5,31", "--cap", "3")
        second = self._match_cli(tmp_path, curves[1:], "5,31", "--cap", "3")
        code, out, err = self._match_cli(tmp_path, curves, "5,31", "--cap", "3")
        assert (first[0], second[0], second[1]) == (0, 3, "")
        assert code == 3 and "p=31" in err
        assert out == first[1] and out.count("\n") == 2

    def test_count_bound_before_the_fingerprint(self, monkeypatch):
        # pi(10000019) is about 10^7, so its T would have about 12 Mbit; the
        # count bound ends the request before that is computed
        argv = ("match", "--curve", "0,1", "--primes", "10000019", "--cap", "30000000", "--", "-1,2,1")

        def no_fingerprint(*args):
            raise AssertionError("fingerprint computed past the count bound")

        with monkeypatch.context() as patch:
            patch.setattr(ecpoints, "_fingerprint", no_fingerprint)
            assert run_cli(*argv)[0] == 3
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert f"above {ecpoints.COUNT_P_MAX}" in err

    def test_count_bound_after_earlier_curves(self, tmp_path):
        # 10000019 divides the discriminant of the first curve, so only the
        # second needs its count: the first curve's lines come out first
        curves = ["10000016,2", "0,1"]
        first = self._match_cli(tmp_path, curves[:1], "5,10000019")
        start = time.perf_counter()
        code, out, err = self._match_cli(tmp_path, curves, "5,10000019")
        assert time.perf_counter() - start < 1
        assert first[0] == 0 and json.loads(first[1].splitlines()[-1])["skipped"] == [10000019]
        assert (code, out) == (3, first[1])
        assert "p=10000019 is above" in err

    def test_deterministic_bytes(self):
        args = ("match", "--curve", "0,1", "--primes", "5,7,11,13", "--", "-1,2,1")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2


class TestPrimeArguments:
    """--p and --primes must be primes below 3317044064679887385961981, the
    bound up to which the primality test is exact."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pi", "--p", "4", "--", "-1,2,1"],
            ["lp", "--p", "4", "--", "-1,2,1"],
            ["count", "--curve", "0,1", "--p", "4"],
            ["match", "--curve", "0,1", "--primes", "5,4", "--", "-1,2,1"],
        ],
        ids=["pi", "lp", "count", "match"],
    )
    def test_composite_is_bad_input(self, argv):
        assert run_cli(*argv) == (2, "", "error: 4 is not prime\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--curve", "0,1", "--p", "1000000000000000000000000000057"],
            ["pi", "--p", "1000000000000000000000000000057", "--", "-1,2,1"],
            ["match", "--curve", "0,1", "--primes", "5,3317044064679887385961981", "--", "-1,2,1"],
        ],
        ids=["count", "pi", "match"],
    )
    def test_past_the_bound_is_bad_input_at_once(self, argv):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "primality is decided only below 3317044064679887385961981" in err


class TestSkewDemo:
    def test_text_output(self):
        code, out, _ = run_cli("skew-demo")
        assert code == 0
        assert "True" in out
        assert "u + 1" in out  # t * u = (u+1)*t


class TestStarCheck:
    def test_real_shift(self):
        code, out, _ = run_cli("star-check", "--p", "1,0", "--q", "1,0")
        assert code == 0
        assert out == '{"coherent":true}\n'

    def test_imaginary_shift(self):
        code, out, _ = run_cli("star-check", "--p", "1,0", "--q", "0,1")
        assert code == 0
        assert out == '{"coherent":false}\n'

    def test_rational_input(self):
        # negative values need the --flag=value form, as usual with argparse
        code, out, _ = run_cli("star-check", "--p", "1/2,0", "--q=-3,0")
        assert code == 0
        assert json.loads(out) == {"coherent": True}

    def test_minus_one_scale(self):
        code, out, _ = run_cli("star-check", "--p=-1,0", "--q", "0,0")
        assert code == 0
        assert json.loads(out) == {"coherent": True}

    def test_plain_decimals(self):
        assert run_cli("star-check", "--p", "0.5,0", "--q", "1.25,.5") == (
            0, '{"coherent":false}\n', ""
        )

    def test_underscore_is_bad_input(self):
        # Fraction takes digit-group underscores from CPython 3.11 on; the
        # CLI refuses them on every interpreter
        for p, q in [("1_0,0", "0,0"), ("1,0", "0,1_000")]:
            assert run_cli("star-check", "--p", p, "--q", q) == (
                2, "", f"error: expected re,im with rational parts, got {p if '_' in p else q!r}\n"
            )

    def test_zero_scale(self):
        assert run_cli("star-check", "--p", "0,0", "--q", "1,0") == (
            2, "", "error: p must be nonzero\n"
        )

    @pytest.mark.parametrize(
        "p, q, bad",
        [
            ("1e99999999,0", "0,0", "1e99999999,0"),
            ("1,0", "1e-9999999999,0", "1e-9999999999,0"),
            ("1,0", "0,2E1", "0,2E1"),
        ],
        ids=["large-exponent", "small-exponent", "capital-e"],
    )
    def test_exponent_is_bad_input_at_once(self, p, q, bad):
        # Fraction would compute 10**exponent, which for these does not finish
        start = time.perf_counter()
        result = run_cli("star-check", "--p", p, "--q", q)
        assert time.perf_counter() - start < 1.0
        assert result == (2, "", f"error: expected re,im with rational parts, got {bad!r}\n")


class TestUstarCheck:
    def test_golden_output(self):
        code, out, _ = run_cli("ustar-check")
        assert code == 0
        assert out == '{"preserved":false,"residual":"x1^2 - x2^2"}\n'


THETA = {"theta": (True, None, None, None)}
OUTPUT = {"--output": (False, "json", ("json", "tsv"), None)}
P = {"--p": (True, None, None, int)}
CAP = {"--cap": (False, DEFAULT_CAP, None, int)}

# subcommand -> {option string, or dest of a positional: (required, default, choices, type)}
PARSER_SHAPE = {
    "cfrac": {**THETA, **OUTPUT},
    "matrix": {**THETA, **OUTPUT},
    "unit": {**THETA, "--conductor": (False, 1, None, int), **OUTPUT},
    "pi": {**THETA, **P, **OUTPUT, **CAP},
    "lp": {**THETA, **P, **OUTPUT, **CAP},
    "group": {"--matrix": (True, None, None, None), **OUTPUT},
    "count": {"--curve": (True, None, None, None), **P, **OUTPUT},
    "match": {
        **THETA,
        "--curve": (False, None, None, None),
        "--curves-file": (False, None, None, None),
        "--primes": (True, None, None, None),
        **OUTPUT,
        **CAP,
    },
    "skew-demo": {},
    "star-check": {"--p": (True, None, None, None), "--q": (True, None, None, None), **OUTPUT},
    "ustar-check": {**OUTPUT},
}


class TestParsing:
    def test_parser_shape(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(PARSER_SHAPE)
        for name, parser in sub.choices.items():
            shape = {
                (a.option_strings or [a.dest])[0]: (a.required, a.default, a.choices, a.type)
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            }
            assert shape == PARSER_SHAPE[name], name

    def test_skew_demo_rejects_output(self):
        code, out, _ = run_cli("skew-demo", "--output", "json")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cfrac", "1,x,1"], "theta must be three integers P,D,Q, got '1,x,1'"),
            (["count", "--curve", "0,y", "--p", "5"], "curve must be two integers a,b, got '0,y'"),
            (
                ["group", "--matrix", "1,2,x,4"],
                "matrix must be four integers a,b,c,d, got '1,2,x,4'",
            ),
        ],
        ids=["theta", "curve", "matrix"],
    )
    def test_malformed_token_message(self, argv, message):
        assert run_cli(*argv) == (2, "", f"error: {message}\n")

    def test_help_exits_zero(self):
        code, _, _ = run_cli("--help")
        assert code == 0

    def test_unknown_flag_rejected(self):
        code, _, _ = run_cli("cfrac", "--bogus", "1,2,1")
        assert code == 2

    def test_unknown_command_rejected(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2


class TestLongIntegers:
    """Exact results past the 4300-digit int-to-str limit are printed; the
    limit still guards input parsing and is restored after every request."""

    LARGE = [
        ["matrix", "--", "-31622,1000000007,1"],
        ["unit", "--", "-31622,1000000007,1"],
        ["pi", "--p", "11351", "--", "-1,2,1"],
        ["lp", "--p", "11351", "--", "-1,2,1"],
        ["match", "--curve", "0,1", "--primes", "11351", "--", "-1,2,1"],
    ]

    def test_large_outputs_exit_zero(self):
        limit = sys.get_int_max_str_digits()
        for cmd in self.LARGE:
            code, out, err = run_cli(*cmd)
            assert code == 0, (cmd, err)
            assert err == ""
            assert len(out) > 4300
            assert sys.get_int_max_str_digits() == limit

    def test_pi_trace_is_exact(self):
        code, out, _ = run_cli("pi", "--p", "11351", "--", "-1,2,1")
        assert code == 0
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            row = json.loads(out)
        finally:
            sys.set_int_max_str_digits(limit)
        a = matrix_A(cf_expand(canonicalize(-1, 2, 1)).period)
        assert row["trace_Apow"] == mat_trace(mat_pow(a, row["pi"]))
        assert row["trace_Apow"] > 10**4300

    def test_tsv(self):
        code, out, _ = run_cli("lp", "--output", "tsv", "--p", "11351", "--", "-1,2,1")
        assert code == 0
        assert len(out.split("\t")[1]) > 4300

    def test_huge_input_token_still_rejected(self):
        limit = sys.get_int_max_str_digits()
        code, _, err = run_cli("pi", "--p", "7" * 5000, "--", "-1,2,1")
        assert code == 2
        assert "invalid int value" in err
        assert sys.get_int_max_str_digits() == limit


class TestLongPeriods:
    """Periods of 3702 and 12352 terms: stdout is byte-identical to the one
    produced with the period product and the cycle replaced by the oracles."""

    @pytest.mark.parametrize("cmd", ["cfrac", "matrix", "unit"])
    @pytest.mark.parametrize("theta", ["-3162,10000054,1", "-31622,1000000007,1"])
    def test_matches_oracles(self, cmd, theta, monkeypatch):
        code, out, err = run_cli(cmd, "--", theta)
        assert (code, err) == (0, "")
        for module in (quadratic, units):
            monkeypatch.setattr(module, "_expand_cycle", lambda t: expand_cycle_by_dict(t)[:2])
        for module in (units, cli):
            monkeypatch.setattr(module, "matrix_A", fold_matrix_A)
        assert run_cli(cmd, "--", theta) == (0, out, "")
