"""Mutation check: each mutant is a small fault that the named tests must catch.

Usage, from the root of the repository:

    python3 tests/mutants.py [NAME ...]

A mutant is (name, file, snippet, replacement, test paths).  The snippet must
occur exactly once in its file, so a mutant whose code has moved fails loudly
instead of going stale.  For each mutant the whole repository is copied to a
temporary directory (pyproject.toml puts src/ on pytest's path, so a copy of
src/ alone would be shadowed), the snippet is replaced, and pytest runs the
named tests there.  A failing run, or one past the time limit, kills the
mutant.  The unmutated copy must pass the same tests first.

Prints one line per mutant and killed/total; exits 1 if any mutant survives.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT = 60  # seconds per pytest run; a mutant that hangs is caught

MUTANTS = [
    (
        "reduced-lower-bound-inclusive",
        "src/rmtorus/quadratic.py",
        "if Q > 0 and 0 < P <= s and s - P < Q <= s + P:",
        "if Q > 0 and 0 < P <= s and s - P <= Q <= s + P:",
        ["tests/test_quadratic.py"],
    ),
    (
        "reduced-upper-bound-exclusive",
        "src/rmtorus/quadratic.py",
        "if Q > 0 and 0 < P <= s and s - P < Q <= s + P:",
        "if Q > 0 and 0 < P <= s and s - P < Q < s + P:",
        ["tests/test_quadratic.py"],
    ),
    (
        "content-taken-as-gcd-of-p-and-q",
        "src/rmtorus/quadratic.py",
        "g = gcd(P, (D - P * P) // Q, Q)",
        "g = gcd(P, Q)",
        ["tests/test_quadratic.py"],
    ),
    (
        "constructor-accepts-non-primitive",
        "src/rmtorus/quadratic.py",
        "if gcd(P, (D - P * P) // Q, Q) != 1:",
        "if False:",
        ["tests/test_quadratic.py"],
    ),
    (
        "expand-cycle-without-entry-check",
        "src/rmtorus/quadratic.py",
        "    if (D - P * P) % Q:\n        raise ValueError(f\"recurrence leaves",
        "    if False:\n        raise ValueError(f\"recurrence leaves",
        ["tests/test_quadratic.py::TestExpand::test_broken_invariant_raises"],
    ),
    (
        "leaf-split-drops-middle-term",
        "src/rmtorus/intmat.py",
        "e, f, g, h = _period_product(period, mid, hi)",
        "e, f, g, h = _period_product(period, mid + 1, hi)",
        ["tests/test_intmat.py"],
    ),
    (
        "preperiod-inverse-drops-sign",
        "src/rmtorus/units.py",
        "s = -1 if len(pre) % 2 else 1",
        "s = 1",
        ["tests/test_units.py"],
    ),
    (
        "unit-basis-transposed",
        "src/rmtorus/units.py",
        "return IMat2(k.d, k.b, k.c, k.a)",
        "return IMat2(k.d, k.c, k.b, k.a)",
        ["tests/test_units.py"],
    ),
    (
        "mobius-det-sign-flipped",
        "src/rmtorus/quadratic.py",
        "return _from_parts(A * C - a * c * D, Q * det, D, den)",
        "return _from_parts(A * C - a * c * D, -Q * det, D, den)",
        ["tests/test_units.py"],
    ),
    (
        "pi-index-product-for-lcm",
        "src/rmtorus/units.py",
        "k = lcm(k, _apparition(t, d, q, e))",
        "k = k * _apparition(t, d, q, e)",
        ["tests/test_units.py"],
    ),
    (
        "pi-index-ignores-p-dividing-c",
        "src/rmtorus/units.py",
        "_factor(p // gcd(p, unit.c))",
        "_factor(p)",
        ["tests/test_units.py"],
    ),
    (
        "apparition-at-p-dividing-delta-off",
        "src/rmtorus/units.py",
        "        r = q\n    else:",
        "        r = q + 1\n    else:",
        ["tests/test_units.py"],
    ),
    (
        "apparition-at-two-swapped",
        "src/rmtorus/units.py",
        "r = 2 if t % 2 == 0 else 3",
        "r = 3 if t % 2 == 0 else 2",
        ["tests/test_units.py"],
    ),
    (
        "apparition-strips-each-factor-once",
        "src/rmtorus/units.py",
        "while r % l == 0 and _lucas_u(",
        "if r % l == 0 and _lucas_u(",
        ["tests/test_units.py"],
    ),
    (
        "apparition-skips-prime-power-lift",
        "src/rmtorus/units.py",
        "qe = q**e",
        "qe = q",
        ["tests/test_units.py"],
    ),
    (
        "trace-pow-odd-step-sign",
        "src/rmtorus/intmat.py",
        "v, w, s = v * w - t * s, w * w",
        "v, w, s = v * w + t * s, w * w",
        ["tests/test_units.py"],
    ),
    (
        "match-counts-before-bound-check",
        "src/rmtorus/ecpoints.py",
        "        for p in good:\n            _require_countable(p)\n",
        "",
        ["tests/test_cli.py::TestMatch"],
    ),
    (
        "gauss-accepts-underscores",
        "src/rmtorus/cli.py",
        ' and "_" not in token:',
        ":",
        ["tests/test_cli.py::TestStarCheck"],
    ),
    (
        "singular-cokernel-read-as-finite",
        "src/rmtorus/intmat.py",
        "return AbelianGroup(d1, abs(mat_det(m)) // d1 if d1 else 0)",
        "return AbelianGroup(d1, abs(mat_det(m)) // d1 or 1 if d1 else 0)",
        ["tests/test_intmat.py"],
    ),
    (
        "emit-leaves-digit-limit-lifted",
        "src/rmtorus/cli.py",
        "        sys.set_int_max_str_digits(limit)\n    print(line)",
        "        pass\n    print(line)",
        ["tests/test_cli.py"],
    ),
    (
        "matrix-det-minus-one-for-every-period",
        "src/rmtorus/cli.py",
        '"det": (-1) ** len(period)',
        '"det": -1',
        ["tests/test_cli.py"],
    ),
    (
        "curves-line-limit-one-short",
        "src/rmtorus/cli.py",
        "if len(line) > CURVES_LINE_MAX and",
        "if len(line) >= CURVES_LINE_MAX and",
        ["tests/test_cli.py"],
    ),
    (
        "floor-negative-q-off-by-one",
        "src/rmtorus/quadratic.py",
        "else (-P - s - 1) // (-Q)",
        "else (-P - s) // (-Q)",
        ["tests/test_quadratic.py"],
    ),
    (
        "build-lp-transposed",
        "src/rmtorus/intmat.py",
        "return IMat2(T - p, p, T - p - 1, p)",
        "return IMat2(T - p, T - p - 1, p, p)",
        ["tests/test_intmat.py"],
    ),
    (
        "match-curves-without-cap-check",
        "src/rmtorus/ecpoints.py",
        '    if cap < 1:\n        raise ValueError("cap must be >= 1")\n    for p in dict.fromkeys(primes):',
        "    for p in dict.fromkeys(primes):",
        ["tests/test_cli.py"],
    ),
    (
        "is-prime-drops-a-base",
        "src/rmtorus/units.py",
        "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
        "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
        ["tests/test_ecpoints.py"],
    ),
    (
        "nonzero-squares-counted-once",
        "src/rmtorus/ecpoints.py",
        "sq[y * y % p] = 2",
        "sq[y * y % p] = 1",
        ["tests/test_ecpoints.py"],
    ),
    (
        "square-table-stops-one-short",
        "src/rmtorus/ecpoints.py",
        "for y in range(1, (p + 1) // 2):\n        sq[y * y % p] = 2",
        "for y in range(1, (p - 1) // 2):\n        sq[y * y % p] = 2",
        ["tests/test_ecpoints.py"],
    ),
    (
        "reflection-constant-is-b",
        "src/rmtorus/ecpoints.py",
        "c = 2 * b % p",
        "c = b % p",
        ["tests/test_ecpoints.py"],
    ),
    (
        "reflection-drops-x-zero",
        "src/rmtorus/ecpoints.py",
        "1 + sq[b] + sum(",
        "1 + sum(",
        ["tests/test_ecpoints.py"],
    ),
    (
        "reflected-sum-stops-one-short",
        "src/rmtorus/ecpoints.py",
        "for x in range(1, (p + 1) // 2)",
        "for x in range(1, (p - 1) // 2)",
        ["tests/test_ecpoints.py"],
    ),
    (
        "zero-counted-as-two-roots",
        "src/rmtorus/ecpoints.py",
        "sq[0] = 1",
        "sq[0] = 2",
        ["tests/test_ecpoints.py"],
    ),
    (
        "count-bound-off-by-one",
        "src/rmtorus/ecpoints.py",
        "if p > COUNT_P_MAX:",
        "if p >= COUNT_P_MAX:",
        ["tests/test_ecpoints.py"],
    ),
    (
        "match-tests-primes-per-curve",
        "src/rmtorus/ecpoints.py",
        "good = [p for p in primes if _is_good(e, p)]",
        "good = [p for p in primes if is_good_prime(e, p)]",
        ["tests/test_cli.py"],
    ),
    (
        "values-of-any-type-compare",
        "src/rmtorus/value.py",
        "if type(other) is not type(self):",
        "if not isinstance(other, Value):",
        ["tests/test_value.py"],
    ),
    (
        "group-skips-divisibility-check",
        "src/rmtorus/intmat.py",
        "if d1 != 0 and d2 != 0 and d2 % d1 != 0:",
        "if False:",
        ["tests/test_intmat.py"],
    ),
    (
        "fingerprint-without-cap-check",
        "src/rmtorus/ecpoints.py",
        '    if cap < 1:\n        raise ValueError("cap must be >= 1")\n    for p in primes:',
        "    for p in primes:",
        ["tests/test_ecpoints.py"],
    ),
    (
        "rising-product-starts-one-late",
        "src/rmtorus/freealg.py",
        "out = out * UPoly.make([Fraction(k), Fraction(1)])",
        "out = out * UPoly.make([Fraction(k + 1), Fraction(1)])",
        ["tests/test_freealg.py"],
    ),
    (
        "ncpoly-keeps-zero-terms",
        "src/rmtorus/freealg.py",
        "nonzero = [(w, c) for w, c in acc.items() if c]",
        "nonzero = list(acc.items())",
        ["tests/test_freealg.py"],
    ),
    (
        "ncpoly-terms-in-insertion-order",
        "src/rmtorus/freealg.py",
        "tuple(sorted(nonzero, key=_deglex))",
        "tuple(nonzero)",
        ["tests/test_freealg.py"],
    ),
    (
        "horner-walks-coefficients-upward",
        "src/rmtorus/skewlaurent.py",
        "for c in reversed(self.coeffs):",
        "for c in self.coeffs:",
        ["tests/test_skewlaurent.py"],
    ),
    (
        "identity-shortcut-ignores-shift",
        "src/rmtorus/skewlaurent.py",
        "if p == 1 and not q:",
        "if p == 1:",
        ["tests/test_skewlaurent.py"],
    ),
    (
        "power-shortcut-takes-inverse-as-itself",
        "src/rmtorus/skewlaurent.py",
        "        if m == 1:\n",
        "        if abs(m) == 1:\n",
        ["tests/test_skewlaurent.py"],
    ),
    (
        "upoly-sum-drops-the-longer-tail",
        "src/rmtorus/skewlaurent.py",
        "list(long[len(short):])",
        "list(long[len(short) + 1:])",
        ["tests/test_skewlaurent.py"],
    ),
    (
        "affine-power-int-base",
        "src/rmtorus/skewlaurent.py",
        "pm = Fraction(self.p) ** m",
        "pm = self.p ** m",
        ["tests/test_skewlaurent.py"],
    ),
    (
        "star-check-ignores-q-imaginary",
        "src/rmtorus/skewlaurent.py",
        "return p[1] == 0 and q[1] == 0",
        "return p[1] == 0",
        ["tests/test_skewlaurent.py"],
    ),
    # one mutant per hypothesis property, each run against that property alone
    (
        "power-closed-form-wrong-sign",
        "src/rmtorus/skewlaurent.py",
        "self.q * (pm - 1) / (self.p - 1)",
        "self.q * (pm + 1) / (self.p - 1)",
        ["tests/test_skew_properties.py::test_associative"],
    ),
    (
        "star-keeps-the-degree",
        "src/rmtorus/skewlaurent.py",
        "{-k: f.alpha.power(-k).apply(b)",
        "{k: f.alpha.power(-k).apply(b)",
        ["tests/test_skew_properties.py::test_star_is_an_involution"],
    ),
    (
        "star-twists-forward",
        "src/rmtorus/skewlaurent.py",
        "{-k: f.alpha.power(-k).apply(b)",
        "{-k: f.alpha.power(k).apply(b)",
        ["tests/test_skew_properties.py::test_star_reverses_products"],
    ),
    (
        "skew-mul-twists-the-left-factor",
        "src/rmtorus/skewlaurent.py",
        "am * twist.apply(bn)",
        "twist.apply(am) * bn",
        ["tests/test_skew_properties.py::test_matches_convolution_oracle"],
    ),
    (
        "cycle-closes-when-p-recurs",
        "src/rmtorus/quadratic.py",
        "if P == P0 and Q == Q0:",
        "if P == P0:",
        ["tests/test_properties.py::test_cf_round_trip"],
    ),
    (
        "content-taken-over-the-triple",
        "src/rmtorus/quadratic.py",
        "g = gcd(P, (D - P * P) // Q, Q)",
        "g = gcd(P, D, Q)",
        ["tests/test_properties.py::test_canonicalize_is_scale_invariant"],
    ),
    (
        "cokernel-gcd-skips-an-entry",
        "src/rmtorus/intmat.py",
        "d1 = gcd(m.a, m.b, m.c, m.d)",
        "d1 = gcd(m.a, m.b, m.c)",
        ["tests/test_properties.py::test_cokernel_is_invariant_under_unimodular_change_of_basis"],
    ),
]


def copy_repo(dest: Path) -> Path:
    skip = shutil.ignore_patterns(".git", "rmbench_out", "__pycache__", ".pytest_cache")
    shutil.copytree(ROOT, dest, ignore=skip)
    return dest


def run_tests(repo: Path, tests: list[str]) -> tuple[bool, str]:
    """(passed, what failed first) of pytest on the given paths inside the copy."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            cmd, cwd=repo, env=env, capture_output=True, text=True, timeout=TIME_LIMIT
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIME_LIMIT} s"
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, failed[0] if failed else done.stdout.strip()[-200:]


def apply(repo: Path, path: str, snippet: str, replacement: str) -> None:
    target = repo / path
    text = target.read_text()
    found = text.count(snippet)
    if found != 1:
        raise SystemExit(f"{path}: the snippet {snippet!r} occurs {found} times, expected once")
    target.write_text(text.replace(snippet, replacement))


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rmtorus-mutants-") as tmp:
        clean = copy_repo(Path(tmp) / "clean")
        baseline = sorted({t for m in chosen for t in m[4]})
        passed, failed = run_tests(clean, baseline)
        if not passed:
            raise SystemExit(f"the unmutated tests fail: {failed}")
        killed = 0
        for i, (name, path, snippet, replacement, tests) in enumerate(chosen):
            repo = copy_repo(Path(tmp) / str(i))
            apply(repo, path, snippet, replacement)
            passed, failed = run_tests(repo, tests)
            killed += not passed
            print(f"SURVIVED  {name}" if passed else f"killed    {name}: {failed}", flush=True)
            shutil.rmtree(repo)
    print(f"killed {killed}/{len(chosen)} in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
