"""Golden CLI transcript: the stdout and exit code of every README example,
a 4-curve `match` over the primes below 1200 in JSON and TSV, and the
exit-2 and exit-3 cases must stay byte-identical to tests/golden_cli.txt.

To regenerate it after an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.txt
"""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from reference import primes_below
from rmtorus.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")
CURVES_FILE = "CURVES_FILE"  # stands for a file holding CURVES
CURVES = "0,1\n-1,0\n1,1\n2,3\n"
PRIMES_BELOW_1200 = ",".join(map(str, primes_below(1200)))

CASES = [
    # README examples
    ["cfrac", "--", "-1,2,1"],
    ["matrix", "--", "-1,5,2"],
    ["unit", "--conductor", "3", "--", "-1,2,1"],
    ["pi", "--p", "3", "--", "-1,2,1"],
    ["lp", "--p", "3", "--", "-1,2,1"],
    ["group", "--matrix", "4,2,3,2"],
    ["count", "--curve", "0,1", "--p", "5"],
    ["match", "--curve", "0,1", "--primes", "2,3,5,7", "--", "-1,2,1"],
    ["star-check", "--p", "1,0", "--q", "0,1"],
    ["ustar-check"],
    ["skew-demo"],
    # 4 curves over the primes below 1200
    ["match", "--curves-file", CURVES_FILE, "--primes", PRIMES_BELOW_1200, "--", "-1,5,2"],
    ["match", "--output", "tsv", "--curves-file", CURVES_FILE, "--primes", PRIMES_BELOW_1200, "--", "-1,5,2"],
    # exit 2: bad input
    ["cfrac", "1,4,1"],
    ["cfrac", "1,2"],
    ["matrix", "0,3,1"],
    ["count", "--curve", "0,1", "--p", "3"],
    ["match", "--curve", "0,1", "--primes", "5,9", "--", "-1,2,1"],
    ["match", "--primes", "5", "--", "-1,2,1"],
    ["group", "--matrix", "1,2,3"],
    ["frobnicate"],
    # exit 3: the search cap, before any output and after a first curve's
    ["pi", "--p", "3", "--cap", "2", "--", "-1,2,1"],
    # p - 1 = 2*1031*1033 stays composite after trial division: Pollard-Brent splits it
    ["pi", "--p", "2130047", "--cap", "10", "--", "-1,2,1"],
    ["match", "--curve=1,1", "--curves-file", CURVES_FILE, "--primes", "5,31", "--cap", "3", "--", "-1,2,1"],
    # exit 2 on every interpreter: Fraction takes digit-group underscores from 3.11 on
    ["star-check", "--p", "1_0,0", "--q", "0,0"],
]


def transcript() -> str:
    """Each case as a `$ rmtorus ...` line, its stdout and `[exit N]`."""
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curves.csv"
        path.write_text(CURVES, encoding="utf-8")
        for argv in CASES:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main([str(path) if a == CURVES_FILE else a for a in argv])
            parts.append(f"$ rmtorus {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n\n")
    return "".join(parts)


def test_golden_transcript():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcript())
