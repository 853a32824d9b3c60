"""Reachability gate: every function defined in src/ is reached by the golden
CLI transcript (the CASES of tests/test_golden_cli.py) or the README library
example, or it is named in ALLOWED with a one-line reason.  A function that
nothing reaches and nobody vouches for fails the gate, and so does an
allowlist entry that is reached or no longer exists.

The cases run in a fresh interpreter under sys.setprofile, so calls made
while the package is imported count too.  Run as a script, this file prints
the functions reached, one `module.qualname` per line:

    PYTHONPATH=src:tests python3 tests/test_reach.py
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rmtorus"

# module.qualname -> why it stays although no case reaches it
BENCHMARK_NAME = "rmbench/spans.py wraps it by name; only a change to the benchmark (ROADMAP item 1) may delete it"
ALLOWED = {
    "cli.entry": "the console script `rmtorus` of pyproject.toml",
    "ecpoints.match_curve": BENCHMARK_NAME,
    "intmat.mat_pow": BENCHMARK_NAME,
    "skewlaurent.SkewPoly.__eq__": "value dunder: equality of skew polynomials",
    "skewlaurent.SkewPoly.__hash__": "value dunder: consistent with __eq__",
    "value.Value.__repr__": "value dunder: printing",
    "value.Value.__hash__": "value dunder: consistent with __eq__",
    "value.Value.__setattr__": "value dunder: values are immutable",
    "value.Value.__delattr__": "value dunder: values are immutable",
    "value.Value.__reduce__": "value dunder: copy and pickle go through the checks",
}


def defined() -> set[str]:
    """`module.qualname` of every function and method written in src/."""
    found = set()
    for path in SRC.glob("*.py"):
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            # class bodies and modules are not optimized; comprehensions and
            # lambdas belong to the function around them
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found.add(f"{path.stem}.{code.co_qualname}")
            todo += [c for c in code.co_consts if inspect.iscode(c)]
    return found


def reached() -> set[str]:
    """`module.qualname` of every src/ function called by the golden cases and
    the README library example, package import included."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    sys.setprofile(profile)
    try:
        import test_golden_cli

        test_golden_cli.transcript()
        exec(example, {})
    finally:
        sys.setprofile(None)
    return {
        f"{Path(c.co_filename).stem}.{c.co_qualname}"
        for c in codes
        if Path(c.co_filename).resolve().parent == SRC
    }


@pytest.fixture(scope="module")
def reached_fresh() -> set[str]:
    """reached(), run by this file in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run(
        [sys.executable, __file__], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.split())


def test_every_function_is_reached_or_allowed(reached_fresh):
    assert sorted(defined() - reached_fresh - ALLOWED.keys()) == []


def test_allowlist_is_current(reached_fresh):
    assert sorted(ALLOWED.keys() - defined()) == [], "allowed but not defined"
    assert sorted(ALLOWED.keys() & reached_fresh) == [], "allowed but reached"


if __name__ == "__main__":
    print("\n".join(sorted(reached())))
