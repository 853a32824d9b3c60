"""Interpreter range check: regenerate the golden CLI transcript under every
installed CPython from 3.10.7 on (the floor of pyproject.toml) and compare
each with tests/golden_cli.txt byte for byte.

Usage, from the root of the repository:

    python3 tests/interpreters.py [PYTHON ...]

Without arguments it tries each interpreter under $PYENV_ROOT/versions
(~/.pyenv/versions when PYENV_ROOT is unset); older ones and other
implementations are skipped.  Prints one line per interpreter; exits 1 if any
transcript differs or no interpreter was checked.  Standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.txt"
FLOOR = (3, 10, 7)
TIME_LIMIT = 300  # seconds per transcript
# valid Python 2 and 3, so that an old interpreter reports itself instead of failing
PROBE = (
    "import platform, sys; sys.stdout.write('%s %d.%d.%d' % "
    "((platform.python_implementation(),) + tuple(sys.version_info[:3])))"
)


def installed() -> list[Path]:
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    return sorted((root / "versions").glob("*/bin/python3"))


def version(python: Path) -> tuple[str, tuple[int, ...]] | None:
    """(implementation, version) of the interpreter, or None if it will not say."""
    try:
        done = subprocess.run([python, "-c", PROBE], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    if done.returncode != 0:
        return None
    name, dotted = done.stdout.split()
    return name, tuple(int(n) for n in dotted.split("."))


def transcript(python: Path) -> bytes:
    """What tests/test_golden_cli.py prints under the interpreter."""
    paths = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env = dict(os.environ, PYTHONPATH=paths, PYTHONIOENCODING="utf-8", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [python, ROOT / "tests" / "test_golden_cli.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=TIME_LIMIT,
    )
    if done.returncode != 0:
        lines = done.stderr.decode(errors="replace").strip().splitlines()
        raise RuntimeError(lines[-1] if lines else f"exit {done.returncode}")
    return done.stdout


def main(args: list[str]) -> int:
    golden = GOLDEN.read_bytes()
    checked = differ = 0
    for python in [Path(a) for a in args] or installed():
        found = version(python)
        if found is None or found[0] != "CPython" or found[1] < FLOOR:
            print(f"skipped  {python}: {found or 'no version'}", flush=True)
            continue
        label = ".".join(map(str, found[1]))
        start = time.perf_counter()
        try:
            same = transcript(python) == golden
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            same = False
            print(f"error    {label} {python}: {exc}")
        checked += 1
        differ += not same
        verdict = "match   " if same else "DIFFERS "
        print(f"{verdict} {label} {python} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{checked - differ}/{checked} interpreters reproduce {GOLDEN.name}")
    return 0 if checked and not differ else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
