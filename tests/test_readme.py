"""The README's examples run as written: the library example against the
names the package exports, and each CLI example that prints JSON again with
`--output tsv`, which must print the same values flattened, in order."""

import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest

import mutants
import rmtorus
from rmtorus.cli import main
from rmtorus.intmat import AbelianGroup, IMat2

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def cli_examples():
    """(argv, JSON lines) for each `$ rmtorus` example in the README that prints JSON."""
    block = re.search(r"```text\n(.*?)```", README, re.S).group(1)
    examples = []
    for chunk in block.split("$ rmtorus ")[1:]:
        command, *lines = chunk.strip().splitlines()
        if lines:
            examples.append((shlex.split(command), lines))
    return examples


def flatten(value):
    if isinstance(value, bool):
        return ["true" if value else "false"]
    if isinstance(value, list):
        return [s for v in value for s in flatten(v)]
    return [str(value)]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


EXAMPLES = cli_examples()
COMMANDS = [argv[0] for argv, _ in EXAMPLES]


def test_cli_examples_found():
    assert COMMANDS == [
        "cfrac", "matrix", "unit", "pi", "lp", "group", "count", "match", "star-check",
        "ustar-check",
    ]


@pytest.mark.parametrize("argv, lines", EXAMPLES, ids=COMMANDS)
def test_tsv_flattens_json(argv, lines):
    code, out = run([argv[0], "--output", "tsv", *argv[1:]])
    assert code == 0
    rows = [json.loads(line).values() for line in lines]
    assert out.splitlines() == ["\t".join(",".join(flatten(v)) for v in row) for row in rows]


def test_library_example():
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["eps"] == IMat2(2, 1, 1, 0)
    assert rmtorus.pi_index(namespace["eps"], 3) == 4
    assert rmtorus.fingerprint(namespace["theta"], [3])[0].group == AbelianGroup(1, 30)
    imported = re.search(r"from rmtorus import \((.*?)\)", block, re.S).group(1)
    exported = {
        name
        for name, value in vars(rmtorus).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == {name.strip() for name in imported.split(",") if name.strip()}


def test_mutant_count_is_current():
    killed, total = re.search(r"(\d+) of (\d+) today", README).groups()
    assert int(killed) == int(total) == len(mutants.MUTANTS)
