"""The oracle rule of tests/reference.py: every public function that is not
an input generator (`random_*`) has a docstring starting with
`Checks <module>.<name>`, naming a real function of rmtorus, and never
references that name, either in its own body or in the body of any helper
of reference.py that it reaches."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REFERENCE = Path(__file__).with_name("reference.py")
CHECKS = re.compile(r"Checks (\w+)\.(\w+)\b")


def names_used(node: ast.AST) -> set[str]:
    """Every identifier and attribute name that node's code mentions; its
    docstring is text, not code."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def violations(source: str) -> list[str]:
    """Each way in which the functions of source break the oracle rule."""
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    found = []
    for name, node in functions.items():
        if name.startswith(("_", "random_")):
            continue
        match = CHECKS.match(ast.get_docstring(node) or "")
        if match is None:
            found.append(f"{name}: docstring does not start with 'Checks <module>.<name>'")
            continue
        module, checked = match.groups()
        try:
            target = getattr(importlib.import_module(f"rmtorus.{module}"), checked, None)
        except ImportError:
            target = None
        if not callable(target):
            found.append(f"{name}: rmtorus.{module}.{checked} does not exist")
        # the helpers of this file that the oracle reaches, itself included
        reached, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current in reached:
                continue
            reached.add(current)
            used = names_used(functions[current])
            if checked in used:
                found.append(f"{name}: {current} references {checked}, which {name} checks")
            todo += [n for n in used if n in functions]
    return found


def test_reference_keeps_the_rule():
    assert violations(REFERENCE.read_text(encoding="utf-8")) == []


def test_what_the_oracles_check():
    source = REFERENCE.read_text(encoding="utf-8")
    checked = {
        ".".join(m.groups())
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        for m in [CHECKS.match(ast.get_docstring(node) or "")]
        if m
    }
    assert checked == {
        "units.is_prime",
        "ecpoints.count_points",
        "intmat.cokernel_group",
        "intmat.matrix_A",
        "intmat.mat_mul",
        "quadratic.canonicalize",
        "quadratic.cf_expand",
        "quadratic._expand_cycle",
        "units.fundamental_unit",
        "units.pi_index",
        "freealg.normal_form",
        "skewlaurent.skew_mul",
        "skewlaurent.skew_star",
    }


@pytest.mark.parametrize(
    "source, message",
    [
        (
            'def fold(period):\n    """Checks intmat.matrix_A: one at a time."""\n'
            "    return matrix_A(period)\n",
            "fold references matrix_A",
        ),
        (
            'def fold(period):\n    """Checks intmat.matrix_A: through a helper."""\n'
            "    return _helper(period)\n\n\n"
            "def _helper(period):\n    return intmat.matrix_A(period)\n",
            "_helper references matrix_A",
        ),
        ('def fold(period):\n    """One at a time."""\n', "docstring does not start"),
        ('def fold(period):\n    """Checks intmat.no_such_name: x."""\n', "does not exist"),
    ],
    ids=["direct", "through-helper", "no-docstring", "unknown-name"],
)
def test_rule_catches_a_breach(source, message):
    assert any(message in v for v in violations(source)), violations(source)
