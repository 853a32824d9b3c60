"""The benchmark's tracer wraps functions by name (TRACED in
rmbench/spans.py); a rename in the package would crash a traced run, so
every name must resolve here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "rmbench" / "spans.py"


def traced():
    spec = importlib.util.spec_from_file_location("rmbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, name) for layer, names in module.TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", traced(), ids=lambda v: v)
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"rmtorus.{layer}")
    assert callable(getattr(module, name, None)), f"rmtorus.{layer}.{name}"
