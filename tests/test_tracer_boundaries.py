"""The module bindings that perfbench's tracer wraps still exist in the
library, so a refactor that drops one fails here and not only in the
benchmark's own suite (which this suite does not collect)."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer(monkeypatch):
    """perfbench/tracer.py loaded without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_expected_boundaries_are_bound(monkeypatch):
    tracer = _tracer(monkeypatch)
    assert tracer.EXPECTED_BOUNDARIES
    for mod_name, name, layer in tracer.EXPECTED_BOUNDARIES:
        fn = getattr(importlib.import_module(f"hermsiegel.{mod_name}"), name, None)
        assert isinstance(fn, types.FunctionType), f"hermsiegel.{mod_name} no longer binds {name}"
        assert fn.__module__ == f"hermsiegel.{layer}", f"hermsiegel.{mod_name}.{name} comes from {fn.__module__}, not {layer}"
