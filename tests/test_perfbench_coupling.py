"""The benchmark's tracer replaces named attributes of the program's modules
and looks each one up with no default, so a rename in the program breaks
every traced benchmark run.  This guard reads perfbench/ and changes nothing
in it."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    pairs = tracing.target_attributes()
    assert pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not hasattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), attr)
    ]
    assert not missing, f"perfbench traces attributes the program lacks: {missing}"
