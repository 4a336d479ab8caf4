"""The benchmark's tracer replaces named attributes of the program's modules
and looks each one up with no default, so a rename in the program breaks
every traced benchmark run.  Its layer probes call the program directly and
fill every metric the traced passes leave empty.  These guards read
perfbench/ and change nothing in it."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _import_perfbench(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


tracing = _import_perfbench("tracing")
layers = _import_perfbench("layers")

# layers binds `from sphefaffian import pfaffian as pfaffian_mod`, which is the
# function the package re-exports under the module's name, not the module
_PFAFFIAN_PROBE = pytest.mark.xfail(
    strict=True, raises=AttributeError,
    reason="perfbench/layers.py probes pfaffian_mod.pfaffian on the function")


def test_every_traced_attribute_exists():
    pairs = tracing.target_attributes()
    assert pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not hasattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), attr)
    ]
    assert not missing, f"perfbench traces attributes the program lacks: {missing}"


@pytest.mark.parametrize("probe", [
    pytest.param(key, marks=_PFAFFIAN_PROBE) if key == "pfaffian" else key
    for key in layers.PROBES
])
def test_every_layer_probe_measures_its_metrics(probe, tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        layers.PROBES[probe](str(tmp_path))
    names = [(name, layers._measure(rule, source, tag, tracer, 1, ()))
             for name, rule, source, tag, key in layers.SPEC if key == probe]
    assert names, f"no metric uses probe {probe}"
    missing = [name for name, value in names if value is None]
    assert not missing, f"probe {probe} leaves {missing} unmeasured"
