"""The benchmark's tracer times wormsim functions by name; they must exist.

``perfbench/tracing.py`` wraps every public function of each layer module
and reads its per-layer metrics from spans named ``<layer>.<function>``.
A name that no longer exists is never traced, so its metric reads 0
instead of failing.  This test names each function those metrics read.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TIMED = sorted(set(tracing.COUNTERS) | {
    "cli.build_report",
    "cli.write_report_json",
    "cli.load_config",
    "cli.apply_override",
    "cli.resolve_scenario",
    "fluid.closed_form_trajectory",
})


@pytest.mark.parametrize("name", TIMED)
def test_traced_name_is_public_layer_function(name):
    layer, attr = name.split(".")
    assert layer in tracing.LAYERS
    # import_module returns the module even where the package rebinds the name.
    module = importlib.import_module(f"wormsim.{layer}")
    obj = vars(module).get(attr)
    assert not attr.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
