"""Byte-identity gate: outputs match the digests in perfbench/reference.json.

Runs all ten built-ins through ``cli.main`` in process, with the
arguments the benchmark's CLI workloads use at the default seed, and the
first reference items of the benchmark's in-process workloads (RK4 sweep
and telescope).  Any change to a CSV byte, a report.json byte or a
seeded in-process value fails here.  The benchmark's own helpers build
the arguments and compute the digests, so the two checks cannot drift.
"""

import importlib.util
import os

import pytest

from wormsim import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py")
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

REFERENCE = workloads.load_reference()
SEED = REFERENCE["seed"]
BUILTINS = [
    (workload, name)
    for workload in workloads.CLI_WORKLOADS
    for name in workloads.cli_names(workload)
]


@pytest.mark.parametrize("workload,name", BUILTINS, ids=[n for _w, n in BUILTINS])
def test_builtin_outputs_match_reference(workload, name, tmp_path):
    out_dir = str(tmp_path / "out")
    assert cli.main(workloads.cli_argv(workload, name, out_dir, SEED)) == 0
    assert workloads.check_cli_outputs(name, out_dir, {}) == REFERENCE["cli"][name]


@pytest.mark.parametrize("workload", sorted(workloads.INPROCESS))
def test_inprocess_items_match_reference(workload):
    make_inputs, run_item, check = workloads.INPROCESS[workload]
    inputs = make_inputs(SEED)
    digests = [
        check(inp, run_item(inp))
        for inp in map(inputs.get, range(workloads.REFERENCE_ITEMS))
    ]
    assert digests == REFERENCE[workload]
