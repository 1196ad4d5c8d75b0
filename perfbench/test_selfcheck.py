"""Self-check of the benchmark harness at a size that runs in well under a minute.

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED
SECONDS = 1.0


def _spec(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module")
def untraced():
    return {
        w: bench.run_workload(w, SEED, SECONDS, False, setup_samples=1)
        for w in workloads.WORKLOADS
    }


def test_every_end_to_end_metric_is_present_with_its_unit(untraced):
    spec = _spec("end_to_end")
    for workload, result in untraced.items():
        metrics = result["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == spec, workload
        assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)


def test_error_rate_is_zero_on_unchanged_code(untraced):
    for workload, result in untraced.items():
        assert result["attempted"] > 0, workload
        assert result["error_rate"] == 0, (workload, result["errors"])


def test_a_corrupted_digest_raises_error_rate():
    bad = copy.deepcopy(workloads.load_reference())
    bad["telescope"][1] = "0" * 64
    bad["cli"]["monitoring-slammer"]["report.json"] = "0" * 64
    for workload in ("telescope", "cli-fluid"):
        result = bench.run_workload(workload, SEED, 0.5, False, reference=bad, setup_samples=1)
        assert result["error_rate"] > 0, workload
        assert any("digest differs" in e for e in result["errors"]), result["errors"]


@pytest.mark.parametrize("workload", ["cli-fluid", "telescope"])
def test_traced_spans_nest_and_self_times_fit_in_wall_time(workload):
    result = bench.run_workload(workload, SEED, SECONDS, True)
    assert result["error_rate"] == 0, result["errors"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _spec("per_layer")
    spans = result["spans"]
    assert spans
    tracing.check_nesting(spans)
    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    assert sum(own) <= result["traced_wall_s"]
