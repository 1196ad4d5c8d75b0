"""Every demo script runs to completion against the package in src/ and
prints the text pinned in tests/data/demo_outputs.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "demo_outputs.json")


def demo_stdout(demo: Path, cwd) -> str:
    """What one demo prints when run from cwd against the package in src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Every number a demo prints is deterministic (its stochastic runs are
    # seeded), so its whole text is pinned.  Re-pin only for a deliberate
    # change, shown first with tests/data/capture.py --check.
    with open(DEMO_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert demo_stdout(demo, tmp_path) == golden[demo.stem]
