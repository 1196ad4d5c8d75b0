"""Record the reference digests the benchmark checks at its default seed.

    python3 perfbench/record_reference.py

Runs all ten built-ins through ``wormsim run`` exactly as the CLI
workloads call them at the default seed, and the first items of
rk4-sweep and telescope, then writes the sha256 of every output to
perfbench/reference.json.  Re-record only in a change that alters
outputs on purpose, and say so in that change.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out_dir = os.path.join(HERE, "out", "reference")
    reference = {"seed": seed, "cli": {}}
    for workload in workloads.CLI_WORKLOADS:
        for name in workloads.cli_names(workload):
            shutil.rmtree(out_dir, ignore_errors=True)
            argv = workloads.cli_argv(workload, name, out_dir, seed)
            subprocess.run([sys.executable, "-m", "wormsim.cli"] + argv, cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True)
            reference["cli"][name] = workloads.check_cli_outputs(name, out_dir, {})
    shutil.rmtree(out_dir, ignore_errors=True)
    for workload, (make_inputs, run_item, check) in workloads.INPROCESS.items():
        inputs = make_inputs(seed)
        reference[workload] = [
            check(inp, run_item(inp))
            for inp in map(inputs.get, range(workloads.REFERENCE_ITEMS))
        ]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
