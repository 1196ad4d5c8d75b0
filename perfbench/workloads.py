"""Inputs, items and output checks of the four benchmark workloads.

Program functions are always looked up as attributes of the ``wormsim``
package at call time, so that the traced run (see ``tracing.py``) sees
the wrapped versions.  The check helpers below are bound at import and
therefore never traced.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

import wormsim
from wormsim.core import (
    DefenseKind,
    ScenarioParams,
    Trajectory,
    TrajectorySource,
    validate_trajectory,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_PATH = os.path.join(ROOT, "perfbench", "reference.json")

# The built-ins' own stochastic seed; reference digests are recorded here.
DEFAULT_SEED = 12345

CLI_FLUID = (
    "codered-nopatch",
    "codered-fixed",
    "codered-p2p-g1",
    "codered-p2p-g2",
    "slammer-nopatch",
    "monitoring-slammer",
    "monitoring-ipv4",
)
CLI_STOCHASTIC = ("codered-nopatch-desk", "codered-fixed-desk", "codered-p2p-g2-desk")

# cli-stochastic runs the p2p desk ensemble with 5 runs instead of the
# built-in 50.  At 50 runs that call takes ~8 s, a pass ~10 s, and a run
# would hold two or three samples of each scenario: too few for a steady
# median on a CPU whose speed halves for seconds at a time.  At 5 runs
# the call costs about what the fixed-desk call costs (~1.3 s), so half
# of all items are patched ensembles of similar size.  Runs 0-4 are the
# built-in's first five runs, keyed by the same seeds.
CLI_OVERRIDES = {"codered-p2p-g2-desk": ["--set", "stochastic.runs=5"]}

# The cheapest item of each CLI workload, run untimed as its warm-up.
CLI_WARMUP = {"cli-fluid": "monitoring-slammer", "cli-stochastic": "codered-nopatch-desk"}

CLI_WORKLOADS = ("cli-fluid", "cli-stochastic")
INPROCESS_WORKLOADS = ("rk4-sweep", "telescope")
WORKLOADS = CLI_WORKLOADS + INPROCESS_WORKLOADS

# rk4-sweep: the draw and horizon rule of the unimodality acceptance
# test, with one addition.  Uncapped, a fixed-servers draw can request
# up to 8e7 RK4 steps (over two minutes) and a 20-draw sample's cost
# swings by more than 30% from seed to seed, so draws whose horizon
# exceeds RK4_MAX_T_ITU are redrawn.  One item then costs at most
# 10 000 steps.
RK4_DT = 0.005
RK4_MAX_T_ITU = 50.0
RK4_BLOCK = 256  # items per lazily generated input block

# telescope: Slammer scale, thumb-rule telescope, ln ln N deadline.
TELESCOPE_N = 85000
TELESCOPE_M = 7489

# Reference digests cover this many items of each in-process workload.
REFERENCE_ITEMS = 64


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return seed


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def cli_names(workload: str) -> tuple:
    return CLI_FLUID if workload == "cli-fluid" else CLI_STOCHASTIC


def cli_pass_orders(workload: str, seed: int):
    """Endless seeded shuffles of the workload's scenarios, one per pass."""
    rng = random.Random(check_seed(seed))
    names = list(cli_names(workload))
    while True:
        rng.shuffle(names)
        yield list(names)


def cli_argv(workload: str, name: str, out_dir: str, seed: int) -> list:
    argv = ["run", "--config", name, "--out", out_dir]
    if workload == "cli-stochastic":
        argv += ["--seed", str(seed)] + CLI_OVERRIDES.get(name, [])
    return argv


_SOURCES = {
    "closed_form": TrajectorySource.CLOSED_FORM,
    "integrate": TrajectorySource.INTEGRATED,
    "stochastic": TrajectorySource.ENSEMBLE_MEAN,
}


def check_cli_outputs(name: str, out_dir: str, validated: dict) -> dict:
    """Digest every file one ``wormsim run`` wrote and check its invariants.

    Returns {file name: sha256}.  Raises ValueError when a file is
    missing or extra, report.json names another scenario, or a CSV
    fails ``validate_trajectory``.  ``validated`` caches digests whose
    CSV already passed, since equal bytes give equal verdicts.
    """
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("scenario") != name:
        raise ValueError(f"report.json names scenario {report.get('scenario')!r}")
    engines = list(report["engines"])
    expected = {f"{name}_{engine}.csv" for engine in engines} | {"report.json"}
    present = set(os.listdir(out_dir))
    if present != expected:
        raise ValueError(f"output files {sorted(present)} != {sorted(expected)}")
    raw = report["params"]
    params = ScenarioParams(
        n_hosts=raw["n_hosts"],
        virulence=raw["virulence_per_unit"],
        i0=raw["i0"],
        defense=DefenseKind(raw["defense"]),
        gamma=raw["gamma"],
        p_bar=raw["p_bar"],
    )
    digests = {}
    for fname in sorted(present):
        path = os.path.join(out_dir, fname)
        digest = sha256_file(path)
        digests[fname] = digest
        if fname == "report.json" or digest in validated:
            continue
        engine = fname[len(name) + 1 : -len(".csv")]
        cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        validate_trajectory(
            Trajectory(
                t_itu=cols[:, 0], s=cols[:, 2], i=cols[:, 3], p=cols[:, 4],
                params=params, source=_SOURCES[engine],
            )
        )
        validated[digest] = True
    return digests


def cli_reference(reference: dict, workload: str, seed: int, name: str) -> dict:
    """Reference digests that must hold for this scenario at this seed.

    Every file is covered at the default seed, and on cli-fluid, whose
    calls take no seed.  At another seed the stochastic CSV and report.json
    change, but the fluid engines' CSVs do not depend on the seed.
    """
    files = reference["cli"][name]
    if workload == "cli-fluid" or seed == reference["seed"]:
        return dict(files)
    return {
        fname: digest
        for fname, digest in files.items()
        if fname.endswith(("_closed_form.csv", "_integrate.csv"))
    }


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

class Rk4Inputs:
    """Seeded patched scenarios, alternating fixed servers and peer-to-peer.

    Item j lives in block j // RK4_BLOCK, drawn from its own stream
    (seed, block, defense), so items are generated lazily and any item
    can be rebuilt from (seed, j) alone.
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self.blocks = {}

    def _draw(self, block: int, defense: DefenseKind, count: int) -> list:
        code = 0 if defense is DefenseKind.FIXED_SERVERS else 1
        rng = np.random.default_rng([self.seed, block, code])
        out = []
        while len(out) < count:
            size = 4 * count
            n = np.rint(10.0 ** rng.uniform(3.0, 6.0, size)).astype(np.int64)
            gamma = rng.uniform(0.5, 4.0, size)
            p_bar = rng.integers(5, 101, size)
            i0 = rng.integers(1, 101, size)
            for k in range(size):
                params = ScenarioParams(
                    n_hosts=int(n[k]), virulence=1.0, i0=int(i0[k]),
                    defense=defense, gamma=float(gamma[k]), p_bar=int(p_bar[k]),
                )
                t_end = rk4_horizon(params)
                if t_end <= RK4_MAX_T_ITU:
                    out.append((params, t_end))
                    if len(out) == count:
                        break
        return out

    def get(self, j: int):
        block, k = divmod(j, RK4_BLOCK)
        if block not in self.blocks:
            half = RK4_BLOCK // 2
            fixed = self._draw(block, DefenseKind.FIXED_SERVERS, half)
            p2p = self._draw(block, DefenseKind.PEER_TO_PEER, half)
            self.blocks[block] = [x for pair in zip(fixed, p2p) for x in pair]
        return self.blocks[block][k]


def rk4_horizon(params: ScenarioParams) -> float:
    """Horizon rule of the unimodality acceptance test."""
    if params.defense is DefenseKind.FIXED_SERVERS:
        return (
            wormsim.fixed_extinction_time(params).itu
            + math.log(4.0 * params.p_bar) / (0.8 * params.gamma)
            + 2.0
        )
    return wormsim.p2p_extinction_time(params).itu * 1.3 + 2.0


def rk4_item(inp):
    params, t_end = inp
    stride = max(1, int(math.ceil(t_end / RK4_DT / 800.0)))
    traj = wormsim.integrate(
        params,
        wormsim.IntegratorConfig(t_end_itu=t_end, dt_itu=RK4_DT, sample_stride=stride),
    )
    return traj, wormsim.trajectory_peak(traj)


def rk4_check(inp, out) -> str:
    """Digest of one rk4-sweep output after its invariants hold."""
    traj, (peak_time, peak_value) = out
    validate_trajectory(traj)
    if traj.halt_itu is None:
        raise ValueError("run did not halt before its horizon")
    signs = np.sign(np.diff(traj.i))
    signs = signs[signs != 0]
    flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
    if not (len(signs) and flips == 1 and signs[0] > 0 and signs[-1] < 0):
        raise ValueError(f"infection curve is not unimodal ({flips} turns)")
    h = hashlib.sha256()
    for arr in (traj.t_itu, traj.s, traj.i, traj.p):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(repr((traj.halt_itu, peak_time.itu, peak_value)).encode())
    return h.hexdigest()


class TelescopeInputs:
    """Item j is the detection run keyed seed * 10**6 + j."""

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self.params = ScenarioParams(
            n_hosts=TELESCOPE_N, virulence=1.5, i0=1, defense=DefenseKind.NO_PATCHING
        )
        monitors = wormsim.thumb_rule_monitors(TELESCOPE_N, DefenseKind.FIXED_SERVERS)
        if monitors != TELESCOPE_M:
            raise ValueError(f"thumb rule gives {monitors} monitors, not {TELESCOPE_M}")
        self.monitors = monitors
        self.deadline = math.log(math.log(TELESCOPE_N))

    def get(self, j: int):
        config = wormsim.StochasticConfig(
            t_end_itu=self.deadline, seed=self.seed * 10**6 + j, runs=1
        )
        return self.params, self.monitors, config


def telescope_item(inp):
    params, monitors, config = inp
    hits = wormsim.detection_sim(params, monitors, config)
    grid, counts = wormsim.monitor_scan_counts(params, monitors, config)
    return hits, grid, counts


def telescope_check(inp, out) -> str:
    """Digest of one telescope output after its invariants hold."""
    _params, _monitors, config = inp
    hits, grid, counts = out
    if hits.shape != (1,) or not (0.0 < hits[0] <= config.t_end_itu or np.isinf(hits[0])):
        raise ValueError(f"first hit {hits} outside (0, deadline] and not inf")
    if counts.shape != (1, len(grid)) or counts[0, 0] != 0:
        raise ValueError("scan counts have the wrong shape or do not start at 0")
    if np.any(np.diff(counts, axis=1) < 0):
        raise ValueError("cumulative scan counts decrease")
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(hits, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(grid, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(counts, dtype="<i8").tobytes())
    return h.hexdigest()


INPROCESS = {
    "rk4-sweep": (Rk4Inputs, rk4_item, rk4_check),
    "telescope": (TelescopeInputs, telescope_item, telescope_check),
}
