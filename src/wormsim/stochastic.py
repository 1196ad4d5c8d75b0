"""Exact stochastic (continuous-time Markov chain) worm simulation.

Events are competing exponential clocks on integer host counts:

  * infection at total rate S*I/N,
  * fixed-servers patching at rate gamma * min(p_bar, S + I),
  * peer-to-peer patching at rate (gamma/N) * (S + I) * P,

with each patch landing on an infected host with probability I/(S+I).
A run records its state on a fixed sampling grid; between events the
state is constant, and an absorbed run (no clock can fire again) holds
its final state until the horizon.

For the undefended worm the jump chain is deterministic (every event is
an infection), so runs reduce to a cumulative sum of exponential
holding times and are generated vectorized.  Monitor-hit processes are
sampled exactly from their conditional law given the infection path:
hits form a Poisson process whose intensity is (M/N) * I(t), so first
hits come from inverting the cumulative hazard and hit counts from
independent Poisson increments.

Randomness comes from numpy's counter-based Philox generator; run k of
an ensemble uses key seed + k, making every run independently
reproducible and the ensemble independent of execution order.  A
patched ensemble of two or more runs and at least 100,000 host-runs
(runs * N) therefore spreads its runs over forked worker processes, one
per usable CPU, when the platform can fork and the caller is neither a
daemonic pool worker nor multi-threaded; results are collected in key
order, so they never depend on the split.

Seeded patched runs stay bit-identical only while this draw contract
holds: each event spends exactly two uniforms of the run's stream, the
holding time and then the event, drawn in blocks of 16384 (even, so no
pair straddles two blocks); the holding time is -math.log1p(-u) / total
(array np.log1p differs in the last ulp on some inputs).  Python floats
follow the same IEEE-754 double arithmetic as numpy float64 scalars.
Host counts are carried as floats: every count and the product S * I
are integers below 2**53 (N up to ~1.9e8), so each rate rounds exactly
as the integer form does.  A seeded undefended run likewise draws all
N - i0 holding times first, with standard_exponential (the same values
and stream position as exponential(1.0)); a detection run's target or
a scan-count run's Poisson counts come after them.  Jump times are
summed only as far as the horizon needs.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    DefenseKind,
    ScenarioParams,
    Trajectory,
    TrajectorySource,
    _is_count,
    _is_positive,
)


@dataclass(frozen=True)
class StochasticConfig:
    """Horizon, sampling grid and RNG seeding (ITU); a bad setting raises ValueError."""

    t_end_itu: float
    seed: int
    sample_dt_itu: float = 0.05
    runs: int = 1

    def __post_init__(self):
        if not _is_positive(self.t_end_itu):
            raise ValueError("t_end_itu must be positive")
        if not _is_positive(self.sample_dt_itu):
            raise ValueError("sample_dt_itu must be positive")
        if not _is_count(self.runs) or self.runs < 1:
            raise ValueError("runs must be an integer >= 1")
        if not _is_count(self.seed) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.seed + self.runs > 2**128:  # Philox keys seed + k must stay below 2**128
            raise ValueError("seed + runs must be at most 2**128")


@dataclass
class EnsembleResult:
    """Per-grid-point mean and spread over an ensemble of runs."""

    mean: Trajectory
    s_std: np.ndarray
    i_std: np.ndarray
    p_std: np.ndarray
    extinct_before_end: int


# About N events per patched run at 0.2-0.4 us each; a pool takes 8-20 ms to
# create, run 50 trivial tasks and tear down, so smaller ensembles run here.
_POOL_MIN_HOST_RUNS = 100_000


def _rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def _grid(config: StochasticConfig) -> np.ndarray:
    n_pts = int(math.floor(config.t_end_itu / config.sample_dt_itu + 1e-9)) + 1
    return np.arange(n_pts) * config.sample_dt_itu


def _infection_jumps(
    params: ScenarioParams, gen: np.random.Generator, horizon: float
) -> np.ndarray:
    """Jump times of the undefended worm: I rises by 1 at each entry.

    Draws all N - i0 holding times, so the stream ends where it would
    for the full path whatever the horizon.  Returns a prefix of the
    full jump path whose last jump lies past horizon, or, when no such
    prefix is shorter, the full path.  Either way every jump at or
    before horizon is in it.
    """
    n, i0 = params.n_hosts, params.i0
    holds = gen.standard_exponential(n - i0)
    # About i0 * e^t jumps fall before t, so at the ln ln N detection
    # deadline 64 jumps pass the horizon in all but ~0.3% of runs.
    m = min(n - i0, 64)
    while True:
        levels = np.arange(i0, i0 + m, dtype=float)
        jumps = n - levels
        jumps *= levels
        jumps /= n  # the rates levels * (n - levels) / n, bit for bit
        np.divide(holds[:m], jumps, out=jumps)
        np.cumsum(jumps, out=jumps)
        if jumps[-1] > horizon or m == n - i0:
            return jumps
        m = n - i0


def _run_no_patch(params: ScenarioParams, gen, grid):
    jumps = _infection_jumps(params, gen, grid[-1])
    i = params.i0 + np.searchsorted(jumps, grid, side="right").astype(float)
    halt = None
    if len(jumps) and jumps[-1] <= grid[-1]:
        halt = float(jumps[-1])  # fully infected: nothing left to happen
    return np.stack((params.n_hosts - i, i, np.zeros_like(i))), halt


def _run_patched(params: ScenarioParams, gen, grid):
    n = float(params.n_hosts)
    g = params.gamma
    pb = float(params.p_bar)
    g_n = g / n
    g_pb = g * pb
    is_fixed = params.defense is DefenseKind.FIXED_SERVERS
    i = float(params.i0)
    s = n - i - pb
    p = pb
    n_pts = len(grid)
    out_s, out_i, out_p = sip = np.empty((3, n_pts))
    grid = grid.tolist()
    gi = 0
    next_grid = grid[0]
    t = 0.0
    log1p = math.log1p
    halt = None
    while True:
        draws = iter(gen.random(16384).tolist())
        for u_hold, u_event in zip(draws, draws):
            unpatched = s + i
            rate_infect = s * i / n
            if is_fixed:
                rate_patch = g_pb if unpatched >= pb else g * unpatched
            else:
                rate_patch = g_n * unpatched * p
            total = rate_infect + rate_patch
            if total <= 0.0:
                halt = t if t > 0.0 else None  # absorbed; state frozen
                t_next = math.inf
            else:
                t_next = t + -log1p(-u_hold) / total
            if next_grid < t_next:
                while gi < n_pts and grid[gi] < t_next:
                    out_s[gi] = s
                    out_i[gi] = i
                    out_p[gi] = p
                    gi += 1
                if gi == n_pts:  # equivalently t_next > grid[-1]
                    return sip, halt
                next_grid = grid[gi]
            t = t_next
            # One uniform picks the event and, for patches, the target:
            # conditional on landing in the patch band, the offset is again
            # uniform, so it reuses cleanly for the infected/susceptible split.
            u = u_event * total
            if u < rate_infect:
                s -= 1.0
                i += 1.0
            else:
                v = (u - rate_infect) / rate_patch * unpatched
                if v < i:
                    i -= 1.0
                else:
                    s -= 1.0
                p += 1.0


def _run(params: ScenarioParams, run_key: int, grid: np.ndarray):
    gen = _rng(run_key)
    if params.defense is DefenseKind.NO_PATCHING:
        return _run_no_patch(params, gen, grid)
    return _run_patched(params, gen, grid)


def simulate(params: ScenarioParams, config: StochasticConfig) -> Trajectory:
    """One exact stochastic run, sampled on the configured grid.

    Identical (params, config) always produce a bit-identical
    trajectory; the run is driven by Philox key config.seed.
    """
    grid = _grid(config)
    (s, i, p), halt = _run(params, config.seed, grid)
    return Trajectory(
        t_itu=grid, s=s, i=i, p=p, params=params,
        source=TrajectorySource.STOCHASTIC_RUN, halt_itu=halt,
    )


def _runs(params: ScenarioParams, config: StochasticConfig, grid: np.ndarray):
    """Yield each run's (S, I, P rows on the grid, halt) in key order.

    Large patched ensembles of two or more runs fork one worker per
    usable CPU; a worker that is free takes the next run, and imap
    hands results back in key order, holding only the runs in flight.
    """
    keys = range(config.seed, config.seed + config.runs)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, config.runs)
    if (
        params.defense is not DefenseKind.NO_PATCHING
        and config.runs * params.n_hosts >= _POOL_MIN_HOST_RUNS
        and workers >= 2
    ):
        import multiprocessing
        import threading

        # Forked workers start without re-importing numpy, but a fork
        # is only safe from a single-threaded process, and a daemonic
        # pool worker may not have children at all.
        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
            and threading.active_count() == 1
        ):
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(workers) as pool:
                yield from pool.imap(functools.partial(_run, params, grid=grid), keys)
            return
    for key in keys:
        yield _run(params, key, grid)


def ensemble(params: ScenarioParams, config: StochasticConfig) -> EnsembleResult:
    """config.runs independent runs driven by keys seed, seed+1, ...

    Returns the per-grid-point mean trajectory and two-pass standard
    deviation (population convention), plus how many runs end with I = 0
    at the last grid point.  The runs are held at once: runs * 3 *
    len(grid) floats, 1.15 MB for 50 runs of 961 points.  Patched
    ensembles of at least 100,000 host-runs (runs * N) fork one worker
    per usable CPU; undefended ensembles always run in this process.
    Results depend only on (params, config), never on the split or the
    order runs complete.
    """
    grid = _grid(config)
    runs = np.empty((config.runs, 3, len(grid)))
    for k, (sip, _) in enumerate(_runs(params, config, grid)):
        runs[k] = sip
    mean = runs.sum(axis=0) / config.runs  # adds the runs in key order
    std = runs.std(axis=0)
    mean_traj = Trajectory(
        t_itu=grid, s=mean[0], i=mean[1], p=mean[2], params=params,
        source=TrajectorySource.ENSEMBLE_MEAN,
    )
    return EnsembleResult(
        mean=mean_traj,
        s_std=std[0], i_std=std[1], p_std=std[2],
        extinct_before_end=int(np.count_nonzero(runs[:, 1, -1] == 0.0)),
    )


# ---------------------------------------------------------------------------
# Network-telescope detection runs
# ---------------------------------------------------------------------------

def _check_monitors(params: ScenarioParams, monitors: int) -> None:
    if params.defense is not DefenseKind.NO_PATCHING:
        raise ValueError("detection runs model the undefended worm only")
    if not _is_count(monitors):
        raise ValueError("monitors must be an integer")
    if not 1 <= monitors <= params.n_hosts:
        raise ValueError("monitors must satisfy 1 <= monitors <= n_hosts")


def _hazard_at(times, jumps, i0, c):
    """Cumulative monitor-hit hazard c * integral of I over [0, t].

    I is piecewise constant, rising by 1 at each jump; the integral is
    evaluated exactly at each requested time.
    """
    # Integral of I at each jump time.
    levels = i0 + np.arange(len(jumps) + 1, dtype=float)  # I on each segment
    seg_starts = np.concatenate(([0.0], jumps))
    area_at_start = np.concatenate(
        ([0.0], np.cumsum(levels[:-1] * np.diff(seg_starts)))
    )
    idx = np.searchsorted(jumps, times, side="right")
    area = area_at_start[idx] + levels[idx] * (times - seg_starts[idx])
    return c * area


def detection_sim(
    params: ScenarioParams, monitors: int, config: StochasticConfig
) -> np.ndarray:
    """First monitor-hit time for each of config.runs undefended runs.

    Every infected host scans at rate 1 per ITU and each scan lands on
    the monitored set with probability monitors/N, so hits arrive at
    rate (monitors/N) * I(t).  The first hit is sampled exactly by
    inverting the cumulative hazard along the simulated infection path.
    Runs with no hit before the horizon report inf.
    """
    _check_monitors(params, monitors)
    c = monitors / params.n_hosts
    t_end = config.t_end_itu
    out = np.empty(config.runs)
    for k in range(config.runs):
        gen = _rng(config.seed + k)
        jumps = _infection_jumps(params, gen, t_end)
        target = gen.standard_exponential()
        # Jumps at or past the horizon never enter the hazard before it.
        jumps_in = jumps[: np.searchsorted(jumps, t_end, side="left")]
        h_jumps = _hazard_at(jumps_in, jumps_in, params.i0, c)
        j = int(np.searchsorted(h_jumps, target, side="right"))
        seg_start = 0.0 if j == 0 else float(jumps_in[j - 1])
        h_start = 0.0 if j == 0 else float(h_jumps[j - 1])
        level = params.i0 + j
        t_hit = seg_start + (target - h_start) / (c * level)
        out[k] = t_hit if t_hit <= t_end else np.inf
    return out


def monitor_scan_counts(
    params: ScenarioParams, monitors: int, config: StochasticConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative monitor-hit counts on the sampling grid, per run.

    Returns (grid, counts) with counts shaped (runs, len(grid)).  Hit
    counts over disjoint intervals are independent Poisson variables
    with mean equal to the hazard increment, sampled exactly.
    """
    _check_monitors(params, monitors)
    grid = _grid(config)
    c = monitors / params.n_hosts
    counts = np.zeros((config.runs, len(grid)), dtype=np.int64)
    for k in range(config.runs):
        gen = _rng(config.seed + k)
        jumps = _infection_jumps(params, gen, grid[-1])
        jumps_in = jumps[: np.searchsorted(jumps, grid[-1], side="right")]
        hazard = _hazard_at(grid, jumps_in, params.i0, c)
        hits = gen.poisson(np.diff(hazard))
        counts[k, 1:] = np.cumsum(hits)
    return grid, counts
