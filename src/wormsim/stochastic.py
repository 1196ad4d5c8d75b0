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

Randomness comes from numpy's counter-based Philox generator.  One rule,
_generators, keys every run of every sampler (run k by the seed plus k),
so each run is independently reproducible; runs go in key order.

Every patched run is one call of a block function, made by _run_patched:
_patched.c's wormsim_patched_block, which _native builds with the system
cc on the first patched run and loads through ctypes, or _block, its
statement-for-statement Python twin, where the C cannot be built or
loaded (no compiler, a read-only directory, no source), with the same
bytes out.

Seeded patched runs stay bit-identical only while this draw contract
holds, in both blocks: each event spends exactly two uniforms of the
run's stream, the holding time and then the event.  The C block draws
each through the bit generator's next_double, which Generator.random
fills through, so _block's gen.random fetches hold the same uniforms
whatever their sizes; it takes no lock, as each run owns its generator.
The holding time is -log1p(-u) / total with libm's log1p, which
math.log1p calls (array np.log1p differs in the last ulp on some
inputs).  Python floats follow the same IEEE-754 double arithmetic as
numpy float64 scalars and C doubles compiled without contraction or
fast-math.
Host counts are carried as floats: every count and the product S * I
are integers below 2**53 while n_hosts**2 <= 2**55 (N <= 189,812,531),
so each rate rounds exactly as the integer form does; simulate and
ensemble refuse a larger patched run.  A seeded undefended run likewise
draws all N - i0 holding times first, with standard_exponential (the
same values and stream position as exponential(1.0)); a detection
run's target or a scan-count run's Poisson counts come after them.
The holding times become jump times in place, only as far as the
horizon needs, so a run holds one float per host.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DefenseKind,
    ScenarioParams,
    Trajectory,
    TrajectorySource,
    _is_count,
    _is_positive,
    _require_defense,
    initial_state,
)
from .monitoring import _check_monitors


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
        if self.seed + self.runs > 2**128:  # the last run's Philox key must stay below 2**128
            raise ValueError("seed + runs must be at most 2**128")


@dataclass
class EnsembleResult:
    """Per-grid-point mean and spread over an ensemble of runs."""

    mean: Trajectory
    s_std: np.ndarray
    i_std: np.ndarray
    p_std: np.ndarray
    extinct_before_end: int


_DRAW_BLOCK = 16384  # the largest Python-block fetch and jump block; both grow to it from 64


def _check_exact_counts(params: ScenarioParams) -> None:
    """ValueError for a patched run too large for exact float host counts."""
    if params.defense is not DefenseKind.NO_PATCHING and int(params.n_hosts) ** 2 > 2**55:
        raise ValueError("a patched run counts hosts exactly only while n_hosts**2 <= 2**55, "
                         f"that is n_hosts <= 189812531 (got {params.n_hosts})")


def _rng(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def _generators(config: StochasticConfig):
    """Yield each run's generator in run order: run k draws from key seed + k."""
    for key in range(config.seed, config.seed + config.runs):
        yield _rng(key)


def _grid(config: StochasticConfig) -> np.ndarray:
    n_pts = int(math.floor(config.t_end_itu / config.sample_dt_itu + 1e-9)) + 1
    return np.arange(n_pts) * config.sample_dt_itu


def _infection_jumps(
    params: ScenarioParams, gen: np.random.Generator, horizon: float
) -> np.ndarray:
    """Jump times of the undefended worm at or before horizon, as a view of its draw.

    Draws all N - i0 holding times, so the stream ends where the full path
    leaves it, and turns them into jump times in place: 64 at first, twice
    as many in each later block up to _DRAW_BLOCK, until a block ends past
    the horizon.  A block starts from the last sum of the one before, so
    every time is the full path's cumsum, bit for bit.  I rises by 1 at each.
    """
    n, i0 = params.n_hosts, params.i0
    jumps = gen.standard_exponential(n - i0)
    # About i0 * e^t jumps fall before t, so at the ln ln N detection
    # deadline one block of 64 passes the horizon in most runs.
    done, size, last = 0, 64, 0.0
    while done < n - i0 and last <= horizon:
        block = jumps[done:done + size]
        levels = np.arange(i0 + done, i0 + done + len(block), dtype=float)
        block /= (n - levels) * levels / n  # the rates, bit for bit
        block[0] += last
        np.cumsum(block, out=block)
        last = block[-1]
        done += len(block)
        size = min(2 * size, _DRAW_BLOCK)
    return jumps[: np.searchsorted(jumps[:done], horizon, side="right")]


def _run_no_patch(params: ScenarioParams, gen, grid):
    jumps = _infection_jumps(params, gen, grid[-1])
    i = params.i0 + np.searchsorted(jumps, grid, side="right").astype(float)
    # All N - i0 jumps by the horizon: fully infected, nothing left to happen.
    halt = float(jumps[-1]) if len(jumps) == params.n_hosts - params.i0 else None
    return np.stack((params.n_hosts - i, i, np.zeros_like(i))), halt


def _uniforms(gen):
    """gen's uniforms in stream order, fetched as read: 64, then doubling up to _DRAW_BLOCK."""
    return itertools.chain.from_iterable(
        gen.random(min(64 << k, _DRAW_BLOCK)).tolist() for k in itertools.count())


def _block(st, n, g, pb, is_fixed, gen, grid, out_s, out_i, out_p):
    """_patched.c's wormsim_patched_block in Python, statement for statement."""
    g_n, g_pb = g / n, g * pb
    s, i, p, t = st[:4].tolist()
    grid = grid.tolist()
    n_pts = len(grid)
    gi = 0
    log1p = math.log1p
    draws = _uniforms(gen)
    for u_hold, u_event in zip(draws, draws):
        unpatched = s + i
        rate_infect = s * i / n
        if is_fixed:
            rate_patch = g_pb if unpatched >= pb else g * unpatched
        else:
            rate_patch = g_n * unpatched * p
        total = rate_infect + rate_patch
        if total <= 0.0:
            st[4] = t  # absorbed; state frozen
            t_next = math.inf
        else:
            t_next = t + -log1p(-u_hold) / total
        while gi < n_pts and grid[gi] < t_next:
            out_s[gi] = s
            out_i[gi] = i
            out_p[gi] = p
            gi += 1
        if gi == n_pts:
            break
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
    st[:4] = s, i, p, t


@functools.cache
def _patched_block():
    """_patched.c's wormsim_patched_block, called with a generator's next_double
    and state, or _block where it cannot be built or loaded; looked up once per
    process, on the first patched run, so a failed build is not retried."""
    import ctypes

    from . import _native

    run = _native.function("wormsim_patched_block")
    if run is None:
        return _block
    f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    next_double = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
    double = ctypes.c_double
    run.argtypes = [f64, double, double, double, ctypes.c_int32, next_double,
                    ctypes.c_void_p, f64, ctypes.c_int64, f64, f64, f64]
    run.restype = None

    def block(st, n, g, pb, is_fixed, gen, grid, out_s, out_i, out_p):
        bitgen = gen.bit_generator.ctypes
        run(st, n, g, pb, is_fixed, bitgen.next_double, bitgen.state, grid, len(grid),
            out_s, out_i, out_p)

    return block


def _run_patched(block, params: ScenarioParams, gen, grid):
    """One patched run: one call of block, which draws from gen as it goes."""
    st = np.array([*initial_state(params), 0.0, 0.0])  # s, i, p, t, halt
    sip = np.empty((3, len(grid)))
    block(st, float(params.n_hosts), float(params.gamma), float(params.p_bar),
          params.defense is DefenseKind.FIXED_SERVERS, gen, grid, *sip)
    halt = float(st[4])
    return sip, (halt if halt > 0.0 else None)


def _run(params: ScenarioParams, gen: np.random.Generator, grid: np.ndarray):
    if params.defense is DefenseKind.NO_PATCHING:
        return _run_no_patch(params, gen, grid)
    return _run_patched(_patched_block(), params, gen, grid)


def simulate(params: ScenarioParams, config: StochasticConfig) -> Trajectory:
    """One exact stochastic run, sampled on the configured grid.

    Identical (params, config) always produce a bit-identical
    trajectory; the run is run 0 of _generators(config).
    """
    _check_exact_counts(params)
    grid = _grid(config)
    (s, i, p), halt = _run(params, next(_generators(config)), grid)
    return Trajectory(
        t_itu=grid, s=s, i=i, p=p, params=params,
        source=TrajectorySource.STOCHASTIC_RUN, halt_itu=halt,
    )


def ensemble(params: ScenarioParams, config: StochasticConfig) -> EnsembleResult:
    """config.runs independent runs, one per generator of _generators(config).

    Returns the per-grid-point mean trajectory and two-pass standard
    deviation (population convention), plus how many runs end with I = 0
    at the last grid point.  The runs are held at once, in one array of
    runs * 3 * len(grid) floats (1.15 MB for 50 runs of 961 points) that
    the deviation is then computed in.  The runs go in key order in this
    process, so results depend only on (params, config), and never on
    which block ran.
    """
    _check_exact_counts(params)
    grid = _grid(config)
    runs = np.empty((config.runs, 3, len(grid)))
    for k, gen in enumerate(_generators(config)):
        runs[k] = _run(params, gen, grid)[0]
    extinct = int(np.count_nonzero(runs[:, 1, -1] == 0.0))
    mean = runs.sum(axis=0) / config.runs  # adds the runs in key order
    # runs.std(axis=0) bit for bit, without its copy of runs.
    runs -= mean
    runs *= runs
    std = np.sqrt(runs.sum(axis=0) / config.runs)
    mean_traj = Trajectory(
        t_itu=grid, s=mean[0], i=mean[1], p=mean[2], params=params,
        source=TrajectorySource.ENSEMBLE_MEAN,
    )
    return EnsembleResult(
        mean=mean_traj,
        s_std=std[0], i_std=std[1], p_std=std[2],
        extinct_before_end=extinct,
    )


# ---------------------------------------------------------------------------
# Network-telescope detection runs
# ---------------------------------------------------------------------------

def _segments(jumps: np.ndarray, i0: int):
    """Segments of I along a trimmed jump path: each one's start (0, then
    each jump), the level of I on it, and the integral of I up to its start."""
    starts = np.concatenate(([0.0], jumps))
    levels = i0 + np.arange(len(starts), dtype=float)
    areas = np.concatenate(([0.0], np.cumsum(levels[:-1] * np.diff(starts))))
    return starts, levels, areas


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
    _require_defense(params, DefenseKind.NO_PATCHING, "detection_sim")
    _check_monitors(params, monitors)
    c = monitors / params.n_hosts
    t_end = config.t_end_itu
    out = np.empty(config.runs)
    for k, gen in enumerate(_generators(config)):
        # Only jumps before the horizon enter the hazard before it.  Unnamed, the
        # path (a view of this run's whole draw) is freed before the next run draws.
        starts, levels, areas = _segments(
            _infection_jumps(params, gen, math.nextafter(t_end, 0.0)), params.i0)
        target = gen.standard_exponential()
        j = np.searchsorted(c * areas, target, side="right") - 1  # the hit's segment
        t_hit = starts[j] + (target - c * areas[j]) / (c * levels[j])
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
    _require_defense(params, DefenseKind.NO_PATCHING, "monitor_scan_counts")
    _check_monitors(params, monitors)
    grid = _grid(config)
    c = monitors / params.n_hosts
    counts = np.zeros((config.runs, len(grid)), dtype=np.int64)
    for k, gen in enumerate(_generators(config)):
        # Unnamed, as in detection_sim: starts[1:] are the jumps.
        starts, levels, areas = _segments(_infection_jumps(params, gen, grid[-1]), params.i0)
        seg = np.searchsorted(starts[1:], grid, side="right")
        hazard = c * (areas[seg] + levels[seg] * (grid - starts[seg]))
        counts[k, 1:] = np.cumsum(gen.poisson(np.diff(hazard)))
    return grid, counts
