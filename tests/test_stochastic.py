"""Exact-jump stochastic simulation, ensembles, and detection sampling."""

import copy
import math
import multiprocessing
import os

import numpy as np
import pytest

from wormsim import fluid, stochastic
from wormsim.core import DefenseKind, ScenarioError, ScenarioParams, TrajectorySource
from wormsim.integrate import IntegratorConfig, integrate
from wormsim.stochastic import (
    StochasticConfig,
    detection_sim,
    ensemble,
    monitor_scan_counts,
    simulate,
)


# --- configuration ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(t_end_itu=0.0, seed=1), "t_end_itu"),
        (dict(t_end_itu=5.0, seed=1, sample_dt_itu=0.0), "sample_dt_itu"),
        (dict(t_end_itu=5.0, seed=1, runs=0), "runs"),
        (dict(t_end_itu=5.0, seed=-1), "seed"),
        (dict(t_end_itu=5.0, seed=1, runs=True), "runs"),
        (dict(t_end_itu=5.0, seed=True), "seed"),
        (dict(t_end_itu="5", seed=1), "t_end_itu"),
        (dict(t_end_itu=5.0, seed=1, sample_dt_itu=None), "sample_dt_itu"),
        (dict(t_end_itu=5.0, seed=1, runs=2.0), "runs"),
        (dict(t_end_itu=5.0, seed="1"), "seed"),
        (dict(t_end_itu=5.0, seed=2**128 - 1, runs=2), "seed"),
    ],
)
def test_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        StochasticConfig(**kwargs)


def test_config_accepts_keys_up_to_philox_bound():
    # Runs are keyed seed .. seed + runs - 1; the last key below 2**128 is valid.
    config = StochasticConfig(t_end_itu=5.0, seed=2**128 - 3, runs=3)
    assert (config.seed, config.runs) == (2**128 - 3, 3)


@pytest.mark.parametrize(
    "call",
    [
        simulate,
        ensemble,
        lambda params, cfg: detection_sim(params, 10, cfg),
        lambda params, cfg: monitor_scan_counts(params, 10, cfg),
        lambda params, cfg: integrate(params, IntegratorConfig(cfg.t_end_itu)),
        lambda params, cfg: fluid.closed_form_trajectory(params, [0.0, cfg.t_end_itu]),
    ],
    ids=[
        "simulate", "ensemble", "detection_sim", "monitor_scan_counts",
        "integrate", "closed_form_trajectory",
    ],
)
def test_entry_points_validate_params(call):
    # Invalid params cannot be built, so no entry point ever receives them.
    with pytest.raises(ScenarioError, match="i0 \\+ p_bar"):
        params = ScenarioParams(
            n_hosts=100, virulence=1.0, i0=101, defense=DefenseKind.NO_PATCHING
        )
        call(params, StochasticConfig(t_end_itu=2.0, seed=0))


# --- single runs --------------------------------------------------------


def test_same_seed_reproduces_run(desk_fixed):
    cfg = StochasticConfig(t_end_itu=20.0, seed=42)
    a = simulate(desk_fixed, cfg)
    b = simulate(desk_fixed, cfg)
    assert np.array_equal(a.i, b.i)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.p, b.p)
    assert a.source is TrajectorySource.STOCHASTIC_RUN


def test_different_seeds_differ(desk_fixed):
    a = simulate(desk_fixed, StochasticConfig(t_end_itu=20.0, seed=42))
    b = simulate(desk_fixed, StochasticConfig(t_end_itu=20.0, seed=43))
    assert not np.array_equal(a.i, b.i)


def test_counts_are_integers_and_conserved(desk_fixed):
    traj = simulate(desk_fixed, StochasticConfig(t_end_itu=20.0, seed=42))
    assert np.all(traj.i == np.round(traj.i))
    assert np.all(traj.s == np.round(traj.s))
    # conservation is exact for jump-process counts, not approximate
    assert np.all(traj.s + traj.i + traj.p == 10000.0)


def test_no_patch_run_saturates():
    params = ScenarioParams(
        n_hosts=500, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )
    traj = simulate(params, StochasticConfig(t_end_itu=40.0, seed=1))
    assert np.all(np.diff(traj.i) >= 0)
    assert traj.i[-1] == 500.0
    assert traj.halt_itu == pytest.approx(13.6055, abs=1e-3)
    assert np.all(traj.p == 0.0)


def test_patched_run_monotone_flows():
    params = ScenarioParams(
        n_hosts=300, virulence=1.0, i0=3,
        defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=5,
    )
    traj = simulate(params, StochasticConfig(t_end_itu=12.0, seed=9))
    assert np.all(np.diff(traj.s) <= 0)
    assert np.all(np.diff(traj.p) >= 0)
    assert np.all(np.diff(traj.i + traj.p) >= 0)
    assert traj.i[-1] == 0.0
    assert traj.halt_itu is not None


def test_sampling_grid_spacing(desk_fixed):
    traj = simulate(desk_fixed, StochasticConfig(t_end_itu=2.0, seed=0, sample_dt_itu=0.25))
    np.testing.assert_allclose(traj.t_itu, np.arange(9) * 0.25)


# --- ensembles ----------------------------------------------------------


def test_ensemble_mean_is_run_average():
    params = ScenarioParams(
        n_hosts=300, virulence=1.0, i0=3,
        defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=5,
    )
    res = ensemble(params, StochasticConfig(t_end_itu=12.0, seed=9, runs=3))
    stack = np.stack(
        [
            simulate(params, StochasticConfig(t_end_itu=12.0, seed=9 + k)).i
            for k in range(3)
        ]
    )
    assert np.array_equal(res.mean.i, stack.sum(axis=0) / 3.0)
    assert np.allclose(res.i_std, stack.std(axis=0), atol=1e-10)
    assert res.extinct_before_end == 3
    assert res.mean.source is TrajectorySource.ENSEMBLE_MEAN


@pytest.mark.parametrize("offset", [1e7, 1e8])
def test_ensemble_spread_holds_at_large_counts(monkeypatch, offset):
    # 50 runs at one count, one of them a host higher: the population std
    # is sqrt(0.02 * 0.98) = 0.14 however large the count.
    def runs(params, config, grid):
        for k in range(config.runs):
            yield np.full((3, len(grid)), offset + (k == 0)), None

    monkeypatch.setattr(stochastic, "_runs", runs)
    params = ScenarioParams(
        n_hosts=10**9, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )
    res = ensemble(params, StochasticConfig(t_end_itu=1.0, seed=0, runs=50))
    for std in (res.s_std, res.i_std, res.p_std):
        np.testing.assert_allclose(std, 0.14, rtol=1e-12, atol=0.0)


_POOL_CASES = [
    ScenarioParams(
        n_hosts=2000, virulence=1.0, i0=5,
        defense=DefenseKind.FIXED_SERVERS, gamma=1.5, p_bar=5,
    ),
    ScenarioParams(
        n_hosts=2000, virulence=1.0, i0=5,
        defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=5,
    ),
]


def _same_ensemble(a, b):
    arrays = [(a.mean.t_itu, b.mean.t_itu), (a.s_std, b.s_std),
              (a.i_std, b.i_std), (a.p_std, b.p_std)]
    arrays += [(getattr(a.mean, c), getattr(b.mean, c)) for c in "sip"]
    return (all(np.array_equal(x, y) for x, y in arrays)
            and a.extinct_before_end == b.extinct_before_end)


@pytest.mark.parametrize("params", _POOL_CASES, ids=["fixed", "p2p"])
def test_pooled_ensemble_matches_serial(monkeypatch, params):
    # Five runs: more runs than CPUs, and an odd count.
    cfg = StochasticConfig(t_end_itu=20.0, seed=21, runs=5)
    monkeypatch.setattr(stochastic, "_POOL_MIN_HOST_RUNS", math.inf)
    serial = ensemble(params, cfg)
    monkeypatch.setattr(stochastic, "_POOL_MIN_HOST_RUNS", 0)
    pooled = ensemble(params, cfg)
    assert _same_ensemble(pooled, serial)
    stack = np.stack(
        [simulate(params, StochasticConfig(t_end_itu=20.0, seed=21 + k)).i
         for k in range(5)]
    )
    assert np.array_equal(pooled.mean.i, stack.sum(axis=0) / 5.0)


_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_serial_run = stochastic._run


def _run_tagged_with_pid(params, run_key, grid):
    sip, _ = _serial_run(params, run_key, grid)
    return sip, os.getpid()


@pytest.mark.skipif(not _CAN_FORK or _CPUS < 2, reason="needs fork and 2 CPUs")
def test_large_patched_ensemble_runs_in_workers(monkeypatch):
    cfg = StochasticConfig(t_end_itu=20.0, seed=21, runs=5)
    monkeypatch.setattr(stochastic, "_POOL_MIN_HOST_RUNS", 0)
    monkeypatch.setattr(stochastic, "_run", _run_tagged_with_pid)
    grid = stochastic._grid(cfg)
    pids = {r[1] for r in stochastic._runs(_POOL_CASES[0], cfg, grid)}
    assert pids and os.getpid() not in pids
    undefended = ScenarioParams(
        n_hosts=2000, virulence=1.0, i0=5, defense=DefenseKind.NO_PATCHING
    )
    pids = {r[1] for r in stochastic._runs(undefended, cfg, grid)}
    assert pids == {os.getpid()}


def _ensemble_in_pool_worker(params):
    return ensemble(params, StochasticConfig(t_end_itu=20.0, seed=21, runs=5))


@pytest.mark.skipif(not _CAN_FORK, reason="needs fork")
def test_ensemble_inside_pool_worker_runs_in_process(monkeypatch):
    # A daemonic pool worker may not fork workers of its own; ensemble
    # must fall back to running its runs in that worker.
    params = _POOL_CASES[1]
    monkeypatch.setattr(stochastic, "_POOL_MIN_HOST_RUNS", 0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_ensemble_in_pool_worker, (params,)).get(timeout=60)
    monkeypatch.setattr(stochastic, "_POOL_MIN_HOST_RUNS", math.inf)
    assert _same_ensemble(got, _ensemble_in_pool_worker(params))


def test_ensemble_mean_approaches_fluid_with_population():
    gaps = []
    for n in (1000, 10000):
        params = ScenarioParams(
            n_hosts=n, virulence=1.0, i0=max(1, n // 1000),
            defense=DefenseKind.NO_PATCHING,
        )
        res = ensemble(params, StochasticConfig(t_end_itu=16.0, seed=0, runs=50))
        ref = fluid.closed_form_no_patch(res.mean.t_itu, params) / n
        gaps.append(float(np.max(np.abs(res.mean.i / n - ref))))
    assert gaps[0] > gaps[1]
    assert gaps[1] < 0.05


# --- detection ----------------------------------------------------------


def _undefended(n):
    return ScenarioParams(
        n_hosts=n, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )


def test_detection_sim_deterministic():
    params = _undefended(10000)
    deadline = math.log(math.log(10000))
    cfg = StochasticConfig(t_end_itu=deadline, seed=0, runs=100)
    a = detection_sim(params, 1086, cfg)
    b = detection_sim(params, 1086, cfg)
    assert np.array_equal(a, b)


def test_detection_faster_with_more_monitors():
    # same seed couples the infection path; a larger telescope can only
    # catch the same scan stream sooner
    params = _undefended(10000)
    deadline = math.log(math.log(10000))
    cfg = StochasticConfig(t_end_itu=deadline, seed=0, runs=200)
    few = detection_sim(params, 1086, cfg)
    many = detection_sim(params, 4000, cfg)
    assert np.all(many <= few)


def test_detection_probability_at_matched_telescope():
    # ceil(N / ln N) monitors catch the worm by t = ln ln N in just
    # over half of runs; the seed freezes the sampled fraction exactly
    params = _undefended(10000)
    deadline = math.log(math.log(10000))
    cfg = StochasticConfig(t_end_itu=deadline, seed=0, runs=500)
    times = detection_sim(params, 1086, cfg)
    frac = float(np.mean(times <= deadline))
    assert frac >= 0.5
    assert frac == pytest.approx(0.522, abs=1e-12)


def test_tiny_telescope_misses():
    params = _undefended(10000)
    deadline = math.log(math.log(10000))
    times = detection_sim(
        params, 1, StochasticConfig(t_end_itu=deadline, seed=5, runs=50)
    )
    assert np.all(np.isinf(times))


@pytest.mark.parametrize("monitors", [0, 10001, 2.0, "5", None])
def test_detection_monitor_bounds(monitors):
    params = _undefended(10000)
    with pytest.raises(ValueError):
        detection_sim(params, monitors, StochasticConfig(t_end_itu=2.0, seed=0))


def test_detection_requires_undefended(codered_p2p_g1):
    with pytest.raises(ValueError):
        detection_sim(codered_p2p_g1, 100, StochasticConfig(t_end_itu=2.0, seed=0))


def test_scan_counts_match_expected_cumulative():
    from wormsim.monitoring import expected_scans

    params = ScenarioParams(
        n_hosts=10000, virulence=1.0, i0=10, defense=DefenseKind.NO_PATCHING
    )
    cfg = StochasticConfig(t_end_itu=7.0, seed=3, runs=200)
    grid, counts = monitor_scan_counts(params, 100, cfg)
    assert counts.shape == (200, len(grid))
    assert np.all(counts == np.round(counts))
    assert np.all(np.diff(counts, axis=1) >= 0)
    mean_counts = counts.mean(axis=0)
    for t_check in (4.0, 5.5, 7.0):
        k = int(round(t_check / 0.05))
        expected = expected_scans(grid[k], params, 100)
        assert abs(mean_counts[k] - expected) / expected < 0.10


# --- reference implementations ------------------------------------------
#
# Straightforward numpy-scalar versions of the patched event loop, of the
# undefended run, and of the telescope samplers (every jump time summed,
# hazard over every jump, horizon or not).  The optimized engine must
# reproduce them bit for bit, because seeded values are frozen elsewhere
# in the suite and in saved outputs.


class _RefUniformBuffer:
    """Block-buffered uniforms; one Generator call per 2^14 draws."""

    __slots__ = ("gen", "buf", "k")

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self.buf = gen.random(16384)
        self.k = 0

    def next(self) -> float:
        if self.k == 16384:
            self.buf = self.gen.random(16384)
            self.k = 0
        u = self.buf[self.k]
        self.k += 1
        return u


def _ref_run_patched(params, gen, grid):
    n = params.n_hosts
    g = params.gamma
    pb = params.p_bar
    is_fixed = params.defense is DefenseKind.FIXED_SERVERS
    s = n - params.i0 - pb
    i = params.i0
    p = pb
    out_s = np.empty(len(grid))
    out_i = np.empty(len(grid))
    out_p = np.empty(len(grid))
    gi = 0
    t = 0.0
    t_end = float(grid[-1])
    buf = _RefUniformBuffer(gen)
    halt = None
    while True:
        unpatched = s + i
        rate_infect = s * i / n
        if is_fixed:
            rate_patch = g * (pb if unpatched >= pb else unpatched)
        else:
            rate_patch = g / n * unpatched * p
        total = rate_infect + rate_patch
        if total <= 0.0:
            halt = t if t > 0.0 else None
            t_next = math.inf
        else:
            t_next = t + -math.log1p(-buf.next()) / total
        while gi < len(grid) and grid[gi] < t_next:
            out_s[gi] = s
            out_i[gi] = i
            out_p[gi] = p
            gi += 1
        if gi == len(grid) or t_next > t_end:
            break
        t = t_next
        u = buf.next() * total
        if u < rate_infect:
            s -= 1
            i += 1
        else:
            v = (u - rate_infect) / rate_patch * unpatched
            if v < i:
                i -= 1
            else:
                s -= 1
            p += 1
    return out_s, out_i, out_p, halt, i == 0


def _patched(defense, n, i0, gamma, p_bar):
    return ScenarioParams(
        n_hosts=n, virulence=1.0, i0=i0, defense=defense, gamma=gamma, p_bar=p_bar
    )


_FIXED = DefenseKind.FIXED_SERVERS
_P2P = DefenseKind.PEER_TO_PEER


@pytest.mark.parametrize(
    "params,cfg,check",
    [
        (  # absorbed well before the horizon with the worm extinct
            _patched(_FIXED, 300, 3, 2.0, 5),
            StochasticConfig(t_end_itu=200.0, seed=4),
            lambda r, params: r[4] and r[3] is not None and r[3] < 100.0,
        ),
        (
            _patched(_P2P, 300, 3, 2.0, 5),
            StochasticConfig(t_end_itu=12.0, seed=9),
            lambda r, params: True,
        ),
        (  # the fixed-server workforce outnumbers the unpatched hosts
            _patched(_FIXED, 400, 5, 0.5, 100),
            StochasticConfig(t_end_itu=60.0, seed=2),
            lambda r, params: r[0][-1] + r[1][-1] < params.p_bar,
        ),
        (  # many grid points between consecutive events
            _patched(_FIXED, 50, 2, 0.3, 2),
            StochasticConfig(t_end_itu=10.0, seed=6, sample_dt_itu=1e-3),
            lambda r, params: len(r[0]) == 10001,
        ),
        (
            _patched(_P2P, 1000, 5, 1.0, 5),
            StochasticConfig(t_end_itu=0.04, seed=1),
            lambda r, params: len(r[0]) == 1,
        ),
        (
            _patched(_FIXED, 1000, 5, 1.0, 5),
            StochasticConfig(t_end_itu=0.05, seed=1),
            lambda r, params: len(r[0]) == 2,
        ),
        (  # more than 8192 events: crosses a 16384-uniform block boundary
            _patched(_P2P, 20000, 25, 2.0, 10),
            StochasticConfig(t_end_itu=30.0, seed=3),
            lambda r, params: r[2][-1] - params.p_bar > 8192,
        ),
    ],
    ids=["fixed-extinct", "p2p", "pbar-exceeds-unpatched", "fine-grid",
         "one-point-grid", "two-point-grid", "block-boundary"],
)
def test_event_loop_matches_reference(params, cfg, check):
    grid = stochastic._grid(cfg)
    sip, halt = stochastic._run_patched(params, stochastic._rng(cfg.seed), grid)
    want = _ref_run_patched(params, stochastic._rng(cfg.seed), grid)
    assert check(want, params)  # the case exercises what its id says
    assert sip.shape == (3, len(grid))
    for a, b in zip(sip, want[:3]):
        assert np.array_equal(a, b)
    assert halt == want[3]
    assert (sip[1][-1] == 0) == want[4]


def _ref_infection_jumps(params, gen):
    """The full jump path: every one of the N - i0 jump times."""
    n, i0 = params.n_hosts, params.i0
    levels = np.arange(i0, n, dtype=float)
    rates = levels * (n - levels) / n
    return np.cumsum(gen.exponential(1.0, size=n - i0) / rates)


def _ref_run_no_patch(params, gen, grid):
    jumps = _ref_infection_jumps(params, gen)
    i = params.i0 + np.searchsorted(jumps, grid, side="right").astype(float)
    halt = float(jumps[-1]) if jumps[-1] <= grid[-1] else None
    return params.n_hosts - i, i, np.zeros_like(i), halt


def _ref_first_hits(params, monitors, config):
    c = monitors / params.n_hosts
    t_end = config.t_end_itu
    out = np.empty(config.runs)
    for k in range(config.runs):
        gen = stochastic._rng(config.seed + k)
        jumps = _ref_infection_jumps(params, gen)
        target = gen.exponential(1.0)
        jumps_in = jumps[jumps < t_end]
        h_jumps = stochastic._hazard_at(jumps_in, jumps, params.i0, c)
        j = int(np.searchsorted(h_jumps, target, side="right"))
        seg_start = 0.0 if j == 0 else float(jumps_in[j - 1])
        h_start = 0.0 if j == 0 else float(h_jumps[j - 1])
        t_hit = seg_start + (target - h_start) / (c * (params.i0 + j))
        out[k] = t_hit if t_hit <= t_end else np.inf
    return out


def _ref_scan_counts(params, monitors, config):
    grid = stochastic._grid(config)
    c = monitors / params.n_hosts
    counts = np.zeros((config.runs, len(grid)), dtype=np.int64)
    for k in range(config.runs):
        gen = stochastic._rng(config.seed + k)
        jumps = _ref_infection_jumps(params, gen)
        hazard = stochastic._hazard_at(grid, jumps, params.i0, c)
        counts[k, 1:] = np.cumsum(gen.poisson(np.diff(hazard)))
    return grid, counts


@pytest.mark.parametrize("monitors,t_end", [(1086, 2.22), (30, 9.0), (5000, 40.0)])
def test_telescope_prefix_matches_full_jump_hazard(monkeypatch, monitors, t_end):
    # Both samplers must reproduce the full-path references exactly, and
    # every jump prefix and hazard they use must agree with the full path.
    params = _undefended(10000)
    cfg = StochasticConfig(t_end_itu=t_end, seed=11, runs=40)
    want_hits = _ref_first_hits(params, monitors, cfg)
    want_grid, want_counts = _ref_scan_counts(params, monitors, cfg)
    infection_jumps, hazard_at = stochastic._infection_jumps, stochastic._hazard_at
    full = []

    def checked_jumps(params, gen, horizon):
        full.append(_ref_infection_jumps(params, copy.deepcopy(gen)))
        got = infection_jumps(params, gen, horizon)
        assert np.array_equal(got, full[-1][: len(got)])
        assert got[-1] > horizon or len(got) == len(full[-1])
        return got

    def checked_hazard(times, jumps, i0, c):
        got = hazard_at(times, jumps, i0, c)
        assert np.array_equal(got, hazard_at(times, full[-1], i0, c))
        return got

    monkeypatch.setattr(stochastic, "_infection_jumps", checked_jumps)
    monkeypatch.setattr(stochastic, "_hazard_at", checked_hazard)
    assert np.array_equal(detection_sim(params, monitors, cfg), want_hits)
    grid, counts = monitor_scan_counts(params, monitors, cfg)
    assert np.array_equal(grid, want_grid)
    assert np.array_equal(counts, want_counts)
    assert len(full) == 2 * cfg.runs


@pytest.mark.parametrize(
    "n,i0,horizon,size",
    [
        (10000, 1, 0.0, 64),
        (10000, 1, "below-64th", 64),
        (10000, 1, "64th", 9999),
        (10000, 1, math.inf, 9999),
        (50, 1, 0.0, 49),
        (10, 9, 0.0, 1),
        (10, 9, math.inf, 1),
    ],
    ids=["zero", "below-64th", "at-64th", "inf", "short-path", "one-jump-zero",
         "one-jump-inf"],
)
def test_infection_jumps_prefix(n, i0, horizon, size):
    # The returned prefix is the start of the full path and ends past the
    # horizon unless it is the full path; the stream ends where the full
    # path leaves it.
    params = ScenarioParams(
        n_hosts=n, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING
    )
    ref_gen = stochastic._rng(3)
    ref = _ref_infection_jumps(params, ref_gen)
    if horizon == "64th":
        horizon = ref[63]
    elif horizon == "below-64th":
        horizon = np.nextafter(ref[63], 0.0)
    gen = stochastic._rng(3)
    got = stochastic._infection_jumps(params, gen, horizon)
    assert len(got) == size
    assert np.array_equal(got, ref[:size])
    assert gen.random() == ref_gen.random()


def test_undefended_runs_match_reference():
    # A saturating run: the full path, and halt_itu at its last jump.
    params = _undefended(300)
    cfg = StochasticConfig(t_end_itu=25.0, seed=4, runs=6)
    grid = stochastic._grid(cfg)
    refs = [
        _ref_run_no_patch(params, stochastic._rng(cfg.seed + k), grid)
        for k in range(cfg.runs)
    ]
    traj = simulate(params, cfg)
    s, i, p, halt = refs[0]
    assert halt is not None
    assert traj.halt_itu == halt
    for got, want in zip((traj.s, traj.i, traj.p), (s, i, p)):
        assert np.array_equal(got, want)
    res = ensemble(params, cfg)
    for row, got in enumerate((res.mean.s, res.mean.i, res.mean.p)):
        acc = np.zeros(len(grid))
        for ref in refs:
            acc += ref[row]
        assert np.array_equal(got, acc / cfg.runs)
    assert res.extinct_before_end == 0
