"""Exact-jump stochastic simulation, ensembles, and detection sampling."""

import copy
import ctypes
import dataclasses
import math
import os
import shutil
import subprocess
import tempfile
import tracemalloc

import numpy as np
import pytest

from wormsim import _native, fluid, stochastic
from wormsim.cli import load_config, resolve_scenario
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


_EXACT_MAX_HOSTS = 189812531  # the largest N with N**2 <= 2**55


@pytest.mark.parametrize("defense", [DefenseKind.FIXED_SERVERS, DefenseKind.PEER_TO_PEER])
@pytest.mark.parametrize("call", [simulate, ensemble], ids=["simulate", "ensemble"])
def test_patched_runs_refuse_inexact_host_counts(call, defense):
    # S * I <= N**2 / 4, an integer below 2**53 while N**2 <= 2**55.
    assert _EXACT_MAX_HOSTS**2 <= 2**55 < (_EXACT_MAX_HOSTS + 1) ** 2
    params = ScenarioParams(n_hosts=_EXACT_MAX_HOSTS + 1, virulence=1.0, i0=5,
                            defense=defense, gamma=2.0, p_bar=10)
    with pytest.raises(ValueError, match=r"n_hosts <= 189812531 \(got 189812532\)"):
        call(params, StochasticConfig(t_end_itu=1.0, seed=0))
    # The bound itself passes, and an undefended run has no such bound.
    stochastic._check_exact_counts(dataclasses.replace(params, n_hosts=_EXACT_MAX_HOSTS))
    stochastic._check_exact_counts(dataclasses.replace(params, defense=DefenseKind.NO_PATCHING))


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
    calls = []

    def run(params, gen, grid):
        calls.append(gen)
        return np.full((3, len(grid)), offset + (len(calls) == 1)), None

    monkeypatch.setattr(stochastic, "_run", run)
    params = ScenarioParams(
        n_hosts=10**9, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )
    res = ensemble(params, StochasticConfig(t_end_itu=1.0, seed=0, runs=50))
    for std in (res.s_std, res.i_std, res.p_std):
        np.testing.assert_allclose(std, 0.14, rtol=1e-12, atol=0.0)


_SMALL_PATCHED = [
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


@pytest.mark.parametrize("params", _SMALL_PATCHED, ids=["fixed", "p2p"])
def test_ensemble_mean_is_key_ordered_sum_of_runs(params):
    # Five runs, an odd count: the mean adds run k = seed + k in key order,
    # and the spread is np.std over the same runs, bit for bit.
    res = ensemble(params, StochasticConfig(t_end_itu=20.0, seed=21, runs=5))
    runs = [simulate(params, StochasticConfig(t_end_itu=20.0, seed=21 + k)) for k in range(5)]
    stack = np.stack([(run.s, run.i, run.p) for run in runs])
    assert np.array_equal(res.mean.i, stack[:, 1].sum(axis=0) / 5.0)
    for got, want in zip((res.s_std, res.i_std, res.p_std), np.std(stack, axis=0)):
        assert np.array_equal(got, want)


def test_ensemble_holds_no_second_runs_array(traced_peak):
    # The spread is taken in the runs array's own buffer; np.std's copy of
    # it would take the peak past twice its size.  A fine grid makes the
    # runs array dominate each run's own draws, and undefended runs need
    # no event loop, so the check costs the same with or without a compiler.
    config = StochasticConfig(t_end_itu=48.0, seed=0, runs=50, sample_dt_itu=0.01)
    runs_bytes = config.runs * 3 * len(stochastic._grid(config)) * 8
    _, peak = traced_peak(ensemble, _undefended(10000), config)
    assert peak < 1.5 * runs_bytes


def test_undefended_run_holds_one_float_per_host(traced_peak):
    # cli.resolve_scenario counts one float per undefended host against its
    # ceiling: the holding times, turned into jump times in place.
    params = _undefended(10**6)
    traj, peak = traced_peak(simulate, params, StochasticConfig(t_end_itu=60.0, seed=0))
    assert traj.halt_itu is not None  # the full path: every host infected
    assert peak < 1.2 * 8 * params.n_hosts


@pytest.mark.parametrize("sampler", [detection_sim, monitor_scan_counts],
                         ids=["detection_sim", "monitor_scan_counts"])
def test_telescope_runs_hold_one_draw_at_a_time(sampler, traced_peak):
    # Each run's draw goes before the next run draws its own, so three runs
    # peak at one float per host, as one run does.
    params = _undefended(10**6)
    _, peak = traced_peak(sampler, params, 1000, StochasticConfig(t_end_itu=2.0, seed=0, runs=3))
    assert peak < 1.2 * 8 * params.n_hosts


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


# --- run keys -----------------------------------------------------------


_SAMPLERS = {
    "simulate": simulate,
    "ensemble": ensemble,
    "detection_sim": lambda params, cfg: detection_sim(params, 30, cfg),
    "monitor_scan_counts": lambda params, cfg: monitor_scan_counts(params, 30, cfg)[1],
}


def _record_generators(monkeypatch, reorder=list):
    """Swap _generators for a recorder.  Returns the generators the runs take
    from it, in the order taken, and the keys of every _rng call made
    outside it; reorder sets the order in which it hands them out."""
    real_generators, real_rng = stochastic._generators, stochastic._rng
    taken, outside, inside = [], [], []

    def rng(key):
        if not inside:
            outside.append(key)
        return real_rng(key)

    def generators(config):
        inside.append(config)
        gens = reorder(real_generators(config))
        inside.pop()
        for gen in gens:
            taken.append(gen)
            yield gen

    monkeypatch.setattr(stochastic, "_rng", rng)
    monkeypatch.setattr(stochastic, "_generators", generators)
    return taken, outside


@pytest.mark.parametrize(
    "name,params",
    [(name, _undefended(300)) for name in _SAMPLERS]
    + [(name, params) for name in ("simulate", "ensemble") for params in _SMALL_PATCHED],
    ids=[f"{name}-undefended" for name in _SAMPLERS]
    + [f"{name}-{kind}" for name in ("simulate", "ensemble") for kind in ("fixed", "p2p")],
)
def test_runs_take_generators_from_one_key_rule(monkeypatch, name, params):
    # simulate takes the first generator of _generators, every other sampler
    # takes config.runs of them in order, and no other code calls _rng.
    config = StochasticConfig(t_end_itu=3.0, seed=5, runs=4)
    want = _SAMPLERS[name](params, config)
    given, real_run = [], stochastic._run
    monkeypatch.setattr(
        stochastic, "_run", lambda params, gen, grid: given.append(gen) or real_run(params, gen, grid)
    )
    with monkeypatch.context() as m:
        taken, outside = _record_generators(m)
        _SAMPLERS[name](params, config)
    assert len(taken) == (1 if name == "simulate" else config.runs)
    assert outside == []
    if name in ("simulate", "ensemble"):
        assert list(map(id, given)) == list(map(id, taken))  # run k takes generator k
    else:  # handed out in reverse, the runs come out in reverse
        with monkeypatch.context() as m:
            taken, outside = _record_generators(m, reorder=lambda gens: list(gens)[::-1])
            assert np.array_equal(_SAMPLERS[name](params, config), want[::-1])
        assert len(taken) == config.runs and outside == []


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


_EVENT_LOOP_CASES = [
    (  # absorbed well before the horizon with the worm extinct
        "fixed-extinct",
        _patched(_FIXED, 300, 3, 2.0, 5),
        StochasticConfig(t_end_itu=200.0, seed=4),
        lambda r, params: r[4] and r[3] is not None and r[3] < 100.0,
    ),
    (
        "p2p",
        _patched(_P2P, 300, 3, 2.0, 5),
        StochasticConfig(t_end_itu=12.0, seed=9),
        lambda r, params: True,
    ),
    (  # the fixed-server workforce outnumbers the unpatched hosts
        "pbar-exceeds-unpatched",
        _patched(_FIXED, 400, 5, 0.5, 100),
        StochasticConfig(t_end_itu=60.0, seed=2),
        lambda r, params: r[0][-1] + r[1][-1] < params.p_bar,
    ),
    (  # many grid points between consecutive events
        "fine-grid",
        _patched(_FIXED, 50, 2, 0.3, 2),
        StochasticConfig(t_end_itu=10.0, seed=6, sample_dt_itu=1e-3),
        lambda r, params: len(r[0]) == 10001,
    ),
    (
        "one-point-grid",
        _patched(_P2P, 1000, 5, 1.0, 5),
        StochasticConfig(t_end_itu=0.04, seed=1),
        lambda r, params: len(r[0]) == 1,
    ),
    (
        "two-point-grid",
        _patched(_FIXED, 1000, 5, 1.0, 5),
        StochasticConfig(t_end_itu=0.05, seed=1),
        lambda r, params: len(r[0]) == 2,
    ),
    (  # more than 8192 events: _block's fetches grow from 64 into full _DRAW_BLOCK ones
        "block-boundary",
        _patched(_P2P, 20000, 25, 2.0, 10),
        StochasticConfig(t_end_itu=30.0, seed=3),
        lambda r, params: r[2][-1] - params.p_bar > 8192,
    ),
]


def _compiled_block():
    """The compiled block loop; it must build wherever there is a cc."""
    block = stochastic._patched_block()
    if block is stochastic._block and shutil.which("cc") is None:
        pytest.skip("no cc to build the compiled event loop")
    assert block is not stochastic._block
    return block


def _python_run(params, gen, grid):
    return stochastic._run_patched(stochastic._block, params, gen, grid)


def _compiled_run(params, gen, grid):
    return stochastic._run_patched(_compiled_block(), params, gen, grid)


# The Python loop keeps each case's own id; the compiled loop adds "-compiled".
@pytest.mark.parametrize(
    "loop,params,cfg,check",
    [pytest.param(_python_run, *case, id=name)
     for name, *case in _EVENT_LOOP_CASES]
    + [pytest.param(_compiled_run, *case, id=f"{name}-compiled")
       for name, *case in _EVENT_LOOP_CASES],
)
def test_event_loop_matches_reference(loop, params, cfg, check):
    grid = stochastic._grid(cfg)
    sip, halt = loop(params, stochastic._rng(cfg.seed), grid)
    want = _ref_run_patched(params, stochastic._rng(cfg.seed), grid)
    assert check(want, params)  # the case exercises what its id says
    assert sip.shape == (3, len(grid))
    for a, b in zip(sip, want[:3]):
        assert np.array_equal(a, b)
    assert halt == want[3]
    assert (sip[1][-1] == 0) == want[4]


def _python_ensemble(monkeypatch, params, cfg):
    with monkeypatch.context() as m:
        m.setattr(stochastic, "_patched_block", lambda: stochastic._block)
        return ensemble(params, cfg)


@pytest.mark.parametrize("name", ["codered-fixed-desk", "codered-p2p-g2-desk"])
@pytest.mark.parametrize("seed", [0, 12345, 2**100 + 7])
def test_compiled_desk_ensemble_equals_python(monkeypatch, name, seed):
    scn = resolve_scenario(load_config(name))
    cfg = dataclasses.replace(scn.stochastic, seed=seed, runs=4)
    _compiled_block()
    compiled = ensemble(scn.params, cfg)
    assert _same_ensemble(compiled, _python_ensemble(monkeypatch, scn.params, cfg))


def _lockstep(compiled, params, cfg):
    """One patched run through both blocks, each drawing from its own
    generator of the run's key: both must leave the same state (s, i, p, t,
    halt) and fill every grid row alike.  Returns the number of calls."""
    calls = []

    def both(st, n, g, pb, is_fixed, gen, grid, *rows):
        for row in rows:
            row.fill(np.nan)  # a row left unfilled fails the comparison
        st_py, rows_py = st.copy(), [row.copy() for row in rows]
        stochastic._block(st_py, n, g, pb, is_fixed, stochastic._rng(cfg.seed), grid, *rows_py)
        compiled(st, n, g, pb, is_fixed, gen, grid, *rows)
        assert st.tolist() == st_py.tolist()
        for row, row_py in zip(rows, rows_py):
            assert np.array_equal(row, row_py)
        calls.append(gen)

    stochastic._run_patched(both, params, stochastic._rng(cfg.seed), stochastic._grid(cfg))
    return len(calls)


# Every event-loop case, and whole p2p runs to extinction at two sizes.
@pytest.mark.parametrize(
    "params,cfg",
    [pytest.param(params, cfg, id=name) for name, params, cfg, _check in _EVENT_LOOP_CASES]
    + [pytest.param(_patched(_P2P, n, 5, 2.0, 5), StochasticConfig(t_end_itu=40.0, seed=seed),
                    id=f"p2p-{n}-seed{seed}")
       for n in (1000, 20000) for seed in range(20)],
)
def test_blocks_keep_lockstep(params, cfg):
    assert _lockstep(_compiled_block(), params, cfg) == 1


@pytest.mark.parametrize("loop", ["python", "compiled"])
def test_patched_run_is_one_block_call(monkeypatch, loop):
    block = stochastic._block if loop == "python" else _compiled_block()
    calls = []
    monkeypatch.setattr(stochastic, "_patched_block",
                        lambda: lambda *args: calls.append(args[5]) or block(*args))
    params, cfg = _EVENT_LOOP_CASES[-1][1:3]  # past 8192 events, many Python fetches
    ensemble(params, dataclasses.replace(cfg, runs=3))
    assert len(calls) == 3 and len(set(map(id, calls))) == 3  # one call per run's generator


def _counting_uniforms(monkeypatch):
    """Make _block read its uniforms through an iterator that counts them;
    returns the count, as a one-item list."""
    read, real = [0], stochastic._uniforms

    def uniforms(gen):
        for u in real(gen):
            read[0] += 1
            yield u

    monkeypatch.setattr(stochastic, "_uniforms", uniforms)
    return read


@pytest.mark.parametrize(
    "params,cfg,ends",
    [pytest.param(*_EVENT_LOOP_CASES[0][1:3], "absorbed", id="fixed-absorbed"),
     pytest.param(_patched(_P2P, 300, 3, 2.0, 5), StochasticConfig(t_end_itu=3.0, seed=9),
                  "past-grid", id="p2p-past-grid"),
     pytest.param(*_EVENT_LOOP_CASES[4][1:3], "one-point", id="one-point-grid")],
)
def test_compiled_run_draws_two_uniforms_per_pass(monkeypatch, params, cfg, ends):
    # The Python block counts the passes of the loop, as pairs of uniforms
    # read; the compiled run must leave its generator just past them.
    grid = stochastic._grid(cfg)
    with monkeypatch.context() as m:
        read = _counting_uniforms(m)
        want, _ = stochastic._run_patched(stochastic._block, params, stochastic._rng(cfg.seed),
                                          grid)
    assert read[0] % 2 == 0
    passes = read[0] // 2
    gen = stochastic._rng(cfg.seed)
    sip, halt = stochastic._run_patched(_compiled_block(), params, gen, grid)
    assert np.array_equal(sip, want)
    assert (halt is not None) == (ends == "absorbed")
    assert (passes == 1) == (ends == "one-point")  # the first holding time passes t = 0
    assert gen.random() == stochastic._rng(cfg.seed).random(2 * passes + 1)[-1]


@pytest.fixture
def fresh_loader():
    """Forget the loaded loop, so the next patched run builds or loads anew."""
    stochastic._patched_block.cache_clear()
    yield
    stochastic._patched_block.cache_clear()


def _copy_source(tmp_path):
    source = tmp_path / "_patched.c"
    with open(_native._C_SOURCE, "rb") as fh:
        source.write_bytes(fh.read())
    return source


@pytest.mark.parametrize("fault", ["no-cc", "read-only-dir", "no-source"])
def test_unbuildable_loop_falls_back_silently(monkeypatch, tmp_path, capfd, fresh_loader, fault):
    cfg = StochasticConfig(t_end_itu=20.0, seed=21, runs=3)
    want = [ensemble(params, cfg) for params in _SMALL_PATCHED]
    source = _copy_source(tmp_path)
    if fault == "no-cc":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    elif fault == "read-only-dir":
        def read_only(**kwargs):
            raise PermissionError(13, "Permission denied", kwargs["dir"])
        monkeypatch.setattr(tempfile, "mkstemp", read_only)
    else:
        source.unlink()
    monkeypatch.setattr(_native, "_C_SOURCE", str(source))
    stochastic._patched_block.cache_clear()
    got = [ensemble(params, cfg) for params in _SMALL_PATCHED]
    assert stochastic._patched_block() is stochastic._block
    assert all(_same_ensemble(a, b) for a, b in zip(got, want))
    assert capfd.readouterr() == ("", "")
    assert sorted(tmp_path.iterdir()) == ([] if fault == "no-source" else [source])


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
def test_failed_build_is_tried_once_per_process(monkeypatch, tmp_path, capfd, fresh_loader):
    source = tmp_path / "_patched.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(_native, "_C_SOURCE", str(source))
    builds = []
    real_run = subprocess.run
    monkeypatch.setattr(
        subprocess, "run", lambda argv, **kw: builds.append(argv) or real_run(argv, **kw)
    )
    cfg = StochasticConfig(t_end_itu=20.0, seed=21, runs=3)
    for _ in range(2):
        got = ensemble(_SMALL_PATCHED[1], cfg)
        assert _same_ensemble(got, _python_ensemble(monkeypatch, _SMALL_PATCHED[1], cfg))
    assert len(builds) == 1
    assert capfd.readouterr() == ("", "")
    assert sorted(tmp_path.iterdir()) == [source]  # the failed build's temporary is gone


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
def test_edited_source_never_loads_stale_library(tmp_path):
    source = _copy_source(tmp_path)
    text = source.read_text()
    first = _native._build(str(source))
    assert first is not None and os.path.dirname(first) == str(tmp_path)
    source.write_text(text + "#error edited\n")
    assert _native._build(str(source)) is None  # not the earlier build, nor removes it
    assert sorted(os.listdir(tmp_path)) == sorted([source.name, os.path.basename(first)])
    in_flight = tmp_path / f"{os.path.basename(first)}.k3x9q.tmp"  # another build's temporary
    in_flight.write_bytes(b"")
    source.write_text(text + "/* edited */\n")
    second = _native._build(str(source))
    assert second not in (None, first) and os.path.exists(second)
    # The new library replaces the stale one, and leaves the temporary alone.
    names = [source.name, in_flight.name, os.path.basename(second)]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert _native._build(str(source)) == second  # an unchanged source reuses it


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
def test_library_is_built_and_loaded_beside_its_source(monkeypatch, tmp_path, fresh_loader):
    loaded, made = [], []
    real_cdll, real_mkstemp = ctypes.CDLL, tempfile.mkstemp
    monkeypatch.setattr(ctypes, "CDLL", lambda name: loaded.append(name) or real_cdll(name))
    monkeypatch.setattr(
        tempfile, "mkstemp", lambda **kw: made.append(kw["dir"]) or real_mkstemp(**kw)
    )
    package = os.path.dirname(os.path.abspath(stochastic.__file__))
    assert stochastic._patched_block() is not stochastic._block  # the package's own source
    monkeypatch.setattr(_native, "_C_SOURCE", str(_copy_source(tmp_path)))
    stochastic._patched_block.cache_clear()
    assert stochastic._patched_block() is not stochastic._block  # built fresh beside the copy
    assert [os.path.dirname(lib) for lib in loaded] == [package, str(tmp_path)]
    assert made[-1] == str(tmp_path) and set(made) <= {package, str(tmp_path)}
    assert _native.function("wormsim_no_such_kernel") is None  # a symbol the library lacks


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
def test_first_load_removes_stale_builds(monkeypatch, tmp_path, fresh_loader):
    source = _copy_source(tmp_path)
    current = _native._build(str(source))
    stale = tmp_path / "_patched-0123456789abcdef.so"  # an older source's build
    stale.write_bytes(b"")
    monkeypatch.setattr(_native, "_C_SOURCE", str(source))
    assert stochastic._patched_block() is not stochastic._block  # reuses current
    assert sorted(os.listdir(tmp_path)) == sorted([source.name, os.path.basename(current)])


def test_patched_run_holds_no_draw_buffer(traced_peak):
    # The compiled block draws each uniform as it needs it, so a run holds
    # its output rows and little else.
    compiled = _compiled_block()
    scn = resolve_scenario(load_config("codered-fixed-desk"))
    grid = stochastic._grid(scn.stochastic)
    stochastic._run_patched(compiled, scn.params, stochastic._rng(0), grid)  # warm
    _, peak = traced_peak(stochastic._run_patched, compiled, scn.params, stochastic._rng(0), grid)
    assert peak < 3 * len(grid) * 8 + 16384  # the rows, and 16 KB: an eighth of one chunk's array


def test_python_block_holds_one_chunk_at_a_time(monkeypatch):
    # _block's fetches grow to _DRAW_BLOCK uniforms; a run that reads
    # several full ones peaks near what one alone costs, not twice it.
    params, cfg = _EVENT_LOOP_CASES[-1][1:3]  # past 8192 events
    grid = stochastic._grid(cfg)
    gen, run_gen = stochastic._rng(0), stochastic._rng(cfg.seed)
    tracemalloc.start()
    try:
        gen.random(stochastic._DRAW_BLOCK).tolist()  # one full fetch, as _uniforms makes it
        chunk = tracemalloc.get_traced_memory()[1]
        read = _counting_uniforms(monkeypatch)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        stochastic._run_patched(stochastic._block, params, run_gen, grid)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert read[0] > 2 * stochastic._DRAW_BLOCK  # the run spans two full fetches or more
    assert peak < 1.5 * chunk


@pytest.mark.parametrize(
    "params,cfg",
    [pytest.param(*_EVENT_LOOP_CASES[4][1:3], id="one-point-grid"),
     pytest.param(*_EVENT_LOOP_CASES[0][1:3], id="fixed-absorbed"),
     pytest.param(_patched(_P2P, 100, 3, 2.0, 5), StochasticConfig(t_end_itu=8.0, seed=2),
                  id="p2p-100"),
     pytest.param(*_EVENT_LOOP_CASES[-1][1:3], id="block-boundary")],
)
def test_python_run_fetches_only_the_uniforms_it_reads(monkeypatch, params, cfg):
    # _block fetches 64 uniforms, then twice as many each time up to
    # _DRAW_BLOCK, and only when it has read every one fetched before; so
    # a run leaves its generator just past the first total that covers
    # the two uniforms of each of its passes.
    grid = stochastic._grid(cfg)
    with monkeypatch.context() as m:
        read = _counting_uniforms(m)
        stochastic._run_patched(stochastic._block, params, stochastic._rng(cfg.seed), grid)
    assert read[0] % 2 == 0  # two a pass
    fetched, size = 0, 64
    while fetched < read[0]:
        fetched += size
        size = min(2 * size, stochastic._DRAW_BLOCK)
    gen = stochastic._rng(cfg.seed)
    stochastic._run_patched(stochastic._block, params, gen, grid)
    assert gen.random() == stochastic._rng(cfg.seed).random(fetched + 1)[-1]


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


def _ref_hazard(times, jumps, i0, c):
    """c * integral of I over [0, t] at each time t, along the full jump path."""
    levels = i0 + np.arange(len(jumps) + 1, dtype=float)  # I before, then after each jump
    starts = np.concatenate(([0.0], jumps))
    area_at_start = np.concatenate(([0.0], np.cumsum(levels[:-1] * np.diff(starts))))
    idx = np.searchsorted(jumps, times, side="right")
    return c * (area_at_start[idx] + levels[idx] * (times - starts[idx]))


def _ref_first_hits(params, monitors, config):
    c = monitors / params.n_hosts
    t_end = config.t_end_itu
    out = np.empty(config.runs)
    for k in range(config.runs):
        gen = stochastic._rng(config.seed + k)
        jumps = _ref_infection_jumps(params, gen)
        target = gen.exponential(1.0)
        jumps_in = jumps[jumps < t_end]
        h_jumps = _ref_hazard(jumps_in, jumps, params.i0, c)
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
        hazard = _ref_hazard(grid, jumps, params.i0, c)
        counts[k, 1:] = np.cumsum(gen.poisson(np.diff(hazard)))
    return grid, counts


@pytest.mark.parametrize("monitors,t_end", [(1086, 2.22), (30, 9.0), (5000, 40.0)])
def test_telescope_prefix_matches_full_jump_hazard(monkeypatch, monitors, t_end):
    # Both samplers must reproduce the full-path references exactly, and
    # every jump prefix and segment table they use must be the start of
    # the full path's.
    params = _undefended(10000)
    cfg = StochasticConfig(t_end_itu=t_end, seed=11, runs=40)
    want_hits = _ref_first_hits(params, monitors, cfg)
    want_grid, want_counts = _ref_scan_counts(params, monitors, cfg)
    infection_jumps, segments = stochastic._infection_jumps, stochastic._segments
    full = []

    def checked_jumps(params, gen, horizon):
        full.append(_ref_infection_jumps(params, copy.deepcopy(gen)))
        got = infection_jumps(params, gen, horizon)
        assert np.array_equal(got, full[-1][full[-1] <= horizon])
        return got

    def checked_segments(jumps, i0):
        got = segments(jumps, i0)
        for part, whole in zip(got, segments(full[-1], i0)):
            assert len(part) == len(jumps) + 1
            assert np.array_equal(part, whole[: len(part)])
        return got

    monkeypatch.setattr(stochastic, "_infection_jumps", checked_jumps)
    monkeypatch.setattr(stochastic, "_segments", checked_segments)
    assert np.array_equal(detection_sim(params, monitors, cfg), want_hits)
    grid, counts = monitor_scan_counts(params, monitors, cfg)
    assert np.array_equal(grid, want_grid)
    assert np.array_equal(counts, want_counts)
    assert len(full) == 2 * cfg.runs


@pytest.mark.parametrize(
    "n,i0,horizon,size",
    [
        (10000, 1, lambda ref: 0.0, 0),
        (10000, 1, lambda ref: np.nextafter(ref[63], 0.0), 63),
        (10000, 1, lambda ref: ref[63], 64),
        (10000, 1, lambda ref: math.inf, 9999),
        (50, 1, lambda ref: ref[-1], 49),
        (10, 9, lambda ref: 0.0, 0),
        (10, 9, lambda ref: math.inf, 1),
        (10000, 1, lambda ref: ref[191], 192),
        (50000, 1, lambda ref: ref[40000], 40001),
    ],
    ids=["zero", "below-64th", "at-64th", "inf", "short-path", "one-jump-zero",
         "one-jump-inf", "at-192nd", "past-block-cap"],
)
def test_infection_jumps_prefix(n, i0, horizon, size):
    # Exactly the full path's jumps at or before the horizon, and the stream
    # ends where the full path leaves it.  The blocks hold 64, 128, 256, ...
    # jumps: at-64th and at-192nd end a block at the horizon, so the next one
    # is summed; past-block-cap sums past 32,704 jumps in blocks of _DRAW_BLOCK;
    # short-path's horizon is its last jump, inside its first block.
    params = ScenarioParams(
        n_hosts=n, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING
    )
    ref_gen = stochastic._rng(3)
    ref = _ref_infection_jumps(params, ref_gen)
    horizon = horizon(ref)
    gen = stochastic._rng(3)
    got = stochastic._infection_jumps(params, gen, horizon)
    assert len(got) == size
    assert np.array_equal(got, ref[ref <= horizon])
    assert gen.random() == ref_gen.random()


def test_one_point_grid_runs_match_reference():
    # A horizon short of one sampling step leaves the grid at t = 0 alone,
    # before any jump, so the runs read an empty jump path.
    params = _undefended(300)
    cfg = StochasticConfig(t_end_itu=0.01, seed=4, runs=3, sample_dt_itu=0.05)
    grid = stochastic._grid(cfg)
    assert grid.tolist() == [0.0]
    s, i, p, halt = _ref_run_no_patch(params, stochastic._rng(cfg.seed), grid)
    traj = simulate(params, cfg)
    assert halt is None and traj.halt_itu is None
    for got, want in zip((traj.s, traj.i, traj.p), (s, i, p)):
        assert np.array_equal(got, want)
    got_grid, counts = monitor_scan_counts(params, 30, cfg)
    want_grid, want_counts = _ref_scan_counts(params, 30, cfg)
    assert np.array_equal(got_grid, want_grid)
    assert np.array_equal(counts, want_counts)
    assert counts.shape == (3, 1)


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
