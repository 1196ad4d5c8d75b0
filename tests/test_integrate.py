"""Fixed-step RK4 integrator: accuracy, sampling, halting, conservation."""

import dataclasses

import numpy as np
import pytest

from wormsim import fluid
from wormsim.core import (
    DefenseKind,
    PopulationState,
    ScenarioParams,
    TrajectorySource,
    conservation_error,
    initial_state,
    validate_trajectory,
)
from wormsim.integrate import IntegratorConfig, integrate, validate_config


# --- configuration ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(t_end_itu=0.0), "t_end_itu"),
        (dict(t_end_itu=-1.0), "t_end_itu"),
        (dict(t_end_itu=10.0, dt_itu=0.0), "dt_itu"),
        (dict(t_end_itu=10.0, dt_itu=0.02), "dt_itu"),
        (dict(t_end_itu=10.0, sample_stride=0), "sample_stride"),
        (dict(t_end_itu=10.0, sample_stride=True), "sample_stride"),
        (dict(t_end_itu=True), "t_end_itu"),
        (dict(t_end_itu="5"), "t_end_itu"),
        (dict(t_end_itu=10.0, dt_itu=None), "dt_itu"),
        (dict(t_end_itu=10.0, dt_itu=[0.001]), "dt_itu"),
        (dict(t_end_itu=10.0, sample_stride=2.0), "sample_stride"),
    ],
)
def test_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        validate_config(IntegratorConfig(**kwargs))


def test_default_step_accepted():
    cfg = IntegratorConfig(t_end_itu=5.0)
    assert validate_config(cfg) is cfg
    assert cfg.dt_itu == 0.001
    assert cfg.sample_stride == 10


# --- sampling grid ------------------------------------------------------


def test_sample_times_follow_stride(codered_nopatch):
    traj = integrate(codered_nopatch, IntegratorConfig(t_end_itu=1.0))
    assert traj.t_itu[0] == 0.0
    assert traj.t_itu[-1] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.diff(traj.t_itu), 0.01, rtol=1e-9)
    assert traj.source is TrajectorySource.INTEGRATED


def test_stride_does_not_change_states(codered_p2p_g2):
    a = integrate(codered_p2p_g2, IntegratorConfig(t_end_itu=8.0, sample_stride=10))
    b = integrate(codered_p2p_g2, IntegratorConfig(t_end_itu=8.0, sample_stride=7))
    at = {round(float(t), 9): (s, i) for t, s, i in zip(a.t_itu, a.s, a.i)}
    bt = {round(float(t), 9): (s, i) for t, s, i in zip(b.t_itu, b.s, b.i)}
    shared = sorted(set(at) & set(bt))
    assert len(shared) > 50
    assert all(at[t] == bt[t] for t in shared)


# --- accuracy against closed forms --------------------------------------


def test_matches_no_patch_sigmoid(codered_nopatch):
    traj = integrate(codered_nopatch, IntegratorConfig(t_end_itu=16.0))
    ref = fluid.closed_form_no_patch(traj.t_itu, codered_nopatch)
    assert np.max(np.abs(traj.i - ref) / ref) < 1e-3


def test_matches_fixed_servers_closed_form(codered_fixed):
    win = fluid.fixed_validity_window(codered_fixed)
    traj = integrate(codered_fixed, IntegratorConfig(t_end_itu=win))
    mask = traj.t_itu <= win
    ref = fluid.closed_form_fixed(traj.t_itu[mask], codered_fixed)
    assert np.max(np.abs(traj.i[mask] - ref) / ref) < 1e-3


def test_matches_p2p_closed_form(codered_p2p_g2):
    traj = integrate(codered_p2p_g2, IntegratorConfig(t_end_itu=9.0))
    ref = fluid.closed_form_p2p(traj.t_itu, codered_p2p_g2)
    assert np.max(np.abs(traj.i - ref) / ref) < 1e-3


def test_fourth_order_convergence(codered_nopatch):
    errs = []
    for dt in (0.008, 0.004, 0.002):
        traj = integrate(
            codered_nopatch,
            IntegratorConfig(t_end_itu=12.0, dt_itu=dt, sample_stride=1),
        )
        ref = fluid.closed_form_no_patch(traj.t_itu, codered_nopatch)
        errs.append(np.max(np.abs(traj.i - ref)))
    # halving dt should cut the error by ~2^4
    assert errs[0] / errs[1] > 12.0
    assert errs[1] / errs[2] > 12.0


@pytest.mark.parametrize("fixture,t_end", [("codered_p2p_g2", 9.0), ("codered_fixed", 12.0)])
def test_fourth_order_self_convergence(request, fixture, t_end):
    # The patched closed forms start O(I0/N) off I0, so the error against
    # them stays flat as dt shrinks; compare successive halvings instead,
    # sampled at the same times.
    params = request.getfixturevalue(fixture)
    runs = [
        integrate(params, IntegratorConfig(t_end_itu=t_end, dt_itu=dt, sample_stride=k))
        for dt, k in ((0.008, 1), (0.004, 2), (0.002, 4), (0.001, 8))
    ]
    for coarse, fine in zip(runs, runs[1:]):
        assert coarse.halt_itu is None and fine.halt_itu is None
        np.testing.assert_allclose(coarse.t_itu, fine.t_itu, rtol=0, atol=1e-9)
    gaps = [np.max(np.abs(a.i - b.i)) for a, b in zip(runs, runs[1:])]
    # halving dt should cut the gap by ~2^4
    assert gaps[0] / gaps[1] > 12.0
    assert gaps[1] / gaps[2] > 12.0


# --- the kernel's inline right-hand side ---------------------------------


def _rhs_step(y, params, dt):
    """One RK4 step from state y by fluid.rhs, in the kernel's expression order."""
    half, sixth = 0.5 * dt, dt / 6.0

    def stage(k, h):
        state = PopulationState(y.s + h * k.ds_dt, y.i + h * k.di_dt, y.p + h * k.dp_dt)
        return fluid.rhs(state, params)

    k1 = fluid.rhs(y, params)
    k2 = stage(k1, half)
    k3 = stage(k2, half)
    k4 = stage(k3, dt)
    return tuple(
        x + sixth * (getattr(k1, f) + 2.0 * (getattr(k2, f) + getattr(k3, f)) + getattr(k4, f))
        for x, f in ((y.s, "ds_dt"), (y.i, "di_dt"), (y.p, "dp_dt"))
    )


@pytest.fixture
def saturated_fixed():
    # S + I = 2 < p_bar = 98 servers: the workforce is capped at gamma * (S + I)
    return ScenarioParams(
        n_hosts=100, virulence=1.0, i0=1,
        defense=DefenseKind.FIXED_SERVERS, gamma=2.0, p_bar=98,
    )


@pytest.mark.parametrize(
    "fixture", ["codered_nopatch", "codered_p2p_g2", "codered_fixed", "saturated_fixed"]
)
def test_kernel_step_equals_rhs_step(request, fixture):
    params = request.getfixturevalue(fixture)
    dt = 0.01
    one = integrate(params, IntegratorConfig(t_end_itu=dt, dt_itu=dt, sample_stride=1))
    assert len(one) == 2 and one.t_itu[1] == dt
    assert one.state_at(1) == PopulationState(*_rhs_step(one.state_at(0), params, dt))
    # Then every step of a whole run, each from the state the kernel
    # reached, up to the first that ends in the kernel's flush to zero or
    # meets the fixed-servers rest state S + I = 0.  Most reorderings of
    # the float operations show only in a few steps of a run.
    traj = integrate(params, IntegratorConfig(t_end_itu=60.0, dt_itu=dt, sample_stride=1))
    tied = 0
    for k in range(len(traj) - 1):
        try:
            step = _rhs_step(traj.state_at(k), params, dt)
        except ValueError:
            break
        if any(x < 1e-30 and x != 0.0 for x in step):
            break
        assert traj.state_at(k + 1) == PopulationState(*step), f"step {k + 1}"
        tied += 1
    assert tied > 30


def test_diverging_state_raises_at_first_bad_step(codered_p2p_g2):
    params = dataclasses.replace(codered_p2p_g2, gamma=1e300)
    with pytest.raises(RuntimeError, match="at step 1$"):
        integrate(params, IntegratorConfig(t_end_itu=1.0))


# --- halting ------------------------------------------------------------


def test_no_patch_never_halts(codered_nopatch):
    traj = integrate(codered_nopatch, IntegratorConfig(t_end_itu=20.0))
    assert traj.halt_itu is None
    assert np.all(np.diff(traj.i) >= 0)


def test_p2p_halts_at_sub_host_extinction(codered_p2p_g1, codered_p2p_g2):
    traj = integrate(codered_p2p_g1, IntegratorConfig(t_end_itu=40.0))
    assert traj.halt_itu == pytest.approx(23.642, abs=2e-2)
    assert traj.i[-1] < 0.5
    assert traj.t_itu[-1] == pytest.approx(traj.halt_itu)
    traj = integrate(codered_p2p_g2, IntegratorConfig(t_end_itu=40.0))
    assert traj.halt_itu == pytest.approx(9.818, abs=1e-2)


def test_fixed_servers_halts_near_validity_window(codered_fixed):
    traj = integrate(codered_fixed, IntegratorConfig(t_end_itu=60.0))
    win = fluid.fixed_validity_window(codered_fixed)
    assert traj.halt_itu == pytest.approx(win, abs=0.05)


@pytest.mark.parametrize("dt", [0.01, 0.005, 0.002, 0.001])
def test_fixed_servers_halts_at_every_step_size(codered_fixed, dt):
    # At dt 0.01 one step takes I from 15.4 below zero; the flush leaves
    # it at exactly 0, where dI/dt is 0, and the run must halt there
    # rather than step the resting state on to the horizon.
    traj = integrate(codered_fixed, IntegratorConfig(t_end_itu=60.0, dt_itu=dt, sample_stride=1))
    assert traj.halt_itu == pytest.approx(46.16, abs=5e-3)
    assert traj.t_itu[-1] == traj.halt_itu
    assert traj.i[-1] < 0.5


def test_dominant_patching_runs_to_zero(desk_fixed):
    traj = integrate(desk_fixed, IntegratorConfig(t_end_itu=48.0))
    assert traj.halt_itu is not None
    assert traj.i[-1] < 0.5
    assert float(np.min(traj.s)) >= 0.0
    assert float(np.min(traj.p)) >= 0.0


# --- conservation and validity ------------------------------------------


@pytest.mark.parametrize(
    "fixture,t_end",
    [
        ("codered_nopatch", 16.0),
        ("codered_fixed", 50.0),
        ("codered_p2p_g1", 30.0),
        ("codered_p2p_g2", 12.0),
    ],
)
def test_integrated_trajectories_conserve_hosts(request, fixture, t_end):
    params = request.getfixturevalue(fixture)
    traj = integrate(params, IntegratorConfig(t_end_itu=t_end))
    assert conservation_error(traj) <= 1e-9 * params.n_hosts
    assert validate_trajectory(traj) is traj
