"""Fluid-model right-hand sides and closed-form solutions.

Reference numbers were frozen from independent fine-grid evaluations of
the closed forms and hand-computed rate identities.
"""

import numpy as np
import pytest

from wormsim import fluid
from wormsim.core import (
    DefenseKind,
    PopulationState,
    ScenarioParams,
    TrajectorySource,
    validate_trajectory,
)


# --- right-hand sides ---------------------------------------------------


def test_rhs_no_patch_rates():
    params = ScenarioParams(
        n_hosts=1000, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )
    d = fluid.rhs(PopulationState(s=900.0, i=100.0, p=0.0), params)
    assert d.di_dt == pytest.approx(900 * 100 / 1000)
    assert d.ds_dt == pytest.approx(-900 * 100 / 1000)
    assert d.dp_dt == 0.0


def test_rhs_fixed_servers_rates():
    params = ScenarioParams(
        n_hosts=1000, virulence=1.0, i0=1,
        defense=DefenseKind.FIXED_SERVERS, gamma=2.0, p_bar=10,
    )
    st = PopulationState(s=800.0, i=100.0, p=100.0)
    d = fluid.rhs(st, params)
    assert d.di_dt == pytest.approx(800 * 100 / 1000 - 2 * 10 * 100 / 900)
    assert d.ds_dt + d.di_dt + d.dp_dt == pytest.approx(0.0, abs=1e-12)


def test_rhs_fixed_servers_finishing_phase():
    # fewer unpatched hosts than servers: patch work capped at gamma*(s+i)
    params = ScenarioParams(
        n_hosts=1000, virulence=1.0, i0=1,
        defense=DefenseKind.FIXED_SERVERS, gamma=2.0, p_bar=10,
    )
    d = fluid.rhs(PopulationState(s=3.0, i=2.0, p=995.0), params)
    assert d.ds_dt == pytest.approx(-3 * 2 / 1000 - 2.0 * 5 * (3 / 5))
    assert d.di_dt == pytest.approx(3 * 2 / 1000 - 2.0 * 5 * (2 / 5))
    assert d.dp_dt == pytest.approx(2.0 * 5)


def test_rhs_fixed_servers_empty_pool_raises():
    params = ScenarioParams(
        n_hosts=1000, virulence=1.0, i0=1,
        defense=DefenseKind.FIXED_SERVERS, gamma=2.0, p_bar=10,
    )
    with pytest.raises(ValueError, match="s \\+ i = 0"):
        fluid.rhs(PopulationState(s=0.0, i=0.0, p=1000.0), params)


def test_rhs_p2p_rates():
    params = ScenarioParams(
        n_hosts=1000, virulence=1.0, i0=1,
        defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=10,
    )
    st = PopulationState(s=800.0, i=100.0, p=100.0)
    d = fluid.rhs(st, params)
    assert d.di_dt == pytest.approx(80 - 2 / 1000 * 100 * 100)
    assert d.dp_dt == pytest.approx(2 / 1000 * 900 * 100)
    assert d.ds_dt + d.di_dt + d.dp_dt == pytest.approx(0.0, abs=1e-12)


# --- no-patch closed form -----------------------------------------------


def test_no_patch_sigmoid_anchors(codered_nopatch):
    n, i0 = 360000, 25
    assert fluid.closed_form_no_patch(0.0, codered_nopatch) == pytest.approx(i0)
    t_half = np.log((n - i0) / i0)
    assert fluid.closed_form_no_patch(t_half, codered_nopatch) == pytest.approx(
        n / 2, rel=1e-12
    )
    assert fluid.closed_form_no_patch(60.0, codered_nopatch) == pytest.approx(
        n, rel=1e-9
    )


def test_no_patch_sigmoid_vectorized_and_monotone(codered_nopatch):
    t = np.linspace(0.0, 25.0, 400)
    i = fluid.closed_form_no_patch(t, codered_nopatch)
    assert i.shape == t.shape
    assert np.all(np.diff(i) > 0)


# --- fixed-servers closed form ------------------------------------------


def test_fixed_validity_window(codered_fixed):
    assert fluid.fixed_validity_window(codered_fixed) == pytest.approx(
        (360000 - 50) / 7800, rel=1e-14
    )


def test_fixed_closed_form_frozen_values(codered_fixed):
    n, p_bar, i0 = 360000, 25, 25
    assert fluid.closed_form_fixed(0.0, codered_fixed) == pytest.approx(
        (n - p_bar) * i0 / (i0 + n - p_bar), rel=1e-12
    )
    assert fluid.closed_form_fixed(13.4, codered_fixed) == pytest.approx(
        221603.959, rel=1e-6
    )
    win = fluid.fixed_validity_window(codered_fixed)
    end = fluid.closed_form_fixed(win, codered_fixed)
    assert end == pytest.approx(25.0, rel=2e-6)
    assert end < 25.0  # the curve re-enters the threshold just inside the window


def test_fixed_closed_form_peak(codered_fixed):
    t = np.linspace(14.5, 15.5, 200001)
    i = fluid.closed_form_fixed(t, codered_fixed)
    k = int(np.argmax(i))
    assert t[k] == pytest.approx(15.014, abs=2e-3)
    assert i[k] == pytest.approx(231303.6, rel=1e-5)


def test_fixed_closed_form_domain(codered_fixed):
    win = fluid.fixed_validity_window(codered_fixed)
    with pytest.raises(ValueError, match="window"):
        fluid.closed_form_fixed(win + 0.1, codered_fixed)
    with pytest.raises(ValueError):
        fluid.closed_form_fixed(-0.1, codered_fixed)


# --- peer-to-peer closed forms ------------------------------------------


def test_p2p_patch_sigmoid(codered_p2p_g1):
    assert fluid.closed_form_p2p_patch(0.0, codered_p2p_g1) == 10.0
    assert fluid.closed_form_p2p_patch(60.0, codered_p2p_g1) == pytest.approx(
        360000, rel=1e-9
    )
    t = np.linspace(0.0, 40.0, 500)
    p = fluid.closed_form_p2p_patch(t, codered_p2p_g1)
    assert np.all(np.diff(p) > 0)


def test_p2p_infected_initial_value(codered_p2p_g1):
    # the closed form carries an O((I0+Pb)/N) offset at t = 0
    i0 = fluid.closed_form_p2p(0.0, codered_p2p_g1)
    assert abs(i0 - 25.0) / 25.0 <= 2 * (25 + 10) / 360000


def test_p2p_gamma1_frozen_peak_and_dieout(codered_p2p_g1):
    t = np.linspace(0.0, 30.0, 600001)
    i = fluid.closed_form_p2p(t, codered_p2p_g1)
    k = int(np.argmax(i))
    assert t[k] == pytest.approx(9.8649, abs=1e-3)
    assert i[k] == pytest.approx(109202.96, rel=1e-5)
    below = np.nonzero((i < 0.5) & (t > t[k]))[0]
    assert t[below[0]] == pytest.approx(23.642, abs=1e-2)


def test_p2p_gamma2_frozen_peak_and_dieout(codered_p2p_g2):
    t = np.linspace(0.0, 15.0, 600001)
    i = fluid.closed_form_p2p(t, codered_p2p_g2)
    k = int(np.argmax(i))
    assert t[k] == pytest.approx(4.8953, abs=1e-3)
    assert i[k] == pytest.approx(1812.025, rel=1e-5)
    below = np.nonzero((i < 0.5) & (t > t[k]))[0]
    assert t[below[0]] == pytest.approx(9.818, abs=1e-2)


def test_p2p_long_time_underflow_is_zero(codered_p2p_g2):
    # far beyond die-out the denominator overflows; the value is a clean 0
    assert fluid.closed_form_p2p(400.0, codered_p2p_g2) == 0.0


# --- trajectory evaluation ----------------------------------------------


@pytest.mark.parametrize(
    "fixture",
    ["codered_nopatch", "codered_fixed", "codered_p2p_g1", "codered_p2p_g2"],
)
def test_closed_form_trajectory_is_valid(request, fixture):
    params = request.getfixturevalue(fixture)
    t_hi = 20.0
    if params.defense is DefenseKind.FIXED_SERVERS:
        t_hi = fluid.fixed_validity_window(params)
    grid = np.linspace(0.0, t_hi, 801)
    traj = fluid.closed_form_trajectory(params, grid)
    assert traj.source is TrajectorySource.CLOSED_FORM
    assert validate_trajectory(traj) is traj
    assert float(np.min(traj.s)) >= 0.0
    np.testing.assert_allclose(
        traj.s + traj.i + traj.p, params.n_hosts, rtol=0, atol=1e-9 * params.n_hosts
    )


# --- early-phase exponential growth -------------------------------------


@pytest.mark.parametrize("n_hosts", [100000, 360000, 1000000])
@pytest.mark.parametrize("family", ["nopatch", "fixed", "p2p1", "p2p2"])
def test_early_phase_tracks_pure_exponential(family, n_hosts):
    """I(t) stays within 5% of I0*e^t for t <= min(2, 0.1 ln N).

    The fixed-servers family scales gamma with N so the patch capacity
    stays a fixed fraction of the population.
    """
    i0, p_bar = 25, 25
    if family == "nopatch":
        params = ScenarioParams(
            n_hosts=n_hosts, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING
        )
        curve = fluid.closed_form_no_patch
    elif family == "fixed":
        params = ScenarioParams(
            n_hosts=n_hosts, virulence=1.0, i0=i0,
            defense=DefenseKind.FIXED_SERVERS,
            gamma=312.0 * n_hosts / 360000, p_bar=p_bar,
        )
        curve = fluid.closed_form_fixed
    else:
        gamma = 1.0 if family == "p2p1" else 2.0
        params = ScenarioParams(
            n_hosts=n_hosts, virulence=1.0, i0=i0,
            defense=DefenseKind.PEER_TO_PEER, gamma=gamma, p_bar=10,
        )
        curve = fluid.closed_form_p2p
    t_star = min(2.0, 0.1 * np.log(n_hosts))
    value = curve(t_star, params)
    reference = i0 * np.exp(t_star)
    assert abs(value - reference) / reference < 0.05
