"""Analytic response-time predictors and trajectory summary extraction."""

import dataclasses
import math

import numpy as np
import pytest

from wormsim.core import (
    DefenseKind,
    ScenarioError,
    ScenarioParams,
    Trajectory,
    TrajectorySource,
)
from wormsim.integrate import IntegratorConfig, integrate
from wormsim.metrics import (
    _parabolic_vertex,
    default_extinction_threshold,
    fixed_extinction_time,
    fixed_peak_time,
    p2p_extinction_time,
    p2p_peak_infected,
    p2p_peak_time,
    spread_time,
    summarize,
    trajectory_extinction,
    trajectory_peak,
    trajectory_spread_time,
)


# --- analytic predictors ------------------------------------------------


def test_spread_time_slammer(slammer):
    tv = spread_time(slammer, 0.5)
    assert tv.itu == pytest.approx(np.log(84999.0), rel=1e-12)
    assert tv.itu == pytest.approx(11.350395, abs=1e-5)
    assert tv.wallclock == pytest.approx(tv.itu / 1.5)


def test_spread_time_kappa_shift(codered_nopatch):
    # moving kappa from 0.5 to 0.9 adds exactly ln 9 on the logit scale
    t5 = spread_time(codered_nopatch, 0.5).itu
    t9 = spread_time(codered_nopatch, 0.9).itu
    assert t9 - t5 == pytest.approx(np.log(9.0), rel=1e-10)


@pytest.mark.parametrize("kappa", [0.0, 1.0, -0.2, 1.5])
def test_spread_time_kappa_domain(codered_nopatch, kappa):
    with pytest.raises(ValueError):
        spread_time(codered_nopatch, kappa)


def test_spread_time_wrong_defense(codered_fixed):
    with pytest.raises(ValueError):
        spread_time(codered_fixed, 0.5)


def test_fixed_predictors(codered_fixed):
    peak = fixed_peak_time(codered_fixed)
    assert peak.itu == pytest.approx(
        2 * np.log(360000 / np.sqrt(7800.0 * 25)), rel=1e-12
    )
    assert peak.itu == pytest.approx(13.40697, abs=1e-5)
    ext = fixed_extinction_time(codered_fixed)
    assert ext.itu == pytest.approx((360000 - 50) / 7800.0, rel=1e-12)
    assert ext.wallclock == pytest.approx(25.6, abs=0.05)


def test_fixed_predictors_wrong_defense(codered_p2p_g1):
    with pytest.raises(ValueError):
        fixed_peak_time(codered_p2p_g1)
    with pytest.raises(ValueError):
        fixed_extinction_time(codered_p2p_g1)


def test_p2p_peak_time(codered_p2p_g1, codered_p2p_g2):
    assert p2p_peak_time(codered_p2p_g1).itu == pytest.approx(
        np.log(360000 / 10.0), rel=1e-12
    )
    assert p2p_peak_time(codered_p2p_g2).itu == pytest.approx(
        0.5 * np.log(360000 / 20.0), rel=1e-12
    )


def test_p2p_peak_infected_gamma2(codered_p2p_g2):
    expected = 2.0 * 25 * 360000**0.5 / (10**0.5 * 3.0**1.5)
    value = p2p_peak_infected(codered_p2p_g2)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(1825.74, abs=0.01)


@pytest.mark.parametrize("gamma", [1.0, 0.8, 0.5])
def test_p2p_peak_infected_needs_supercritical_gamma(codered_p2p_g1, gamma):
    assert p2p_peak_infected(dataclasses.replace(codered_p2p_g1, gamma=gamma)) is None


def test_p2p_extinction_time(codered_p2p_g1, codered_p2p_g2):
    assert p2p_extinction_time(codered_p2p_g1).itu == pytest.approx(
        2.0 * np.log(360000), rel=1e-12
    )
    assert p2p_extinction_time(codered_p2p_g2).itu == pytest.approx(
        0.75 * np.log(360000), rel=1e-12
    )


@pytest.mark.parametrize(
    "predictor,defense,overrides",
    [
        (lambda p: spread_time(p, 0.5), DefenseKind.NO_PATCHING, dict(i0=100)),
        (fixed_peak_time, DefenseKind.FIXED_SERVERS, dict(gamma=-1.0)),
        (fixed_extinction_time, DefenseKind.FIXED_SERVERS, dict(p_bar=0)),
        (p2p_peak_time, DefenseKind.PEER_TO_PEER, dict(p_bar=200)),
        (p2p_peak_infected, DefenseKind.PEER_TO_PEER, dict(gamma=True)),
        (p2p_extinction_time, DefenseKind.PEER_TO_PEER, dict(n_hosts=100.0)),
    ],
    ids=[
        "spread_time", "fixed_peak_time", "fixed_extinction_time",
        "p2p_peak_time", "p2p_peak_infected", "p2p_extinction_time",
    ],
)
def test_predictors_validate_params(predictor, defense, overrides):
    params = ScenarioParams(
        n_hosts=100, virulence=1.0, i0=1, defense=defense, gamma=2.0, p_bar=10
    )
    predictor(params)
    with pytest.raises(ScenarioError):
        predictor(dataclasses.replace(params, **overrides))


def test_fixed_extinction_time_needs_more_hosts_than_twice_the_servers():
    params = ScenarioParams(
        n_hosts=100, virulence=1.0, i0=1,
        defense=DefenseKind.FIXED_SERVERS, gamma=1.0, p_bar=60,
    )
    with pytest.raises(ValueError, match="n_hosts > 2 \\* p_bar"):
        fixed_extinction_time(params)
    assert fixed_extinction_time(dataclasses.replace(params, n_hosts=121)).itu > 0.0


def test_default_extinction_threshold(codered_nopatch, codered_fixed, codered_p2p_g1):
    assert default_extinction_threshold(codered_nopatch) == 1.0
    assert default_extinction_threshold(codered_fixed) == 25.0
    assert default_extinction_threshold(codered_p2p_g1) == 10.0
    # without patching no host starts patched, whatever p_bar says
    undefended = dataclasses.replace(codered_nopatch, p_bar=10)
    assert default_extinction_threshold(undefended) == 1.0


# --- trajectory measurements --------------------------------------------


def _parabola_trajectory(params):
    # samples of a parabola peaking at t = 2.3 with I = 104.5
    t = np.arange(0.0, 5.0, 0.5)
    i = 104.5 - 10.0 * (t - 2.3) ** 2
    p = np.zeros_like(t)
    s = params.n_hosts - i - p
    return Trajectory(
        t_itu=t, s=s, i=i, p=p, params=params, source=TrajectorySource.CLOSED_FORM
    )


def test_trajectory_peak_parabolic_refinement(codered_nopatch):
    traj = _parabola_trajectory(codered_nopatch)
    peak_time, peak_value = trajectory_peak(traj)
    assert peak_time.itu == pytest.approx(2.3, abs=1e-9)
    assert peak_value == pytest.approx(104.5, abs=1e-9)


def test_trajectory_peak_at_boundary(codered_nopatch):
    traj = integrate(codered_nopatch, IntegratorConfig(t_end_itu=8.0))
    peak_time, peak_value = trajectory_peak(traj)
    assert peak_time.itu == traj.t_itu[-1]
    assert peak_value == traj.i[-1]


def test_parabolic_vertex_degenerate_and_outside_bracket():
    """trajectory_peak only reaches the helper at an interior maximum; the Nones are its own."""
    assert _parabolic_vertex(0.0, 1.0, 2.0, 1.0, 1.0, 1.0) is None  # flat: no curvature
    assert _parabolic_vertex(0.0, 1.0, 2.0, 0.0, 1.0, 1.9) is None  # vertex at t = 10.5
    t_star, y_star = _parabolic_vertex(0.0, 1.0, 2.0, 0.0, 2.0, 1.0)
    assert t_star == pytest.approx(7.0 / 6.0, rel=1e-12)
    assert y_star == pytest.approx(49.0 / 24.0, rel=1e-12)


def test_trajectory_extinction_interpolates(codered_nopatch):
    t = np.array([0.0, 1.0, 2.0, 3.0])
    i = np.array([40.0, 20.0, 5.0, 1.0])
    traj = Trajectory(
        t_itu=t, s=codered_nopatch.n_hosts - i, i=i, p=np.zeros_like(t),
        params=codered_nopatch, source=TrajectorySource.CLOSED_FORM,
    )
    tv = trajectory_extinction(traj, threshold=10.0)
    # crossing of 10 between samples (1.0, 20) and (2.0, 5)
    assert tv.itu == pytest.approx(1.0 + 10.0 / 15.0, rel=1e-12)


def test_trajectory_extinction_edge_cases(codered_nopatch):
    t = np.array([0.0, 1.0, 2.0])
    low = np.array([0.4, 0.3, 0.2])
    below = Trajectory(
        t_itu=t, s=codered_nopatch.n_hosts - low, i=low, p=np.zeros_like(t),
        params=codered_nopatch, source=TrajectorySource.CLOSED_FORM,
    )
    assert trajectory_extinction(below, threshold=5.0).itu == 0.0

    high = np.array([40.0, 50.0, 60.0])
    alive = Trajectory(
        t_itu=t, s=codered_nopatch.n_hosts - high, i=high, p=np.zeros_like(t),
        params=codered_nopatch, source=TrajectorySource.CLOSED_FORM,
    )
    assert trajectory_extinction(alive, threshold=5.0) is None
    # A NaN threshold is refused too: no sample is >= NaN, which would read as extinct at t = 0.
    for threshold in (0.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            trajectory_extinction(alive, threshold=threshold)
        with pytest.raises(ValueError, match="positive"):
            summarize(alive, threshold)


def test_trajectory_spread_time(codered_nopatch):
    traj = integrate(codered_nopatch, IntegratorConfig(t_end_itu=16.0))
    measured = trajectory_spread_time(traj, 0.5).itu
    assert measured == pytest.approx(spread_time(codered_nopatch, 0.5).itu, rel=1e-5)
    early = integrate(codered_nopatch, IntegratorConfig(t_end_itu=2.0))
    assert trajectory_spread_time(early, 0.5) is None
    for kappa in (0.0, 1.0):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            trajectory_spread_time(traj, kappa)


def test_summarize_fixed_servers(codered_fixed):
    traj = integrate(codered_fixed, IntegratorConfig(t_end_itu=50.0))
    summary = summarize(traj)
    assert set(summary) == {"peak_time", "peak_infected", "extinction_time"}
    assert summary["peak_infected"] == pytest.approx(231304, rel=1e-4)
    assert summary["peak_time"].itu == pytest.approx(15.014, abs=5e-3)
    # the default threshold is p_bar = 25 hosts
    assert summary["extinction_time"] == trajectory_extinction(traj, 25.0)
    assert summary["extinction_time"].itu == pytest.approx(46.147, abs=5e-2)


def test_summarize_never_extinct_is_none(codered_nopatch):
    traj = integrate(codered_nopatch, IntegratorConfig(t_end_itu=16.0))
    summary = summarize(traj, kappas=(0.5, 0.999))
    assert summary["extinction_time"] is None
    assert list(summary["spread_time"]) == ["0.5", "0.999"]
    assert summary["spread_time"]["0.5"].itu == pytest.approx(9.5749, abs=1e-3)
    assert summary["spread_time"]["0.999"] is None


# --- fixed-servers operating-regime sweep -------------------------------


@pytest.mark.parametrize("i0", [10, 25])
@pytest.mark.parametrize("work,n_hosts", [(1000.0, 100000), (1000.0, 360000), (7800.0, 360000)])
def test_fixed_regime_sweep(work, n_hosts, i0):
    """Where patching is slow enough to lose, the defense loses big.

    Within this operating regime the peak engulfs a large fraction of
    the population, the peak-time predictor lands within 20%, and the
    extinction predictor is essentially exact.
    """
    params = ScenarioParams(
        n_hosts=n_hosts, virulence=1.0, i0=i0,
        defense=DefenseKind.FIXED_SERVERS, gamma=work / 25.0, p_bar=25,
    )
    win = fixed_extinction_time(params).itu
    traj = integrate(
        params,
        IntegratorConfig(t_end_itu=win * 1.02, dt_itu=0.002, sample_stride=50),
    )
    peak_time, peak_value = trajectory_peak(traj)
    assert peak_value >= 0.55 * n_hosts
    predicted = fixed_peak_time(params).itu
    assert abs(peak_time.itu - predicted) / predicted <= 0.20
    measured_ext = trajectory_extinction(traj, 25.0).itu
    assert abs(measured_ext - win) / win <= 0.01
