"""Network-telescope sizing: expected scans, sizing, and thumb rules."""

import dataclasses
import decimal
import math

import numpy as np
import pytest

from wormsim import fluid
from wormsim.core import DefenseKind, ScenarioError, ScenarioParams
from wormsim.monitoring import (
    detection_probability,
    expected_scans,
    monitors_for_detection,
    thumb_rule_monitors,
)
from wormsim.stochastic import StochasticConfig, detection_sim, monitor_scan_counts


def test_expected_scans_matches_direct_formula(slammer):
    n, i0, m = 85000, 1, 500
    for t in (0.0, 1.0, 2.42, 6.0):
        direct = m * math.log(1.0 + (i0 / n) * (math.exp(t) - 1.0))
        assert expected_scans(t, slammer, m) == pytest.approx(direct, rel=1e-12)


def test_expected_scans_stable_at_large_t(slammer):
    # naive e^t overflows beyond ~709; the log-sum form keeps going and
    # approaches the linear asymptote M * (t - ln(N/I0))
    value = expected_scans(5000.0, slammer, 3)
    assert np.isfinite(value)
    assert value == pytest.approx(3 * (5000.0 - math.log(85000.0)), rel=1e-9)


def test_expected_scans_vectorized(slammer):
    t = np.array([0.0, 1.0, 2.0])
    out = expected_scans(t, slammer, 10)
    assert out.shape == (3,)
    assert np.all(np.diff(out) > 0)
    with pytest.raises(ValueError):
        expected_scans(-0.5, slammer, 10)
    with pytest.raises(ValueError, match="t must be >= 0"):
        expected_scans(np.array([1.0, np.nan]), slammer, 10)


def test_detection_probability_matches_direct_formula(slammer):
    m = 8213
    theta = m / 85000
    for t in (0.5, 2.42, 6.0):
        direct = 1.0 - ((1.0 + theta) / (1.0 + theta * math.exp((1.0 + theta) * t))) ** slammer.i0
        assert detection_probability(t, slammer, m) == pytest.approx(direct, rel=1e-12)
    # +0.0 at t = 0 for every size, not -0.0 or a rounding residue of either sign
    zero = [detection_probability(0.0, slammer, size) for size in range(1, 85000, 997)]
    assert all(z == 0.0 and math.copysign(1.0, z) == 1.0 for z in zero)
    # rising to 1.0 at a t whose exponential overflows, with no warning
    out = detection_probability(np.array([0.0, 1.0, 2.0, 5000.0]), slammer, m)
    assert np.all(np.diff(out) > 0.0) and out[-1] == 1.0


@pytest.mark.parametrize("i0", [1, 3])
def test_detection_probability_keeps_relative_precision_at_small_t(i0):
    # Against 1 - [(1 + theta) / (1 + theta e^x)]^I0, x = (1 + theta) t, in
    # 50 significant digits at the exact binary value of each t.  A difference
    # of two logs near log(1 + theta) would be 2e-4 off at t = 1e-12.
    n, m = 85000, 8213
    params = ScenarioParams(n_hosts=n, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING)
    times = [1e-12, 1e-9, 1e-6, 1e-3, 0.5, 0.999, 1.0, 2.42, 50.0]
    got = detection_probability(np.array(times), params, m)
    with decimal.localcontext() as context:
        context.prec = 50
        theta = decimal.Decimal(m) / n
        for t, value in zip(times, got):
            growth = (1 + theta) * decimal.Decimal(t)
            exact = 1 - ((1 + theta) / (1 + theta * growth.exp())) ** i0
            assert abs(decimal.Decimal(float(value)) / exact - 1) <= decimal.Decimal("1e-14"), t


def test_monitors_for_detection_slammer_deadline(slammer):
    monitors = monitors_for_detection(slammer, 2.42)
    assert monitors == 8297
    assert expected_scans(2.42, slammer, monitors) >= 1.0
    # minimality: one monitor fewer no longer reaches an expected scan
    assert expected_scans(2.42, slammer, monitors - 1) < 1.0


def test_sizing_at_a_deadline_whose_scans_round_to_zero(slammer):
    # The log-sum form rounds M_bar(1e-17), about 1.2e-22 exactly, to
    # -5.08e-21; it is returned as 0, which no telescope size turns into a scan.
    assert expected_scans(1e-17, slammer, 1) == 0.0
    assert expected_scans(np.array([0.0, 1e-17]), slammer, 7489).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="needs inf monitors, more than the population"):
        monitors_for_detection(slammer, 1e-17)


def test_monitors_for_detection_rejects_hopeless_deadline(slammer):
    with pytest.raises(ValueError, match="monitors"):
        monitors_for_detection(slammer, 1e-6)
    for deadline in (0.0, float("nan"), "2.42", None, [2.42]):
        with pytest.raises(ValueError, match="deadline"):
            monitors_for_detection(slammer, deadline)


def test_thumb_rule_fixed_servers():
    assert thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS) == 7489
    assert thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS) == math.ceil(
        85000 / math.log(85000)
    )
    full_ipv4 = thumb_rule_monitors(2**32, DefenseKind.FIXED_SERVERS)
    assert full_ipv4 == 193635251
    assert abs(full_ipv4 - 1.94e8) / 1.94e8 < 0.01


def test_thumb_rule_peer_to_peer():
    assert thumb_rule_monitors(85000, DefenseKind.PEER_TO_PEER) == 34991
    assert thumb_rule_monitors(2**32, DefenseKind.PEER_TO_PEER) == 1385820679
    # the faster defense needs a bigger telescope to react in time
    assert thumb_rule_monitors(85000, DefenseKind.PEER_TO_PEER) > thumb_rule_monitors(
        85000, DefenseKind.FIXED_SERVERS
    )


def test_thumb_rule_domain():
    with pytest.raises(ValueError):
        thumb_rule_monitors(2, DefenseKind.FIXED_SERVERS)
    with pytest.raises(ValueError):
        thumb_rule_monitors(85000, DefenseKind.NO_PATCHING)
    # Below N = 16, ln ln N < 1 and the peer-to-peer size would exceed N.
    with pytest.raises(ValueError, match="needs 16 monitors, more than the population of 15"):
        thumb_rule_monitors(15, DefenseKind.PEER_TO_PEER)
    assert thumb_rule_monitors(16, DefenseKind.PEER_TO_PEER) == 16
    assert thumb_rule_monitors(3, DefenseKind.FIXED_SERVERS) == 3


@pytest.mark.parametrize("monitors", [-7, 0, 10.5, True, 2.0])
def test_expected_scans_rejects_bad_monitor_count(slammer, monitors):
    with pytest.raises(ValueError, match="monitors"):
        expected_scans(2.42, slammer, monitors)


def test_expected_scans_accepts_numpy_count(slammer):
    assert expected_scans(2.42, slammer, np.int64(500)) == expected_scans(2.42, slammer, 500)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: expected_scans(1.0, p, 10),
        lambda p: monitors_for_detection(p, 2.42),
    ],
    ids=["expected_scans", "monitors_for_detection"],
)
@pytest.mark.parametrize("overrides", [dict(i0=0), dict(virulence=-1.5), dict(n_hosts=True)])
def test_sizing_validates_params(slammer, call, overrides):
    with pytest.raises(ScenarioError):
        call(dataclasses.replace(slammer, **overrides))


@pytest.mark.parametrize("n_hosts", [10.5, 85000.0, True, "85000"])
def test_thumb_rule_rejects_non_integer_population(n_hosts):
    with pytest.raises(ValueError, match="n_hosts"):
        thumb_rule_monitors(n_hosts, DefenseKind.FIXED_SERVERS)


def test_sizing_consistent_with_thumb_rule(slammer):
    # the exact sizing for the fixed-servers reaction window lands within
    # a small factor of the ceil(N / ln N) rule of thumb
    monitors = monitors_for_detection(slammer, 2.42)
    thumb = thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS)
    assert monitors / thumb < 1.25


def test_empirical_detection_median_beats_p2p_deadline(slammer):
    # a thumb-rule telescope detects the worm before t = ln ln N in at
    # least half of seeded runs
    from wormsim.stochastic import StochasticConfig, detection_sim

    deadline = math.log(math.log(85000))
    thumb = thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS)
    cfg = StochasticConfig(t_end_itu=deadline, seed=0, runs=5000)
    times = detection_sim(slammer, thumb, cfg)
    assert float(np.mean(times <= deadline)) >= 0.5


# --- argument rules: one owner each, the same refusal everywhere --------

_N = 1000
_UNDEFENDED = ScenarioParams(n_hosts=_N, virulence=1.0, i0=5, defense=DefenseKind.NO_PATCHING)
_FIXED = ScenarioParams(n_hosts=_N, virulence=1.0, i0=5, defense=DefenseKind.FIXED_SERVERS,
                        gamma=2.0, p_bar=10)
_P2P = ScenarioParams(n_hosts=_N, virulence=1.0, i0=5, defense=DefenseKind.PEER_TO_PEER,
                      gamma=2.0, p_bar=10)
_TIMED = {
    "closed_form_no_patch": lambda t: fluid.closed_form_no_patch(t, _UNDEFENDED),
    "closed_form_fixed": lambda t: fluid.closed_form_fixed(t, _FIXED),
    "closed_form_p2p": lambda t: fluid.closed_form_p2p(t, _P2P),
    "closed_form_p2p_patch": lambda t: fluid.closed_form_p2p_patch(t, _P2P),
    "trajectory_no_patching": lambda t: fluid.closed_form_trajectory(_UNDEFENDED, t),
    "trajectory_fixed_servers": lambda t: fluid.closed_form_trajectory(_FIXED, t),
    "trajectory_peer_to_peer": lambda t: fluid.closed_form_trajectory(_P2P, t),
    "expected_scans": lambda t: expected_scans(t, _UNDEFENDED, 10),
    "detection_probability": lambda t: detection_probability(t, _UNDEFENDED, 10),
}
_SIZED = {
    "expected_scans": lambda m: expected_scans(1.0, _UNDEFENDED, m),
    "detection_probability": lambda m: detection_probability(1.0, _UNDEFENDED, m),
    "detection_sim": lambda m: detection_sim(
        _UNDEFENDED, m, StochasticConfig(t_end_itu=1.0, seed=0)),
    "monitor_scan_counts": lambda m: monitor_scan_counts(
        _UNDEFENDED, m, StochasticConfig(t_end_itu=1.0, seed=0)),
}


@pytest.mark.parametrize("t", [-0.1, math.nan, np.array([0.0, math.nan])],
                         ids=["negative", "nan", "nan-in-array"])
@pytest.mark.parametrize("name", sorted(_TIMED))
def test_every_timed_function_refuses_a_negative_or_nan_time(name, t):
    with pytest.raises(ValueError):
        _TIMED[name](t)
    _TIMED[name](np.array([0.0, 0.5]))  # a valid grid passes


@pytest.mark.parametrize("monitors", [0, _N + 1, 2.0, True])
@pytest.mark.parametrize("name", sorted(_SIZED))
def test_every_telescope_function_refuses_a_size_outside_one_to_n(name, monitors):
    with pytest.raises(ValueError, match="monitors"):
        _SIZED[name](monitors)
    _SIZED[name](_N)  # the whole population is a valid telescope


@pytest.mark.parametrize("call", [detection_sim, monitor_scan_counts])
def test_detection_runs_name_the_defense_they_refuse(call):
    message = f"^{call.__name__} applies to no_patching scenarios only$"
    with pytest.raises(ValueError, match=message):
        call(_P2P, 10, StochasticConfig(t_end_itu=1.0, seed=0))
