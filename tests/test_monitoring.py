"""Network-telescope sizing: expected scans, sizing, and thumb rules."""

import dataclasses
import math

import numpy as np
import pytest

from wormsim.core import DefenseKind, ScenarioError, ScenarioParams
from wormsim.monitoring import (
    expected_scans,
    monitors_for_detection,
    thumb_rule_monitors,
)


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


def test_monitors_for_detection_slammer_deadline(slammer):
    plan = monitors_for_detection(slammer, 2.42)
    assert plan.monitors == 8297
    assert plan.expected_scans_at_deadline >= 1.0
    # minimality: one monitor fewer no longer reaches an expected scan
    assert expected_scans(2.42, slammer, plan.monitors - 1) < 1.0


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
    plan = monitors_for_detection(slammer, 2.42)
    thumb = thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS)
    assert plan.monitors / thumb < 1.25


def test_empirical_detection_median_beats_p2p_deadline(slammer):
    # a thumb-rule telescope detects the worm before t = ln ln N in at
    # least half of seeded runs
    from wormsim.stochastic import StochasticConfig, detection_sim

    deadline = math.log(math.log(85000))
    thumb = thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS)
    cfg = StochasticConfig(t_end_itu=deadline, seed=0, runs=5000)
    times = detection_sim(slammer, thumb, cfg)
    assert float(np.mean(times <= deadline)) >= 0.5
