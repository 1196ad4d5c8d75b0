"""Scenario parameters, time units, and trajectory container invariants."""

import dataclasses
import inspect

import numpy as np
import pytest

import wormsim
from wormsim.core import (
    DefenseKind,
    ScenarioError,
    ScenarioParams,
    TimeValue,
    Trajectory,
    TrajectorySource,
    conservation_error,
    conservation_tolerance,
    initial_state,
    itu_to_wallclock,
    validate,
    validate_trajectory,
)


def test_defense_kind_config_values():
    assert DefenseKind.NO_PATCHING.value == "no_patching"
    assert DefenseKind.FIXED_SERVERS.value == "fixed_servers"
    assert DefenseKind.PEER_TO_PEER.value == "peer_to_peer"


def test_params_defaults_and_immutability():
    base = ScenarioParams(
        n_hosts=1000, virulence=2.0, i0=5, defense=DefenseKind.NO_PATCHING
    )
    assert base.gamma == 1.0
    assert base.p_bar == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.n_hosts = 7


def test_validate_accepts_and_returns_params(codered_fixed):
    assert validate(codered_fixed) is codered_fixed


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(n_hosts=0), "n_hosts"),
        (dict(virulence=0.0), "virulence"),
        (dict(virulence=float("inf")), "virulence"),
        (dict(gamma=0.0), "gamma"),
        (dict(gamma=-1.0), "gamma"),
        (dict(i0=0), "i0"),
        (dict(p_bar=0), "p_bar"),
        (dict(i0=359990, p_bar=25), "i0 \\+ p_bar"),
        (dict(virulence=True), "virulence"),
        (dict(gamma=True), "gamma"),
        (dict(virulence="x"), "virulence"),
        (dict(virulence=None), "virulence"),
        (dict(gamma=[2.0]), "gamma"),
    ],
)
def test_validate_rejects_bad_params(codered_fixed, overrides, message):
    with pytest.raises(ScenarioError, match=message):
        validate(dataclasses.replace(codered_fixed, **overrides))


def test_validate_allows_unpatched_without_p_bar(codered_nopatch):
    assert validate(codered_nopatch) is codered_nopatch


def test_initial_state_counts(codered_fixed, codered_nopatch):
    st = initial_state(codered_fixed)
    assert (st.s, st.i, st.p) == (359950.0, 25.0, 25.0)
    st = initial_state(codered_nopatch)
    assert (st.s, st.i, st.p) == (359975.0, 25.0, 0.0)


def test_itu_to_wallclock_divides_by_virulence(codered_fixed):
    assert itu_to_wallclock(3.6, codered_fixed) == pytest.approx(2.0)
    tv = TimeValue.from_itu(13.4, codered_fixed)
    assert tv.itu == 13.4
    assert tv.wallclock == pytest.approx(13.4 / 1.8)


def _toy_trajectory(params, source=TrajectorySource.CLOSED_FORM, **kwargs):
    n = params.n_hosts
    t = np.array([0.0, 1.0, 2.0])
    i = np.array([5.0, 50.0, 400.0])
    p = np.array([0.0, 1.0, 2.0])
    s = n - i - p
    return Trajectory(t_itu=t, s=s, i=i, p=p, params=params, source=source, **kwargs)


def test_trajectory_accessors():
    params = ScenarioParams(
        n_hosts=1000, virulence=2.0, i0=5, defense=DefenseKind.NO_PATCHING
    )
    traj = _toy_trajectory(params)
    assert len(traj) == 3
    st = traj.state_at(1)
    assert (st.s, st.i, st.p) == (949.0, 50.0, 1.0)
    np.testing.assert_allclose(traj.t_wallclock(), traj.t_itu / 2.0)
    assert traj.halt_itu is None


def test_conservation_error_and_tolerance():
    params = ScenarioParams(
        n_hosts=1000, virulence=2.0, i0=5, defense=DefenseKind.NO_PATCHING
    )
    traj = _toy_trajectory(params)
    assert conservation_error(traj) == 0.0
    assert conservation_tolerance(TrajectorySource.STOCHASTIC_RUN, 1000) == 0.0
    for src in (
        TrajectorySource.CLOSED_FORM,
        TrajectorySource.INTEGRATED,
        TrajectorySource.ENSEMBLE_MEAN,
    ):
        assert conservation_tolerance(src, 1000) == pytest.approx(1e-9 * 1000)


def test_validate_trajectory_passes_clean(codered_nopatch):
    traj = _toy_trajectory(codered_nopatch)
    assert validate_trajectory(traj) is traj


def test_validate_trajectory_rejects_defects():
    params = ScenarioParams(
        n_hosts=1000, virulence=2.0, i0=5, defense=DefenseKind.NO_PATCHING
    )
    good = _toy_trajectory(params)

    broken = Trajectory(
        t_itu=np.array([0.0, 1.0, 1.0]),
        s=good.s,
        i=good.i,
        p=good.p,
        params=params,
        source=good.source,
    )
    with pytest.raises(ValueError, match="increasing"):
        validate_trajectory(broken)

    leaky = Trajectory(
        t_itu=good.t_itu,
        s=good.s + 1.0,
        i=good.i,
        p=good.p,
        params=params,
        source=good.source,
    )
    with pytest.raises(ValueError, match="conservation"):
        validate_trajectory(leaky)

    negative = Trajectory(
        t_itu=good.t_itu,
        s=good.s + good.i + 1.0,
        i=-np.ones(3),
        p=good.p,
        params=params,
        source=good.source,
    )
    with pytest.raises(ValueError, match="negative"):
        validate_trajectory(negative)

    empty = Trajectory(
        t_itu=np.array([]),
        s=np.array([]),
        i=np.array([]),
        p=np.array([]),
        params=params,
        source=good.source,
    )
    with pytest.raises(ValueError, match="no samples"):
        validate_trajectory(empty)

    # Every comparison with NaN is false, so each check must fail on one.
    nan = np.full(3, np.nan)
    nan_times = Trajectory(t_itu=nan, s=good.s, i=good.i, p=good.p, params=params,
                           source=good.source)
    with pytest.raises(ValueError, match="increasing"):
        validate_trajectory(nan_times)
    nan_states = Trajectory(t_itu=good.t_itu, s=nan, i=nan, p=nan, params=params,
                            source=good.source)
    with pytest.raises(ValueError, match="conservation"):
        validate_trajectory(nan_states)


def test_all_names_every_public_name_of_the_package():
    # Both ways: a stale export in __all__ fails, and so does a public
    # class, function or table the package binds but leaves out of __all__.
    public = [name for name, obj in vars(wormsim).items()
              if not name.startswith("_") and not inspect.ismodule(obj)]
    assert sorted(wormsim.__all__) == sorted(public)
