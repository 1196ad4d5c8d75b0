"""Core types and unit conventions for worm/patch dynamics.

All internal dynamics run in infection time units (ITU): time is rescaled
so the worm's pairwise infection rate is 1, which makes every trajectory
shape-invariant under changes of scan virulence.  The virulence parameter
(infections per wall-clock unit at the epidemic's start) is used only to
convert ITU back to wall-clock time for reporting.

Population state is a triple (S, I, P): susceptible, infected, patched
host counts summing to the population size N.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np


class DefenseKind(Enum):
    """Patch dissemination strategy active in a scenario."""

    NO_PATCHING = "no_patching"
    FIXED_SERVERS = "fixed_servers"
    PEER_TO_PEER = "peer_to_peer"


class TrajectorySource(Enum):
    """How a trajectory was produced."""

    CLOSED_FORM = "closed_form"
    INTEGRATED = "integrated"
    STOCHASTIC_RUN = "stochastic_run"
    ENSEMBLE_MEAN = "ensemble_mean"


class ScenarioError(ValueError):
    """Raised when scenario parameters violate a model invariant."""


@dataclass(frozen=True)
class ScenarioParams:
    """Immutable description of one outbreak scenario.

    Attributes:
        n_hosts: population size N (vulnerable hosts).
        virulence: infections per wall-clock unit per infected host at
            t = 0; strictly positive.  Only used for unit conversion.
        i0: initially infected hosts, at least 1.
        defense: which patching strategy runs alongside the worm.
        gamma: patching rate relative to the worm's infection rate
            (dimensionless in ITU).
        p_bar: initially patched hosts, an integer >= 0 (>= 1 when patched;
            NO_PATCHING ignores it); for FIXED_SERVERS also the number of
            patch servers, which caps the patching workforce.

    Building one (``dataclasses.replace`` too) checks the invariants and
    raises ScenarioError naming the first one violated.
    """

    n_hosts: int
    virulence: float
    i0: int
    defense: DefenseKind
    gamma: float = 1.0
    p_bar: int = 0

    def __post_init__(self):
        if not isinstance(self.defense, DefenseKind):
            raise ScenarioError("defense must be a DefenseKind")
        if not _is_count(self.n_hosts) or self.n_hosts <= 0:
            raise ScenarioError("n_hosts must be a positive integer")
        if not _is_positive(self.virulence):
            raise ScenarioError("virulence must be positive")
        if not _is_positive(self.gamma):
            raise ScenarioError("gamma must be positive")
        if not _is_count(self.i0) or self.i0 < 1:
            raise ScenarioError("i0 must be an integer >= 1")
        patched = self.defense is not DefenseKind.NO_PATCHING
        if patched and (not _is_count(self.p_bar) or self.p_bar < 1):
            raise ScenarioError("p_bar must be an integer >= 1 when patching is enabled")
        if not _is_count(self.p_bar) or self.p_bar < 0:
            raise ScenarioError("p_bar must be an integer >= 0")
        if patched and not self.gamma * self.p_bar < np.inf:  # the first patch rate
            raise ScenarioError("gamma * p_bar must be finite")
        if self.i0 + (self.p_bar if patched else 0) >= self.n_hosts:
            raise ScenarioError("i0 + p_bar >= n_hosts")


def _is_count(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    """A finite real above zero; a bool or any non-real value is not."""
    real = _is_count(value) or isinstance(value, (float, np.floating))
    return real and 0.0 < value < np.inf


def _times(t):
    """t as a float array (0-d for a scalar); ValueError unless every t >= 0, NaN too."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise ValueError("t must be >= 0")
    return t


def _require_defense(params: ScenarioParams, kind: DefenseKind, what: str) -> None:
    """Require the defense a function is for."""
    if params.defense is not kind:
        raise ValueError(f"{what} applies to {kind.value} scenarios only")


def initial_state(params: ScenarioParams) -> tuple[float, float, float]:
    """Host counts (S, I, P) at t = 0: (N - I0 - P0, I0, P0), P0 = 0 unpatched."""
    p0 = float(params.p_bar) if params.defense is not DefenseKind.NO_PATCHING else 0.0
    return float(params.n_hosts) - params.i0 - p0, float(params.i0), p0


def itu_to_wallclock(t_itu: float, params: ScenarioParams) -> float:
    """Convert a time from ITU to wall-clock units (1 ITU = 1/virulence)."""
    return t_itu / params.virulence


@dataclass(frozen=True)
class TimeValue:
    """A single time carried in both ITU and wall-clock units."""

    itu: float
    wallclock: float

    @classmethod
    def from_itu(cls, t_itu: float, params: ScenarioParams) -> "TimeValue":
        return cls(itu=t_itu, wallclock=itu_to_wallclock(t_itu, params))


@dataclass
class Trajectory:
    """Sampled (S, I, P) states at strictly increasing ITU times.

    Stored as parallel numpy arrays.  ``halt_itu`` records the time an
    integrator or simulator stopped before its configured horizon
    (infection extinct), or None if it ran to the end.
    """

    t_itu: np.ndarray
    s: np.ndarray
    i: np.ndarray
    p: np.ndarray
    params: ScenarioParams
    source: TrajectorySource
    halt_itu: Optional[float] = None


def validate_trajectory(traj: Trajectory) -> Trajectory:
    """Assert the structural invariants every produced trajectory obeys; NaN fails each."""
    if len(traj.t_itu) == 0:
        raise ValueError("trajectory has no samples")
    if not (len(traj.t_itu) == len(traj.s) == len(traj.i) == len(traj.p)):
        raise ValueError("trajectory arrays have mismatched lengths")
    if not (np.isfinite(traj.t_itu).all() and (np.diff(traj.t_itu) > 0.0).all()):
        raise ValueError("trajectory times must be strictly increasing")
    # Hosts are conserved exactly by a single stochastic run, to 1e-9 N otherwise.
    n_hosts = traj.params.n_hosts
    tol = 0.0 if traj.source is TrajectorySource.STOCHASTIC_RUN else 1e-9 * n_hosts
    err = float(np.max(np.abs(traj.s + traj.i + traj.p - n_hosts)))
    if not err <= tol:
        raise ValueError(
            f"host conservation violated: |S+I+P-N| = {err:g} > tol {tol:g}"
        )
    if not all(float(np.min(column)) >= -tol for column in (traj.s, traj.i, traj.p)):
        raise ValueError("trajectory has a negative compartment")
    return traj
