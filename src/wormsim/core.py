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

# Conservation tolerance for fluid-model trajectories, expressed as a
# fraction of N.  Stochastic runs must conserve hosts exactly.
FLUID_CONSERVATION_TOL = 1e-9


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
        p_bar: initially patched hosts; for FIXED_SERVERS also the
            number of patch servers, which caps the patching workforce.

    Building one (``dataclasses.replace`` too) runs ``validate``.
    """

    n_hosts: int
    virulence: float
    i0: int
    defense: DefenseKind
    gamma: float = 1.0
    p_bar: int = 0

    def __post_init__(self):
        validate(self)


def _is_count(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    """A finite real above zero; a bool or any non-real value is not."""
    real = _is_count(value) or isinstance(value, (float, np.floating))
    return real and 0.0 < value < np.inf


def validate(params: ScenarioParams) -> ScenarioParams:
    """Check scenario invariants, returning the params unchanged.

    Raises ScenarioError naming the first violated invariant.
    """
    if not _is_count(params.n_hosts) or params.n_hosts <= 0:
        raise ScenarioError("n_hosts must be a positive integer")
    if not _is_positive(params.virulence):
        raise ScenarioError("virulence must be positive")
    if not _is_positive(params.gamma):
        raise ScenarioError("gamma must be positive")
    if not _is_count(params.i0) or params.i0 < 1:
        raise ScenarioError("i0 must be an integer >= 1")
    patched = params.defense is not DefenseKind.NO_PATCHING
    if patched and (not _is_count(params.p_bar) or params.p_bar < 1):
        raise ScenarioError("p_bar must be an integer >= 1 when patching is enabled")
    p0 = params.p_bar if patched else 0
    if params.i0 + p0 >= params.n_hosts:
        raise ScenarioError("i0 + p_bar >= n_hosts")
    return params


@dataclass(frozen=True)
class PopulationState:
    """One (S, I, P) host-count triple."""

    s: float
    i: float
    p: float


def initial_state(params: ScenarioParams) -> PopulationState:
    """Effective state at t = 0: (N - I0 - P0, I0, P0), P0 = 0 unpatched."""
    p0 = float(params.p_bar) if params.defense is not DefenseKind.NO_PATCHING else 0.0
    return PopulationState(
        s=float(params.n_hosts) - params.i0 - p0, i=float(params.i0), p=p0
    )


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

    def __len__(self) -> int:
        return len(self.t_itu)

    def state_at(self, k: int) -> PopulationState:
        return PopulationState(s=float(self.s[k]), i=float(self.i[k]), p=float(self.p[k]))

    def t_wallclock(self) -> np.ndarray:
        return self.t_itu / self.params.virulence


def conservation_error(traj: Trajectory) -> float:
    """Largest deviation of S + I + P from N over the trajectory, in hosts."""
    total = traj.s + traj.i + traj.p
    return float(np.max(np.abs(total - traj.params.n_hosts)))


def conservation_tolerance(source: TrajectorySource, n_hosts: int) -> float:
    """Permitted conservation slack: zero for raw stochastic runs."""
    if source is TrajectorySource.STOCHASTIC_RUN:
        return 0.0
    return FLUID_CONSERVATION_TOL * n_hosts


def validate_trajectory(traj: Trajectory) -> Trajectory:
    """Assert the structural invariants every produced trajectory obeys; NaN fails each."""
    if len(traj.t_itu) == 0:
        raise ValueError("trajectory has no samples")
    if not (len(traj.t_itu) == len(traj.s) == len(traj.i) == len(traj.p)):
        raise ValueError("trajectory arrays have mismatched lengths")
    if not (np.isfinite(traj.t_itu).all() and (np.diff(traj.t_itu) > 0.0).all()):
        raise ValueError("trajectory times must be strictly increasing")
    tol = conservation_tolerance(traj.source, traj.params.n_hosts)
    err = conservation_error(traj)
    if not err <= tol:
        raise ValueError(
            f"host conservation violated: |S+I+P-N| = {err:g} > tol {tol:g}"
        )
    if not all(float(np.min(column)) >= -tol for column in (traj.s, traj.i, traj.p)):
        raise ValueError("trajectory has a negative compartment")
    return traj
