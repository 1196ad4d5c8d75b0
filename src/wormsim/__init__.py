"""Worm propagation and patch-dissemination modeling toolkit.

Compartment fluid models for an undefended scanning worm, a fixed set
of patch servers, and peer-to-peer patch dissemination, together with
closed-form solutions, analytic response metrics, a fixed-step RK4
integrator, exact-jump stochastic simulation, and network-telescope
sizing rules.  All dynamics run in infection time units (ITU): one ITU
is the mean time an infected host needs to find one more victim, so
contact rates are normalized to 1 and wallclock time is recovered by
dividing by the virulence.
"""

from .core import (
    DefenseKind,
    ScenarioError,
    ScenarioParams,
    TimeValue,
    Trajectory,
    TrajectorySource,
    initial_state,
    itu_to_wallclock,
    validate_trajectory,
)
from .fluid import (
    closed_form_fixed,
    closed_form_no_patch,
    closed_form_p2p,
    closed_form_p2p_patch,
    closed_form_trajectory,
    fixed_validity_window,
    rhs,
)
from .integrate import IntegratorConfig, integrate
from .metrics import (
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
from .monitoring import (
    detection_probability,
    expected_scans,
    monitors_for_detection,
    thumb_rule_monitors,
)
from .scenarios import BUILTIN_SCENARIOS, builtin_names, builtin_scenario
from .stochastic import (
    EnsembleResult,
    StochasticConfig,
    detection_sim,
    ensemble,
    monitor_scan_counts,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SCENARIOS",
    "DefenseKind",
    "EnsembleResult",
    "IntegratorConfig",
    "ScenarioError",
    "ScenarioParams",
    "StochasticConfig",
    "TimeValue",
    "Trajectory",
    "TrajectorySource",
    "builtin_names",
    "builtin_scenario",
    "closed_form_fixed",
    "closed_form_no_patch",
    "closed_form_p2p",
    "closed_form_p2p_patch",
    "closed_form_trajectory",
    "default_extinction_threshold",
    "detection_probability",
    "detection_sim",
    "ensemble",
    "expected_scans",
    "fixed_extinction_time",
    "fixed_peak_time",
    "fixed_validity_window",
    "initial_state",
    "integrate",
    "itu_to_wallclock",
    "monitor_scan_counts",
    "monitors_for_detection",
    "p2p_extinction_time",
    "p2p_peak_infected",
    "p2p_peak_time",
    "rhs",
    "simulate",
    "spread_time",
    "summarize",
    "thumb_rule_monitors",
    "trajectory_extinction",
    "trajectory_peak",
    "trajectory_spread_time",
    "validate_trajectory",
]
