"""Analytic predictors and trajectory summary extraction.

The analytic functions evaluate the asymptotic laws each defense obeys:
spread time of the undefended worm, peak timing and extinction horizon
under fixed patch servers, and peak timing/size and extinction horizon
under peer-to-peer patching.  The trajectory functions extract the same
quantities numerically from any sampled trajectory so the two can be
compared on equal footing.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import DefenseKind, ScenarioParams, TimeValue, Trajectory, initial_state
from .core import _require_defense
from .fluid import fixed_validity_window


# ---------------------------------------------------------------------------
# Analytic predictors
# ---------------------------------------------------------------------------

def spread_time(params: ScenarioParams, kappa: float) -> TimeValue:
    """ITU needed for the undefended worm to reach a fraction kappa of N.

    Inverts the simple-epidemic sigmoid:
    t = ln(kappa / (1 - kappa)) + ln((N - I0) / I0).
    Requires 0 < kappa < 1.
    """
    _require_defense(params, DefenseKind.NO_PATCHING, "spread_time")
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly between 0 and 1")
    t = math.log(kappa / (1.0 - kappa)) + math.log(
        (params.n_hosts - params.i0) / params.i0
    )
    return TimeValue.from_itu(t, params)


def fixed_peak_time(params: ScenarioParams) -> TimeValue:
    """Peak-infection time under fixed servers: 2*ln(N / sqrt(g*Pb*I0))."""
    _require_defense(params, DefenseKind.FIXED_SERVERS, "fixed_peak_time")
    gp = params.gamma * params.p_bar
    t = 2.0 * math.log(params.n_hosts / math.sqrt(gp * params.i0))
    return TimeValue.from_itu(t, params)


def fixed_extinction_time(params: ScenarioParams) -> TimeValue:
    """Time for fixed servers to patch everything: (N - 2*Pb)/(g*Pb), N > 2*Pb."""
    _require_defense(params, DefenseKind.FIXED_SERVERS, "fixed_extinction_time")
    return TimeValue.from_itu(fixed_validity_window(params), params)


def p2p_peak_time(params: ScenarioParams) -> TimeValue:
    """Peak-infection time under peer-to-peer patching: (1/g)*ln(N/(g*Pb))."""
    _require_defense(params, DefenseKind.PEER_TO_PEER, "p2p_peak_time")
    g = params.gamma
    t = math.log(params.n_hosts / (g * params.p_bar)) / g
    return TimeValue.from_itu(t, params)


def p2p_peak_infected(params: ScenarioParams) -> Optional[float]:
    """Asymptotic peak size under peer-to-peer patching, or None for gamma <= 1.

    I_max = g * I0 * N^(1/g) / (Pb^(1/g) * (1+g)^(1 + 1/g)); the peak
    grows like N^(1/g), so any patch rate above the worm's turns a
    Theta(N) epidemic into a vanishing fraction of the population.  For
    gamma <= 1 the integral behind the law diverges and there is no
    analytic peak; extract it from a trajectory instead.
    """
    _require_defense(params, DefenseKind.PEER_TO_PEER, "p2p_peak_infected")
    g = params.gamma
    if g <= 1.0:
        return None
    return (
        g * params.i0 * params.n_hosts ** (1.0 / g)
        / (params.p_bar ** (1.0 / g) * (1.0 + g) ** (1.0 + 1.0 / g))
    )


def p2p_extinction_time(params: ScenarioParams) -> TimeValue:
    """Infection die-out horizon under peer-to-peer patching.

    t = (1/g) * (1 + 1/g) * ln N, the time for the closed form to fall
    back to a handful of hosts.
    """
    _require_defense(params, DefenseKind.PEER_TO_PEER, "p2p_extinction_time")
    g = params.gamma
    t = (1.0 + 1.0 / g) * math.log(params.n_hosts) / g
    return TimeValue.from_itu(t, params)


def default_extinction_threshold(params: ScenarioParams) -> float:
    """Host level below which the infection counts as finished: max(initial P, 1)."""
    return max(initial_state(params)[2], 1.0)


# ---------------------------------------------------------------------------
# Trajectory extraction
# ---------------------------------------------------------------------------

def _parabolic_vertex(t0, t1, t2, y0, y1, y2):
    """Vertex of the quadratic through three points, or None if degenerate."""
    dd1 = (y1 - y0) / (t1 - t0)
    dd2 = ((y2 - y1) / (t2 - t1) - dd1) / (t2 - t0)
    if not np.isfinite(dd2) or dd2 >= 0.0:
        return None
    t_star = 0.5 * (t0 + t1) - dd1 / (2.0 * dd2)
    if not t0 <= t_star <= t2:
        return None
    y_star = y0 + dd1 * (t_star - t0) + dd2 * (t_star - t0) * (t_star - t1)
    return t_star, y_star


def trajectory_peak(traj: Trajectory) -> tuple[TimeValue, float]:
    """Peak infection (time, level) with sub-sample parabolic refinement.

    Interior peaks are refined through the three bracketing samples;
    boundary peaks (e.g. a monotone undefended epidemic) return the
    boundary sample itself.
    """
    k = int(np.argmax(traj.i))
    t_k = float(traj.t_itu[k])
    y_k = float(traj.i[k])
    if 0 < k < len(traj.i) - 1:
        vertex = _parabolic_vertex(
            float(traj.t_itu[k - 1]), t_k, float(traj.t_itu[k + 1]),
            float(traj.i[k - 1]), y_k, float(traj.i[k + 1]),
        )
        if vertex is not None:
            t_star, y_star = vertex
            if y_star >= y_k:
                return TimeValue.from_itu(t_star, traj.params), y_star
    return TimeValue.from_itu(t_k, traj.params), y_k


def _crossing(traj: Trajectory, j: int, level: float) -> TimeValue:
    """Time I crosses level between samples j and j + 1, linearly interpolated."""
    t0, t1 = float(traj.t_itu[j]), float(traj.t_itu[j + 1])
    y0, y1 = float(traj.i[j]), float(traj.i[j + 1])
    return TimeValue.from_itu(t0 + (level - y0) / (y1 - y0) * (t1 - t0), traj.params)


def trajectory_extinction(
    traj: Trajectory, threshold: Optional[float] = None
) -> Optional[TimeValue]:
    """Time the infection finally drops below ``threshold`` hosts, or None.

    Finds the last sample at or above the threshold and linearly
    interpolates the downward crossing to the next sample, i.e. the
    entry into the trajectory's final sub-threshold stretch.  If the
    whole trajectory is below the threshold, the first sample time is
    returned; if it ends at or above the threshold, None.  A threshold
    that is not positive raises ValueError.
    """
    if threshold is None:
        threshold = default_extinction_threshold(traj.params)
    if not threshold > 0.0:  # NaN too
        raise ValueError("threshold must be positive")
    above = np.nonzero(traj.i >= threshold)[0]
    if len(above) == 0:
        return TimeValue.from_itu(float(traj.t_itu[0]), traj.params)
    j = int(above[-1])
    if j == len(traj.i) - 1:
        return None
    return _crossing(traj, j, threshold)


def trajectory_spread_time(traj: Trajectory, kappa: float) -> Optional[TimeValue]:
    """First time the trajectory's infection reaches kappa * N, or None if never.

    Linear interpolation between the bracketing samples.  A kappa outside
    (0, 1) raises ValueError.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie strictly between 0 and 1")
    level = kappa * traj.params.n_hosts
    reached = np.nonzero(traj.i >= level)[0]
    if len(reached) == 0:
        return None
    j = int(reached[0])
    if j == 0:
        return TimeValue.from_itu(float(traj.t_itu[0]), traj.params)
    return _crossing(traj, j - 1, level)


def summarize(
    traj: Trajectory,
    threshold: Optional[float] = None,
    kappas: Sequence[float] = (),
) -> dict:
    """The headline numbers of a trajectory, keyed as report.json keys them.

    Returns {"peak_time", "peak_infected", "extinction_time"}, the last
    None if the trajectory ends at or above ``threshold`` (by default
    ``default_extinction_threshold``).  When kappas are given it adds
    "spread_time": {f"{kappa:g}": the time I first reaches kappa * N, or
    None if it never does}.
    """
    peak_time, peak_infected = trajectory_peak(traj)
    summary = {"peak_time": peak_time, "peak_infected": peak_infected,
               "extinction_time": trajectory_extinction(traj, threshold)}
    if kappas:
        summary["spread_time"] = {
            f"{kappa:g}": trajectory_spread_time(traj, kappa) for kappa in kappas}
    return summary
