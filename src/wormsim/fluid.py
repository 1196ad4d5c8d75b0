"""Mean-field (fluid) models of worm spread under each defense.

The right-hand side is expressed in ITU, where the worm's infection
term is always S*I/N.  The two defenses add patching flows:

  * fixed servers: a constant workforce of p_bar servers patches
    unpatched hosts at total rate gamma * p_bar, split between S and I
    in proportion to their share of the unpatched pool.  Once fewer
    than p_bar unpatched hosts remain, the workforce is throttled to
    gamma * (S + I) so per-host patch rates stay bounded.
  * peer-to-peer: every patched host spreads the patch like a
    counter-worm, at rate gamma relative to the worm, so the total
    patching flow is (gamma/N) * (S + I) * P.

``rhs`` evaluates ``_deriv``, the same kernel the RK4 integrator steps
with, so the rates checked here are the rates that get integrated.

Each model has an exact closed-form solution for I(t) (and P(t) for the
peer-to-peer patch sigmoid), implemented here in overflow-safe form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DefenseKind,
    PopulationState,
    ScenarioParams,
    Trajectory,
    TrajectorySource,
    validate,
)


@dataclass(frozen=True)
class Derivative:
    """Instantaneous flow rates (dS/dt, dI/dt, dP/dt) in hosts per ITU."""

    ds_dt: float
    di_dt: float
    dp_dt: float


# ---------------------------------------------------------------------------
# Right-hand side
# ---------------------------------------------------------------------------

_DEFENSE_CODE = {
    DefenseKind.NO_PATCHING: 0,
    DefenseKind.FIXED_SERVERS: 1,
    DefenseKind.PEER_TO_PEER: 2,
}


def _deriv(defense, n, gamma, p_bar, s, i, p):
    """(dS/dt, dI/dt, dP/dt) on floats; ``defense`` is a _DEFENSE_CODE value."""
    infect = s * i / n
    if defense == 0:
        return -infect, infect, 0.0
    if defense == 1:
        unpatched = s + i
        if unpatched <= 0.0:
            return 0.0, 0.0, 0.0
        # Workforce saturates when fewer targets than servers remain.
        work = p_bar if unpatched >= p_bar else unpatched
        total = gamma * work
        return (-infect - total * s / unpatched,
                infect - total * i / unpatched,
                total)
    rate = gamma / n * p
    return -infect - rate * s, infect - rate * i, rate * (s + i)


def rhs(state: PopulationState, params: ScenarioParams) -> Derivative:
    """Model right-hand side for the scenario's defense.

    Raises ValueError for fixed servers at S + I = 0: the per-host patch
    rate divides by the unpatched pool, so the derivative is undefined
    there (the integrator's kernel treats that state as at rest).
    """
    if params.defense is DefenseKind.FIXED_SERVERS and state.s + state.i <= 0.0:
        raise ValueError("derivative undefined: s + i = 0")
    code = _DEFENSE_CODE[params.defense]
    n, p_bar = float(params.n_hosts), float(params.p_bar)
    return Derivative(*_deriv(code, n, params.gamma, p_bar, state.s, state.i, state.p))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_no_patch(t, params: ScenarioParams):
    """Exact sigmoid I(t) of the simple epidemic.

    Written as I0 / (i0_frac + (1 - i0_frac) * exp(-t)) so large t
    saturates cleanly at N instead of overflowing.
    Accepts scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    frac = params.i0 / params.n_hosts
    out = params.i0 / (frac + (1.0 - frac) * np.exp(-t))
    return float(out) if out.ndim == 0 else out


def fixed_validity_window(params: ScenarioParams) -> float:
    """Horizon (N - 2*p_bar) / (gamma * p_bar) of the fixed-servers closed form.

    Beyond this time the linear patch ramp P(t) = p_bar + gamma*p_bar*t
    underlying the solution would exceed the unpatched population.
    """
    return (params.n_hosts - 2.0 * params.p_bar) / (params.gamma * params.p_bar)


def closed_form_fixed(t, params: ScenarioParams):
    """Exact I(t) under fixed-servers patching, valid on [0, window].

    Uses the equivalent form (N - p_bar - gamma*p_bar*t) / (1 + C*exp(-X))
    with X = t*(1 - p_bar/N) - gamma*p_bar*t^2/(2N) and
    C = (N - p_bar)/I0, which never overflows inside the window.

    Raises ValueError for t outside [0, window].
    """
    t = np.asarray(t, dtype=float)
    window = fixed_validity_window(params)
    if np.any(t < 0.0) or np.any(t > window * (1.0 + 1e-12)):
        raise ValueError(
            f"t outside closed-form validity window [0, {window:g}]"
        )
    n = float(params.n_hosts)
    gp = params.gamma * params.p_bar
    x = t * (1.0 - params.p_bar / n) - gp * t * t / (2.0 * n)
    c = (n - params.p_bar) / params.i0
    out = (n - params.p_bar - gp * t) / (1.0 + c * np.exp(-x))
    return float(out) if out.ndim == 0 else out


def closed_form_p2p_patch(t, params: ScenarioParams):
    """Exact patched-host sigmoid P(t) under peer-to-peer patching.

    The patch spreads through all N hosts at rate gamma regardless of
    infection status, so P(t) is the simple-epidemic sigmoid with
    initial value p_bar and time scaled by gamma.
    """
    t = np.asarray(t, dtype=float)
    frac = params.p_bar / params.n_hosts
    out = params.p_bar / (frac + (1.0 - frac) * np.exp(-params.gamma * t))
    return float(out) if out.ndim == 0 else out


def closed_form_p2p(t, params: ScenarioParams):
    """Exact I(t) under peer-to-peer patching, valid for all t >= 0.

    I(t) = 1 / V(t) where V collects the patch sigmoid's growth:

        V(t) = A*exp(g*t) + 1/N + (1/I0)*exp(g*t)*B(t)^(1 + 1/g)
        A    = p_bar / (N^2 * (1 - p_bar/N))
        B(t) = p_bar/N + (1 - p_bar/N)*exp(-g*t)

    with g = gamma.  For extremely large gamma*t the exponentials
    overflow to inf and the returned infection level underflows to 0.0,
    far past extinction.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    n = float(params.n_hosts)
    g = params.gamma
    pfrac = params.p_bar / n
    a = params.p_bar / (n * n * (1.0 - pfrac))
    with np.errstate(over="ignore"):
        egt = np.exp(g * t)
        b = pfrac + (1.0 - pfrac) * np.exp(-g * t)
        v = a * egt + 1.0 / n + egt * np.power(b, 1.0 + 1.0 / g) / params.i0
        out = 1.0 / v
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Closed-form trajectories
# ---------------------------------------------------------------------------

def closed_form_trajectory(params: ScenarioParams, t_grid) -> Trajectory:
    """Evaluate the scenario's closed forms on a time grid.

    S is reconstructed as N - I - P; float residue that would push S
    below zero is folded into P so hosts are conserved exactly.
    For FIXED_SERVERS the grid must lie inside the validity window.
    Raises ScenarioError for params that break a model invariant.
    """
    validate(params)
    t = np.asarray(t_grid, dtype=float)
    n = float(params.n_hosts)
    if params.defense is DefenseKind.NO_PATCHING:
        i = np.asarray(closed_form_no_patch(t, params))
        p = np.zeros_like(i)
    elif params.defense is DefenseKind.FIXED_SERVERS:
        i = np.asarray(closed_form_fixed(t, params))
        p = params.p_bar + params.gamma * params.p_bar * t
    else:
        i = np.asarray(closed_form_p2p(t, params))
        p = np.asarray(closed_form_p2p_patch(t, params))
    s = n - i - p
    neg = s < 0.0
    if np.any(neg):
        p = np.where(neg, p + s, p)
        s = np.where(neg, 0.0, s)
    return Trajectory(
        t_itu=t, s=s, i=i, p=p, params=params,
        source=TrajectorySource.CLOSED_FORM,
    )
