"""Fixed-step RK4 integration of the fluid models.

A pure-Python kernel advances (S, I, P) with classic 4th-order
Runge-Kutta at a fixed ITU step, recording every ``sample_stride``-th
state.  Its right-hand side is ``fluid._deriv``, the one that
``fluid.rhs`` evaluates.  Integration halts early once the infected
compartment falls below half a host while shrinking: the fluid
infection is extinct at sub-host resolution and nothing further can
change the epidemic's course.  The halt time is recorded on the
trajectory.

Fixed stepping (rather than an adaptive library solver) keeps runs
bit-reproducible across platforms and makes the convergence order
directly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ScenarioParams,
    Trajectory,
    TrajectorySource,
    _is_positive,
    initial_state,
    validate,
)
from .fluid import _DEFENSE_CODE, _deriv

MAX_DT_ITU = 0.01

# Kernel exit codes.
_RAN_TO_END = 0
_HALTED_EXTINCT = 1
_DIVERGED = 2

# Compartments below this many hosts are float residue; flushing them to
# exact zero avoids denormal arithmetic, which is an order of magnitude
# slower and can keep a dead compartment limping along for ever.
_FLUSH_HOSTS = 1e-30


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings (all times in ITU)."""

    t_end_itu: float
    dt_itu: float = 0.001
    sample_stride: int = 10


def validate_config(config: IntegratorConfig) -> IntegratorConfig:
    if not _is_positive(config.t_end_itu):
        raise ValueError("t_end_itu must be positive")
    if not _is_positive(config.dt_itu):
        raise ValueError("dt_itu must be positive")
    if config.dt_itu > MAX_DT_ITU:
        raise ValueError(f"dt_itu must be <= {MAX_DT_ITU} ITU")
    stride = config.sample_stride
    if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
        raise ValueError("sample_stride must be an integer >= 1")
    return config


def _rk4_kernel(defense, n, gamma, p_bar, s, i, p, dt, n_steps, stride,
                out_t, out_s, out_i, out_p):
    """Advance n_steps and fill sample arrays.

    Returns (samples_written, status, last_step) where status is one of
    the module exit codes and last_step the step index of the final
    state (the diverging step when status is _DIVERGED).
    """
    out_t[0] = 0.0
    out_s[0] = s
    out_i[0] = i
    out_p[0] = p
    count = 1
    d1s, d1i, d1p = _deriv(defense, n, gamma, p_bar, s, i, p)
    half = 0.5 * dt
    sixth = dt / 6.0
    for step in range(1, n_steps + 1):
        k2s, k2i, k2p = _deriv(defense, n, gamma, p_bar,
                               s + half * d1s, i + half * d1i, p + half * d1p)
        k3s, k3i, k3p = _deriv(defense, n, gamma, p_bar,
                               s + half * k2s, i + half * k2i, p + half * k2p)
        k4s, k4i, k4p = _deriv(defense, n, gamma, p_bar,
                               s + dt * k3s, i + dt * k3i, p + dt * k3p)
        s = s + sixth * (d1s + 2.0 * (k2s + k3s) + k4s)
        i = i + sixth * (d1i + 2.0 * (k2i + k3i) + k4i)
        p = p + sixth * (d1p + 2.0 * (k2p + k3p) + k4p)
        if not (math.isfinite(s) and math.isfinite(i) and math.isfinite(p)):
            return count, _DIVERGED, step
        # Clamp undershoot (and sub-physical residue) to exact 0, repaying
        # the dominant compartment so S + I + P stays exactly conserved.
        if s < _FLUSH_HOSTS:
            if i >= p:
                i += s
            else:
                p += s
            s = 0.0
        if i < _FLUSH_HOSTS:
            if s >= p:
                s += i
            else:
                p += i
            i = 0.0
        if p < _FLUSH_HOSTS:
            if s >= i:
                s += p
            else:
                i += p
            p = 0.0
        d1s, d1i, d1p = _deriv(defense, n, gamma, p_bar, s, i, p)
        t = step * dt
        if i < 0.5 and d1i < 0.0:
            out_t[count] = t
            out_s[count] = s
            out_i[count] = i
            out_p[count] = p
            return count + 1, _HALTED_EXTINCT, step
        if step % stride == 0 or step == n_steps:
            out_t[count] = t
            out_s[count] = s
            out_i[count] = i
            out_p[count] = p
            count += 1
    return count, _RAN_TO_END, n_steps


def integrate(params: ScenarioParams, config: IntegratorConfig) -> Trajectory:
    """Integrate the scenario's fluid model over [0, t_end_itu].

    The horizon is rounded up to a whole number of steps.  Raises
    RuntimeError naming the first bad step if the state stops being
    finite (cannot happen for in-contract scenarios, but the guard
    keeps misuse loud rather than silent).  Raises ScenarioError for
    params that break a model invariant.
    """
    validate(params)
    validate_config(config)
    state = initial_state(params)
    n_steps = max(1, int(math.ceil(config.t_end_itu / config.dt_itu - 1e-9)))
    max_samples = n_steps // config.sample_stride + 3
    out_t = np.empty(max_samples)
    out_s = np.empty(max_samples)
    out_i = np.empty(max_samples)
    out_p = np.empty(max_samples)
    count, status, last_step = _rk4_kernel(
        _DEFENSE_CODE[params.defense],
        float(params.n_hosts), params.gamma, float(params.p_bar),
        state.s, state.i, state.p,
        config.dt_itu, n_steps, config.sample_stride,
        out_t, out_s, out_i, out_p,
    )
    if status == _DIVERGED:
        raise RuntimeError(
            f"integration diverged (non-finite state) at step {last_step}"
        )
    halt = last_step * config.dt_itu if status == _HALTED_EXTINCT else None
    return Trajectory(
        t_itu=out_t[:count].copy(),
        s=out_s[:count].copy(),
        i=out_i[:count].copy(),
        p=out_p[:count].copy(),
        params=params,
        source=TrajectorySource.INTEGRATED,
        halt_itu=halt,
    )
