"""Fixed-step RK4 integration of the fluid models.

A pure-Python kernel advances (S, I, P) with classic 4th-order
Runge-Kutta at a fixed ITU step, recording every ``sample_stride``-th
state.  Its stages evaluate ``fluid.rhs`` inline, with no call in the
step loop and the same float operations in the same order, so a step
equals one written by hand from ``fluid.rhs``.  Integration halts
early once the infected compartment falls below half a host while
shrinking, or has been flushed to exactly zero (where it no longer
shrinks: dI/dt is 0 there): the fluid infection is extinct at sub-host
resolution and nothing further can change the epidemic's course.  The
halt time is recorded on the trajectory.

Fixed stepping (rather than an adaptive library solver) keeps runs
bit-reproducible across platforms and makes the convergence order
directly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DefenseKind,
    ScenarioParams,
    Trajectory,
    TrajectorySource,
    _is_count,
    _is_positive,
    initial_state,
    validate,
)

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
    if not _is_count(stride) or stride < 1:
        raise ValueError("sample_stride must be an integer >= 1")
    return config


def _rk4_kernel(fixed, g_n, n, gamma, p_bar, s, i, p, dt, n_steps, stride,
                out_t, out_s, out_i, out_p):
    """Advance n_steps and fill sample arrays.

    Every stage computes the ``fluid.rhs`` rates inline, operation for
    operation: fixed servers if ``fixed`` (at rest once S + I <= 0),
    else mass-action patching at rate ``g_n * P``, where g_n is
    gamma / N for peer-to-peer and 0.0 without patching.

    Returns (samples_written, status, last_step) where status is one of
    the module exit codes and last_step the step index of the final
    state (the diverging step when status is _DIVERGED).
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    count = 0
    # Pass 0 only evaluates the slopes at, and samples, the initial state.
    for step in range(n_steps + 1):
        if step:
            a, b, c = s + half * d1s, i + half * d1i, p + half * d1p
            infect = a * b / n
            if fixed:
                u = a + b
                if u <= 0.0:
                    k2s = k2i = k2p = 0.0
                else:
                    k2p = gamma * (p_bar if u >= p_bar else u)
                    k2s, k2i = -infect - k2p * a / u, infect - k2p * b / u
            else:
                rate = g_n * c
                k2s, k2i, k2p = -infect - rate * a, infect - rate * b, rate * (a + b)
            a, b, c = s + half * k2s, i + half * k2i, p + half * k2p
            infect = a * b / n
            if fixed:
                u = a + b
                if u <= 0.0:
                    k3s = k3i = k3p = 0.0
                else:
                    k3p = gamma * (p_bar if u >= p_bar else u)
                    k3s, k3i = -infect - k3p * a / u, infect - k3p * b / u
            else:
                rate = g_n * c
                k3s, k3i, k3p = -infect - rate * a, infect - rate * b, rate * (a + b)
            a, b, c = s + dt * k3s, i + dt * k3i, p + dt * k3p
            infect = a * b / n
            if fixed:
                u = a + b
                if u <= 0.0:
                    k4s = k4i = k4p = 0.0
                else:
                    k4p = gamma * (p_bar if u >= p_bar else u)
                    k4s, k4i = -infect - k4p * a / u, infect - k4p * b / u
            else:
                rate = g_n * c
                k4s, k4i, k4p = -infect - rate * a, infect - rate * b, rate * (a + b)
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
        infect = s * i / n
        if fixed:
            u = s + i
            if u <= 0.0:
                d1s = d1i = d1p = 0.0
            else:
                d1p = gamma * (p_bar if u >= p_bar else u)
                d1s, d1i = -infect - d1p * s / u, infect - d1p * i / u
        else:
            rate = g_n * p
            d1s, d1i, d1p = -infect - rate * s, infect - rate * i, rate * (s + i)
        halted = i < 0.5 and (d1i < 0.0 or i == 0.0)
        if halted or step % stride == 0 or step == n_steps:
            out_t[count] = step * dt
            out_s[count] = s
            out_i[count] = i
            out_p[count] = p
            count += 1
            if halted:
                return count, _HALTED_EXTINCT, step
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
    out = np.empty((4, n_steps // config.sample_stride + 3))  # rows t, S, I, P
    n = float(params.n_hosts)
    g_n = params.gamma / n if params.defense is DefenseKind.PEER_TO_PEER else 0.0
    count, status, last_step = _rk4_kernel(
        params.defense is DefenseKind.FIXED_SERVERS, g_n,
        n, params.gamma, float(params.p_bar),
        state.s, state.i, state.p,
        config.dt_itu, n_steps, config.sample_stride, *out,
    )
    if status == _DIVERGED:
        raise RuntimeError(
            f"integration diverged (non-finite state) at step {last_step}"
        )
    halt = last_step * config.dt_itu if status == _HALTED_EXTINCT else None
    t_itu, s, i, p = out[:, :count].copy()
    return Trajectory(t_itu=t_itu, s=s, i=i, p=p, params=params,
                      source=TrajectorySource.INTEGRATED, halt_itu=halt)
