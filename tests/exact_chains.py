"""Exact oracles for the stochastic engines: Markov chain laws solved to
rounding, which the tests hold the samplers and closed forms to.

Not a test module (pytest collects only ``test_*.py``); the test modules
import what they read from it.

The undefended worm's I is a pure-birth chain: it goes k -> k + 1 at
rate lambda_k = k (N - k) / N.  A telescope of M monitors is hit at rate
c k with c = M / N, so the chance of no hit by t is the total mass at t
of the forward equation with killing,

    d pi_k / dt = lambda_{k-1} pi_{k-1} - (lambda_k + c k) pi_k,

started at pi_{i0} = 1 (Norris, *Markov Chains*, 1997, ch. 2).
``_birth_chain`` integrates it with classical RK4 over the first K
states from i0; the mass past state K is bounded by the last state's,
which the tests check is negligible.  The integral of E[I] over [0, t]
(E[I; no hit] under killing) rides along as one more state, so
no_hit_mass, mean_area and moments read one solution.

With patching, the chain's state is (S, I), with P = N - S - I.  From
(S, I) it moves to

    (S - 1, I + 1)  at rate S I / N                 (an infection),
    (S - 1, I)      at rate r(S, I) S / (S + I)     (a susceptible patched),
    (S, I - 1)      at rate r(S, I) I / (S + I)     (an infected patched),

where the total patch rate r is gamma * p_bar while S + I >= p_bar and
gamma * (S + I) below it for fixed servers, and (gamma / N) (S + I) P
for peer-to-peer patching.  exact_law solves its forward equation by
uniformization (Jensen 1953): with L at least every state's total rate,
K = I + Q / L is a stochastic matrix and

    pi(t) = sum_k e^(-L t) (L t)^k / k! * pi(0) K^k,

each term one shifted-array update of the last (Stewart, *Introduction
to the Numerical Solution of Markov Chains*, 1994, ch. 8).

linear_noise solves the linear noise equation of both patched models in
the densities; tests/test_fluid_limit.py states the limit theorems it
rests on.  binomial_tails gives the two tails of a binomial count, for
the tests that count runs.
"""

import math

import numpy as np

from wormsim.core import DefenseKind


def _rk4_step(deriv, y, h):
    """y after one classical RK4 step of size h."""
    a = deriv(y)
    b = deriv(y + h / 2 * a)
    c = deriv(y + h / 2 * b)
    d = deriv(y + h * c)
    return y + h / 6 * (a + 2 * b + 2 * c + d)


def _rk4_at(deriv, y, times, dt):
    """y at each of the increasing times, each segment in equal classical
    RK4 steps of at most dt."""
    out, start = [], 0.0
    for t in times:
        steps = math.ceil((t - start) / dt)
        for _ in range(steps):
            y = _rk4_step(deriv, y, (t - start) / steps)
        out.append(y)
        start = t
    return out


def _birth_chain(n, i0, k_states, monitors, times, dt):
    """The birth chain's levels k, and its law over them and the integral
    of k pi over [0, t] at each of the increasing times: the forward
    equation over the first k_states levels from i0, killed at rate
    (monitors / n) k, in RK4 steps of at most dt."""
    k = i0 + np.arange(k_states, dtype=float)
    birth = k * (n - k) / n
    leave = birth + monitors / n * k

    def deriv(y):
        pi, d = y[:-1], np.empty_like(y)
        d[:-1] = -leave * pi
        d[1:-1] += birth[:-1] * pi[:-1]
        d[-1] = k @ pi
        return d

    y = np.zeros(k_states + 1)
    y[0] = 1.0
    ys = _rk4_at(deriv, y, times, dt)
    return k, [y[:-1] for y in ys], np.array([y[-1] for y in ys])


def no_hit_mass(n, monitors, times, k_states, dt, i0=1):
    """Mass of the killed forward equation at each of the increasing times,
    each segment in equal RK4 steps of at most dt, and the last state's
    mass at the final time."""
    _, pis, _ = _birth_chain(n, i0, k_states, monitors, times, dt)
    return np.array([pi.sum() for pi in pis]), pis[-1][-1]


def mean_area(n, times, k_states, dt, i0=1):
    """The integral of E[I] over [0, t] at each of the increasing times, for
    the chain without killing, and the last state's mass at the final time."""
    _, pis, areas = _birth_chain(n, i0, k_states, 0, times, dt)
    return areas, pis[-1][-1]


def moments(n, i0, times, dt):
    """E[I] and E[I**2] at each of the increasing times, for the whole chain
    without killing (states i0 to N, so nothing is truncated)."""
    k, pis, _ = _birth_chain(n, i0, n - i0 + 1, 0, times, dt)
    return np.array([k @ pi for pi in pis]), np.array([k * k @ pi for pi in pis])


def exact_law(params, times):
    """The law of the patched chain's (S, I) at each of the increasing
    times, as (N+1, N+1) arrays indexed [S, I], and the total mass of
    each, which is 1 up to the Poisson tail and rounding."""
    n = params.n_hosts
    s = np.arange(n + 1.0)[:, None]
    i = np.arange(n + 1.0)[None, :]
    unpatched = s + i
    live = unpatched <= n
    infect = np.where(live, s * i / n, 0.0)
    if params.defense is DefenseKind.FIXED_SERVERS:
        patch = params.gamma * np.minimum(unpatched, params.p_bar)
    else:
        patch = params.gamma / n * unpatched * (n - unpatched)
    share = np.where(live & (unpatched > 0), patch / np.maximum(unpatched, 1.0), 0.0)
    patch_s, patch_i = share * s, share * i
    leave = infect + patch_s + patch_i
    rate = leave.max()
    stay, infect, patch_s, patch_i = (1.0 - leave / rate, infect / rate,
                                      patch_s / rate, patch_i / rate)

    pi = np.zeros((n + 1, n + 1))
    pi[n - params.i0 - params.p_bar, params.i0] = 1.0
    laws = [np.zeros_like(pi) for _ in times]
    last = rate * times[-1]
    for k in range(int(last + 12.0 * math.sqrt(last) + 30.0)):
        for law, t in zip(laws, times):
            law += math.exp(k * math.log(rate * t) - rate * t - math.lgamma(k + 1)) * pi
        step = stay * pi
        step[:-1, 1:] += (infect * pi)[1:, :-1]
        step[:-1, :] += (patch_s * pi)[1:, :]
        step[:, :-1] += (patch_i * pi)[:, 1:]
        pi = step
    return laws, [law.sum() for law in laws]


def _events(x, defense, gamma, c):
    """(rate density, (ds, di)) of infection, patch of I, patch of S."""
    s, i = x
    u = s + i
    if defense is DefenseKind.FIXED_SERVERS:
        patch = gamma * min(c, u)
    else:
        patch = gamma * u * (1.0 - u)
    return ((s * i, (-1.0, 1.0)), (patch * i / u, (0.0, -1.0)),
            (patch * s / u, (-1.0, 0.0)))


def _drift(x, *model):
    return sum(rate * np.array(l) for rate, l in _events(x, *model))


def _noise_slope(y, *model):
    """d/dt of (s, i, Sigma): the fluid drift and the linear noise equation."""
    x, sigma = y[:2], y[2:].reshape(2, 2)
    h = 1e-7
    jac = np.column_stack([
        (_drift(x + e, *model) - _drift(x - e, *model)) / (2 * h)
        for e in np.eye(2) * h
    ])
    g = sum(rate * np.outer(l, l) for rate, l in _events(x, *model))
    d_sigma = jac @ sigma + sigma @ jac.T + g
    return np.concatenate([_drift(x, *model), d_sigma.ravel()])


def linear_noise(defense, gamma, a, c, n_pts, dt):
    """Var(I) / N and Var(P) / N in the linear noise limit at each of n_pts
    grid points dt apart, from i0 / N = a and p_bar / N = c: the fluid
    densities (s, i) and their covariance Sigma, dSigma/dt = A Sigma +
    Sigma A^T + G along the fluid path (A the drift's Jacobian, G the sum
    of l l^T * rate over the event vectors l), by one RK4 step per point;
    P / N = 1 - s - i."""
    model = (defense, gamma, c)
    out = [np.concatenate([[1.0 - a - c, a], np.zeros(4)])]
    for _ in range(n_pts - 1):
        out.append(_rk4_step(lambda y: _noise_slope(y, *model), out[-1], dt))
    sigma = np.array(out)[:, 2:]
    var_i = sigma[:, 3]
    var_p = sigma[:, 0] + 2 * sigma[:, 1] + sigma[:, 3]  # Var(-S - I)
    return var_i, var_p


def binomial_tails(successes, trials, p):
    """P(X <= successes) and P(X >= successes) for X ~ Binomial(trials, p)."""
    j = np.arange(trials + 1)
    log_factorial = np.cumsum(np.log(np.maximum(j, 1)))
    pmf = np.exp(log_factorial[-1] - log_factorial - log_factorial[::-1]
                 + j * math.log(p) + (trials - j) * math.log1p(-p))
    return pmf[:successes + 1].sum(), pmf[successes:].sum()
