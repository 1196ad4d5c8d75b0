"""Exact laws of the patched stochastic worm at small N.

With patching, the chain's state is (S, I), with P = N - S - I.  From
(S, I) it moves to

    (S - 1, I + 1)  at rate S I / N                 (an infection),
    (S - 1, I)      at rate r(S, I) S / (S + I)     (a susceptible patched),
    (S, I - 1)      at rate r(S, I) I / (S + I)     (an infected patched),

where the total patch rate r is gamma * p_bar while S + I >= p_bar and
gamma * (S + I) below it for fixed servers, and (gamma / N) (S + I) P
for peer-to-peer patching.  At N = 100 the forward equation has 5,151
states, and uniformization (Jensen 1953) solves it exactly: with L at
least every state's total rate, K = I + Q / L is a stochastic matrix and

    pi(t) = sum_k e^(-L t) (L t)^k / k! * pi(0) K^k,

each term one shifted-array update of the last (Stewart, *Introduction
to the Numerical Solution of Markov Chains*, 1994, ch. 8).  The tests
compare the event loop against that law, so a rule that the compiled
block and the Python ``_block`` share, such as which host a patch lands
on, is checked against the model and not against another copy of it.
"""

import math

import numpy as np
import pytest

from wormsim.core import DefenseKind, ScenarioParams
from wormsim.stochastic import StochasticConfig, ensemble


def _exact_law(params, times):
    """The law of (S, I) at each of the increasing times, as (N+1, N+1)
    arrays indexed [S, I], and the total mass of each, which is 1 up to
    the Poisson tail and rounding."""
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


# R, the keys and the bands come from the exact law, not from the runs.
# R = 2500 keeps both cases within about 3 s with the Python block.  The
# keys start at 4 * 10**9 and 5 * 10**9, far from every other test's.
_RUNS = 2500
_TIMES = [1.0, 2.0, 4.0, 8.0]
_CASES = {
    "fixed": (ScenarioParams(n_hosts=100, virulence=1.0, i0=5,
                             defense=DefenseKind.FIXED_SERVERS, gamma=1.0, p_bar=10),
              4 * 10**9),
    "p2p": (ScenarioParams(n_hosts=100, virulence=1.0, i0=5,
                           defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=2),
            5 * 10**9),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_ensemble_matches_exact_patched_chain(case):
    """The ensemble's mean I and extinct count sit within 3 sd of the exact law.

    The standard error of the mean I is the exact sd of I over sqrt(R),
    and the extinct count is checked against Binomial(R, P(I(8) = 0)).
    In the fixed case (N = 100, i0 = 5, gamma = 1, p_bar = 10) the exact
    E[I] at t = 1, 2, 4 and 8 is 9.634, 15.518, 23.527 and 8.499 with
    P(I(8) = 0) = 0.0395; in the p2p case (gamma = 2, p_bar = 2) it is
    10.535, 11.889, 1.166 and 0.0005 with P(I(8) = 0) = 0.9995.  At
    these keys, patches that land on the other compartment move every mean
    by 149 standard errors or more; a patch rate scaled by 1.1 moves the
    fixed case's means by 2.3 to 32 standard errors and the p2p case's by
    1.1 to 17.
    """
    params, seed = _CASES[case]
    laws, mass = _exact_law(params, _TIMES)
    assert np.allclose(mass, 1.0, rtol=0.0, atol=1e-12), mass
    level = np.arange(params.n_hosts + 1.0)
    mean = np.array([law.sum(axis=0) @ level for law in laws])
    square = np.array([law.sum(axis=0) @ level**2 for law in laws])
    extinct = laws[-1][:, 0].sum()

    res = ensemble(params, StochasticConfig(t_end_itu=_TIMES[-1], sample_dt_itu=1.0,
                                            seed=seed, runs=_RUNS))
    at = np.searchsorted(res.mean.t_itu, _TIMES)
    assert np.array_equal(res.mean.t_itu[at], _TIMES)
    sampled = res.mean.i[at]
    band = 3.0 * np.sqrt((square - mean**2) / _RUNS)
    assert np.all(np.abs(sampled - mean) <= band), (sampled, mean, band)
    sd = math.sqrt(_RUNS * extinct * (1.0 - extinct))
    assert abs(res.extinct_before_end - _RUNS * extinct) <= 3.0 * sd, (
        res.extinct_before_end, _RUNS * extinct, sd)
