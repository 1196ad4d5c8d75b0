"""Exact laws of the patched stochastic worm at small N.

With patching, the chain's state is (S, I), with P = N - S - I.  At
N = 100 its forward equation has 5,151 states, and exact_chains.exact_law
solves it exactly by uniformization (the rates and the method are in
exact_chains).  The tests compare the event loop against that law, so a
rule that the compiled block and the Python ``_block`` share, such as
which host a patch lands on, is checked against the model and not
against another copy of it.
"""

import math

import numpy as np
import pytest

from wormsim.core import DefenseKind, ScenarioParams
from wormsim.stochastic import StochasticConfig, ensemble

from exact_chains import binomial_tails, exact_law


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
    laws, mass = exact_law(params, _TIMES)
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


def _random_patched(seed, draws):
    """(params, T) for draws seeded random scenarios of each patched
    defense, fixed servers first: N up to 100, i0 up to 10, gamma in
    [0.5, 3] and T in [2, 8]; p_bar up to N / 4 for fixed servers and up
    to 10 for peer-to-peer patching."""
    rng = np.random.default_rng(seed)
    for defense in (DefenseKind.FIXED_SERVERS, DefenseKind.PEER_TO_PEER):
        for _ in range(draws):
            n = int(rng.integers(20, 101))
            top = n // 4 if defense is DefenseKind.FIXED_SERVERS else 10
            params = ScenarioParams(n_hosts=n, virulence=1.0, i0=int(rng.integers(1, 11)),
                                    defense=defense, gamma=float(rng.uniform(0.5, 3.0)),
                                    p_bar=int(rng.integers(1, top + 1)))
            yield params, float(rng.uniform(2.0, 8.0))


def test_ensemble_matches_exact_patched_chain_at_random_scenarios():
    """The ensemble's mean I at T / 4, T / 2, 3T / 4 and T, and its extinct
    count at T, sit in their sampling bands around the exact law, at seeded
    random patched scenarios of both defenses.

    The bands come from the exact law before any run, for a family-wise
    false-failure chance of at most 1% over all 5 D comparisons of the D
    draws (Bonferroni), so each fails with chance at most
    alpha = 0.01 / (5 D).  The mean of R runs of I, which stays within N of
    its mean mu, obeys Bernstein's inequality

        P(|mean - mu| >= eps) <= 2 exp(-R eps^2 / (2 sigma^2 + 2 N eps / 3))

    with sigma^2 the exact Var(I), so the band is the eps at which the
    right side is alpha: with L = ln(2 / alpha),
    eps = N L / (3R) + sqrt((N L / (3R))^2 + 2 sigma^2 L / R).  Unlike a
    normal quantile, it holds where I is far from normal, as when nearly
    every run is extinct.  The extinct count is Binomial(R, P(I(T) = 0)),
    and its test is the exact two-sided one: it fails when either binomial
    tail at the observed count is below alpha / 2.  A patch that lands on S
    where it should land on I, planted in both blocks, moves the farthest
    mean of each draw 1.02 to 52 bands off, and four of the six extinct
    counts to a binomial tail below 1e-27.
    """
    draws, runs = 3, 1000
    cases = list(_random_patched(8 * 10**9, draws))
    alpha = 0.01 / (5 * len(cases))
    log_term = math.log(2.0 / alpha)
    for j, (params, t_end) in enumerate(cases):
        n = params.n_hosts
        times = t_end * np.array([0.25, 0.5, 0.75, 1.0])
        laws, mass = exact_law(params, times)
        assert np.allclose(mass, 1.0, rtol=0.0, atol=1e-12), mass
        level = np.arange(n + 1.0)
        mean = np.array([law.sum(axis=0) @ level for law in laws])
        var = np.array([law.sum(axis=0) @ level**2 for law in laws]) - mean**2
        lead = n * log_term / (3.0 * runs)
        band = lead + np.sqrt(lead**2 + 2.0 * np.maximum(var, 0.0) * log_term / runs)
        extinct = float(laws[-1][:, 0].sum())
        assert 0.0 < extinct < 1.0, (params, extinct)

        res = ensemble(params, StochasticConfig(t_end_itu=t_end, sample_dt_itu=t_end / 4,
                                                seed=8 * 10**9 + 10**4 * j, runs=runs))
        assert np.array_equal(res.mean.t_itu[1:], times)
        sampled = res.mean.i[1:]
        assert np.all(np.abs(sampled - mean) <= band), (params, t_end, sampled, mean, band)
        tails = binomial_tails(res.extinct_before_end, runs, extinct)
        assert min(tails) > alpha / 2.0, (params, t_end, res.extinct_before_end, extinct, tails)
