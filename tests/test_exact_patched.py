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

from exact_chains import exact_law


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
