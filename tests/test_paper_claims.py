"""The paper's comparative claims, checked over seeded draws of scenarios.

Each test fixes its draws and its pass rule before any run.  A failure
is a finding about the model or the engine, never a reason to reseed.
"""

import dataclasses
import math

import numpy as np

from wormsim.core import DefenseKind, ScenarioParams
from wormsim.integrate import IntegratorConfig, integrate
from wormsim.metrics import fixed_extinction_time, p2p_extinction_time, trajectory_peak


def _integrate(params, t_end):
    return integrate(params, IntegratorConfig(t_end_itu=t_end, dt_itu=0.005, sample_stride=10))


def test_p2p_patching_beats_fixed_servers():
    """At equal (N, i0, gamma, p_bar), p2p patching peaks lower and halts first.

    This is the paper's headline: peer-to-peer patching grows its
    workforce with every patched host, so it outruns a worm that a fixed
    set of p_bar servers cannot.  Both runs use dt 0.005 and the horizons
    of ``test_infection_curves_are_unimodal``, which each halts within.
    Over these 60 draws the p2p/fixed ratio is at most 0.722 for the peak
    and 0.552 for the halt time.  N is drawn up to 10**4 only: the
    fixed-servers runs' linear patch-down makes larger N too slow for
    tier-1 in pure Python.
    """
    rng = np.random.default_rng(2024)
    for _draw in range(60):
        n = int(round(10 ** rng.uniform(3.0, 4.0)))
        gamma = float(rng.uniform(0.5, 4.0))
        p_bar = int(rng.integers(5, 101))
        i0 = int(rng.integers(1, 101))
        draw = (n, gamma, p_bar, i0)
        fixed = ScenarioParams(n_hosts=n, virulence=1.0, i0=i0,
                               defense=DefenseKind.FIXED_SERVERS, gamma=gamma, p_bar=p_bar)
        p2p = dataclasses.replace(fixed, defense=DefenseKind.PEER_TO_PEER)
        fixed_run = _integrate(fixed, fixed_extinction_time(fixed).itu
                               + math.log(4.0 * p_bar) / (0.8 * gamma) + 2.0)
        p2p_run = _integrate(p2p, p2p_extinction_time(p2p).itu * 1.3 + 2.0)
        assert trajectory_peak(p2p_run)[1] < trajectory_peak(fixed_run)[1], draw
        assert p2p_run.halt_itu is not None and fixed_run.halt_itu is not None, draw
        assert p2p_run.halt_itu < fixed_run.halt_itu, draw
