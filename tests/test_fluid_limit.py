"""Law of large numbers and central limit oracles for the patched event loop.

With i0 and p_bar proportional to N, both patched models are density
dependent: every event rate is N * f(s, i, p) in the densities
(s, i, p) = (S, I, P) / N.  Kurtz's theorems (T. G. Kurtz, J. Appl.
Prob. 7 (1970) 49-58 and 8 (1971) 344-356) then give, as N grows:

  * law of large numbers: (S, I, P) / N of a run converges to the fluid
    solution, so the ensemble mean of I / N approaches RK4;
  * central limit: sqrt(N) times the deviation converges to a Gaussian
    process whose covariance Sigma(t) solves the linear noise equation
    dSigma/dt = A Sigma + Sigma A^T + G along the fluid path, with A the
    Jacobian of the drift and G the sum of l l^T * rate over the event
    vectors l.  So std(I) / sqrt(N) tends to sqrt(Sigma_ii(t)).

The bands below come from that theory and from the sampling law of
R = 50 runs, not from a run of the code.  Each N uses its own keys, so
the three ensembles are independent.
"""

import math

import numpy as np
import pytest

from wormsim.core import DefenseKind, ScenarioParams
from wormsim.integrate import IntegratorConfig, integrate
from wormsim.stochastic import StochasticConfig, ensemble

from exact_chains import linear_noise

SIZES = (1_000, 10_000, 100_000)
RUNS = 50
T_END = 25.0
DT = 0.05  # the ensemble's sampling step, also the noise equation's RK4 step

# (defense, gamma, i0 / N, p_bar / N).  Fixed servers saturate at t = 1
# ITU, when S + I falls to p_bar while I / N is still near 0.05, so the
# min(p_bar, S + I) throttle shapes the decline.  Peer-to-peer starts
# with twice as many infected as patched hosts, so infections and
# patches compete for the whole rise of the patch sigmoid.
MODELS = {
    "fixed": (DefenseKind.FIXED_SERVERS, 0.5, 1 / 20, 2 / 5),
    "p2p": (DefenseKind.PEER_TO_PEER, 1.0, 1 / 50, 1 / 100),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def limit_case(request):
    defense, gamma, a, c = MODELS[request.param]
    cases = []
    for k, n in enumerate(SIZES):
        params = ScenarioParams(
            n_hosts=n, virulence=1.0, i0=round(a * n), defense=defense,
            gamma=gamma, p_bar=round(c * n),
        )
        res = ensemble(params, StochasticConfig(
            t_end_itu=T_END, seed=1 + k * RUNS, sample_dt_itu=DT, runs=RUNS))
        fluid = integrate(params, IntegratorConfig(T_END, dt_itu=0.01, sample_stride=5))
        cases.append((n, res, fluid))
    var_i, var_p = linear_noise(defense, gamma, a, c, len(cases[0][1].mean.t_itu), DT)
    return cases, var_i, var_p


def test_ensemble_mean_approaches_rk4_at_kurtz_rate(limit_case):
    # The sup gap of the mean I/N to RK4 up to the fluid halt has a Monte
    # Carlo part of O((N R)^-1/2) and a bias of O(1/N), so its log-log
    # slope lies between -1 and -1/2.  The log of the sup of a Gaussian
    # process has a standard deviation of about 0.4, so the slope fitted
    # over three sizes a decade apart has a standard error of
    # 0.4 / (sqrt(2) ln 10) = 0.12: the band is three of those past
    # either end.
    cases, _, _ = limit_case
    gaps = []
    for n, res, fluid in cases:
        grid = res.mean.t_itu
        upto = grid <= fluid.t_itu[-1]
        ref = np.interp(grid[upto], fluid.t_itu, fluid.i)
        gaps.append(float(np.max(np.abs(res.mean.i[upto] - ref))) / n)
    slope = np.polyfit(np.log(SIZES), np.log(gaps), 1)[0]
    assert -1.36 <= slope <= -0.14, (slope, gaps)


def test_ensemble_spread_matches_linear_noise(limit_case):
    # R times the population variance of R Gaussian runs over the true
    # variance is chi-squared with R - 1 degrees of freedom: mean
    # (R - 1) / R, standard deviation sqrt(2 (R - 1)) / R.  Averaged over
    # the three independent sizes at the time the noise equation puts
    # the largest variance, the ratio to N * Sigma must lie within four
    # of those deviations (divided by sqrt(3)) of its mean.
    cases, var_i, var_p = limit_case
    mean = (RUNS - 1) / RUNS
    band = 4 * math.sqrt(2 * (RUNS - 1)) / RUNS / math.sqrt(len(SIZES))
    for std_of, var in (("i_std", var_i), ("p_std", var_p)):
        k = int(np.argmax(var))
        ratio = np.mean([getattr(res, std_of)[k] ** 2 / (n * var[k])
                         for n, res, _ in cases])
        assert abs(ratio - mean) <= band, (std_of, ratio)
    # max(i_std) / sqrt(N) stays bounded: within 1.5x (five standard
    # errors of a sample std) of its limit at every size.
    limit = math.sqrt(var_i.max())
    for n, res, _ in cases:
        assert res.i_std.max() / math.sqrt(n) <= 1.5 * limit, n
