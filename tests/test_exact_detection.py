"""Exact detection probabilities of the undefended stochastic worm.

Without patching, I is a pure-birth chain: it goes k -> k + 1 at rate
lambda_k = k (N - k) / N.  A telescope of M monitors is hit at rate
c k with c = M / N, so the chance of no hit by t is the total mass at t
of the forward equation with killing,

    d pi_k / dt = lambda_{k-1} pi_{k-1} - (lambda_k + c k) pi_k,

started at pi_{i0} = 1 (Norris, *Markov Chains*, 1997, ch. 2).  The
solver below integrates it with classical RK4 over the first K states
from i0; the mass past state K is bounded by the last state's, which
the tests check is negligible.
"""

import math

import numpy as np
import pytest

from wormsim.cli import load_config, resolve_scenario
from wormsim.core import DefenseKind, ScenarioParams
from wormsim.monitoring import (
    detection_probability,
    monitors_for_detection,
    thumb_rule_monitors,
)
from wormsim.stochastic import (
    StochasticConfig,
    detection_sim,
    ensemble,
    monitor_scan_counts,
)


def _rk4_at(deriv, y, times, dt):
    """y at each of the increasing times, each segment in equal classical
    RK4 steps of at most dt."""
    out, start = [], 0.0
    for t in times:
        steps = math.ceil((t - start) / dt)
        h = (t - start) / steps
        for _ in range(steps):
            a = deriv(y)
            b = deriv(y + h / 2 * a)
            c = deriv(y + h / 2 * b)
            d = deriv(y + h * c)
            y = y + h / 6 * (a + 2 * b + 2 * c + d)
        out.append(y)
        start = t
    return out


def _no_hit_mass(n, monitors, times, k_states, dt, i0=1):
    """Mass of the killed forward equation at each of the increasing times,
    each segment in equal RK4 steps of at most dt, and the last state's
    mass at the final time."""
    k = i0 + np.arange(k_states, dtype=float)
    birth = k * (n - k) / n
    leave = birth + monitors / n * k

    def deriv(pi):
        d = -leave * pi
        d[1:] += birth[:-1] * pi[:-1]
        return d

    pi = np.zeros(k_states)
    pi[0] = 1.0
    pis = _rk4_at(deriv, pi, times, dt)
    return np.array([pi.sum() for pi in pis]), pis[-1][-1]


def _mean_area(n, times, k_states, dt, i0=1):
    """The integral of E[I] over [0, t] at each of the increasing times, for
    the chain without killing, and the last state's mass at the final time.
    The integral rides along the forward equation as one more state."""
    k = i0 + np.arange(k_states, dtype=float)
    birth = k * (n - k) / n

    def deriv(y):
        pi, d = y[:-1], np.empty_like(y)
        d[:-1] = -birth * pi
        d[1:-1] += birth[:-1] * pi[:-1]
        d[-1] = k @ pi
        return d

    y = np.zeros(k_states + 1)
    y[0] = 1.0
    ys = _rk4_at(deriv, y, times, dt)
    return np.array([y[-1] for y in ys]), ys[-1][-2]


def _moments(n, i0, times, dt):
    """E[I] and E[I**2] at each of the increasing times, for the whole chain
    without killing (states i0 to N, so nothing is truncated)."""
    k = np.arange(i0, n + 1, dtype=float)
    birth = k * (n - k) / n

    def deriv(pi):
        d = -birth * pi
        d[1:] += birth[:-1] * pi[:-1]
        return d

    pi = np.zeros(len(k))
    pi[0] = 1.0
    pis = _rk4_at(deriv, pi, times, dt)
    return np.array([k @ pi for pi in pis]), np.array([k * k @ pi for pi in pis])


# P(first hit <= ln ln N) at the thumb-rule size ceil(N / ln N), from
# the solver at (K, dt) = (800, 1e-3).
_EXACT = {10**4: 0.5121620607, 85000: 0.5139418733}


@pytest.mark.parametrize("n", sorted(_EXACT))
def test_thumb_rule_telescope_detects_by_lnln_n_at_least_half_the_time(n):
    # The paper's claim, without sampling: a ceil(N / ln N) telescope is
    # hit by t = ln ln N with probability at least one half.
    monitors = thumb_rule_monitors(n, DefenseKind.FIXED_SERVERS)
    deadline = math.log(math.log(n))
    coarse, _ = _no_hit_mass(n, monitors, [deadline], 400, 2e-3)
    fine, tail = _no_hit_mass(n, monitors, [deadline], 800, 1e-3)
    assert abs(coarse[0] - fine[0]) < 1e-9  # converged in K and dt
    assert tail < 1e-30  # no mass left to leak past the truncation
    assert 1.0 - fine[0] == pytest.approx(_EXACT[n], abs=1e-9)
    assert 1.0 - fine[0] >= 0.5


# N: (monitors_for_detection at t = ln ln N, P(first hit <= ln ln N)) with
# i0 = 1, from the solver at (K, dt) = (800, 1e-3), which agrees with
# (400, 2e-3) to 2e-13 at every N here and at both built-ins below.
_SIZED = {
    10**3: (170, 0.5545490349),
    10**4: (1219, 0.5459989807),
    85000: (8213, 0.5405427549),
    360000: (30525, 0.5377016455),
    10**6: (78031, 0.5359653477),
    10**8: (5740305, 0.5300208446),
    2**32: (202777308, 0.5266240132),
}


def _sized_hit_probability(n, monitors, deadline):
    """P(first hit <= deadline) from i0 = 1, at (K, dt) = (400, 2e-3)."""
    no_hit, tail = _no_hit_mass(n, monitors, [deadline], 400, 2e-3)
    assert tail < 1e-15  # the truncation leaks nothing the pinned digits see
    return 1.0 - no_hit[0]


def test_sized_telescope_detects_by_lnln_n_at_least_half_the_time_at_every_n():
    """The telescope monitors_for_detection sizes for ln ln N is hit by then
    with probability above 1/2 at every N, falling towards 1/2.

    Why 1/2: from i0 = 1, while I is small against N the chain is a Yule
    process, and I(t) e^(-t) tends to W ~ Exp(1) almost surely (Athreya
    and Ney, *Branching Processes*, 1972, ch. III).  The sizing makes the
    fluid expected hit count 1 at T = ln ln N, that is c (e^T - 1) = 1 to
    first order in e^T / N, with c = M / N.  The hit hazard is c I(t), so
    given the path, P(no hit by T) = exp(-c int_0^T I dt), and
    c int_0^T I dt -> W as N, and with it T, grows.  So P(no hit) tends to
    E[e^(-W)] = int_0^oo e^(-2w) dw = 1/2: the sized telescope expects
    one hit, but that hit is exponentially spread, and it is missed half
    the time.  Each size and probability is pinned, so a telescope one
    monitor off fails here, and so does one 10% too small, which still
    reads 0.523 at N = 10**3 and 0.501 at 10**8, above the bare 1/2.
    """
    ladder = sorted(_SIZED)
    deadlines = [math.log(math.log(n)) for n in ladder]
    sizes = [
        monitors_for_detection(ScenarioParams(n_hosts=n, virulence=1.0, i0=1,
                                              defense=DefenseKind.NO_PATCHING), t)
        for n, t in zip(ladder, deadlines)
    ]
    assert sizes == [_SIZED[n][0] for n in ladder]
    probabilities = [_sized_hit_probability(n, m, t)
                     for n, m, t in zip(ladder, sizes, deadlines)]
    assert probabilities == pytest.approx([_SIZED[n][1] for n in ladder], abs=1e-10)
    assert min(probabilities) >= 0.5
    assert all(a > b for a, b in zip(probabilities, probabilities[1:]))


def test_detection_probability_bounds_the_exact_ladder_from_above():
    """The closed form sits above the exact P by at most e^T i0 / (8 N).

    detection_probability is exact for the Yule process, birth rate k at
    state k; the chain's is k (N - k) / N, less by k^2 / N.  With u(r) the
    Yule chance of no hit within r from one host (u^k from k hosts), the
    two generators' difference gives, by Duhamel's formula,

        closed - exact = (1/N) int_0^T E[1{no hit by s} I_s^2 u(T - s)^I_s]
                                       (1 - u(T - s)) ds,

    the expectation over the chain.  The integrand is not negative, so
    closed >= exact.  To first order in e^T / N the chain in the weight is
    the Yule process, I_s = W e^s with W ~ Exp(1) from i0 = 1, and to first
    order in theta = M / N, 1 - u(r) = theta (e^r - 1).  No hit by s has
    chance e^(-theta W (e^s - 1)) and u(T - s)^I_s is
    e^(-theta W e^s (e^(T - s) - 1)), so the weight is W^2 e^(2s) e^(-beta W)
    with beta = theta (e^T - 1), which the sizing makes 1 (to 5e-3 at every
    rung), and E[W^2 e^(-beta W)] = 2 / (1 + beta)^3 = 1/4.  Then

        closed - exact = (theta / 4N) int_0^T e^(2s) (e^(T - s) - 1) ds
                       = theta (e^T - 1)^2 / (8N) = (e^T - 1) / (8N),

    so c = 1/8: the ratio (closed - exact) / (e^T i0 / N) tends to 1/8 as
    N grows, from below by the factor 1 - e^(-T) = 1 - 1/ln N.  The terms
    left out are of relative order theta, about e^(-T) too, so they compete
    with that factor; they are checked here, not bounded.  The exact P is
    solved afresh: at N = 2**32 closed - exact is 6e-10, below the
    rounding of the pinned digits.
    """
    for n in sorted(_SIZED):
        monitors, deadline = _SIZED[n][0], math.log(math.log(n))
        params = ScenarioParams(n_hosts=n, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING)
        gap = float(detection_probability(deadline, params, monitors)) - _sized_hit_probability(
            n, monitors, deadline)
        assert 0.0 <= gap <= math.exp(deadline) * params.i0 / n / 8.0, (n, gap)


def test_detection_sim_matches_detection_probability_at_three_initial_hosts():
    """The sampled CDF sits within 3 binomial sd of the closed form.

    The ladder above starts from one host; this checks i0 = 3 at
    N = 85,000 against the simulator alone.  There the closed form's
    excess over the exact P is about 0.16 e^T i0 / N, 6e-5 at T = ln ln N:
    the first-order value E[W^2 e^(-W / i0)] / (2 i0^2) with
    W ~ Gamma(i0, 1), as derived above.  R and the band were fixed before
    any run: at T the closed form reads 0.595, with sd 0.0127 over
    R = 1500 runs, so the excess is under 1% of the band.  One more
    initial host moves P to 0.701, 8 sd away, and the exponent i0 dropped
    to 0.260, 26 sd.  A hazard scaled by 1.1, or theta e^T in place of
    theta e^((1 + theta) T), moves it 2 to 2.5 sd, which this band does not
    reliably catch; the ladder catches the latter.
    """
    n, runs = 85000, 1500
    params = ScenarioParams(n_hosts=n, virulence=1.0, i0=3, defense=DefenseKind.NO_PATCHING)
    deadline = math.log(math.log(n))
    monitors = monitors_for_detection(params, deadline)
    times = deadline * np.array([0.25, 0.5, 0.75, 1.0])
    closed = detection_probability(times, params, monitors)
    hits = detection_sim(params, monitors,
                         StochasticConfig(t_end_itu=deadline, seed=4 * 10**9, runs=runs))
    sampled = np.array([np.mean(hits <= t) for t in times])
    band = 3.0 * np.sqrt(closed * (1.0 - closed) / runs)
    assert np.all(np.abs(sampled - closed) <= band), (sampled, closed, band)


@pytest.mark.parametrize("name, monitors, exact", [
    ("monitoring-slammer", 8297, 0.5407752558),
    ("monitoring-ipv4", 202782189, 0.5266244139),
])
def test_builtin_required_monitors_detect_by_deadline_at_least_half_the_time(
        name, monitors, exact):
    # The sizes the CLI reports, at the built-ins' own (rounded) deadlines.
    scn = resolve_scenario(load_config(name))
    sizing = scn.monitoring
    assert sizing["required_monitors"] == monitors
    deadline = sizing["deadline"].itu
    hit = _sized_hit_probability(scn.params.n_hosts, monitors, deadline)
    assert hit == pytest.approx(exact, abs=1e-10)
    assert hit >= 0.5


def test_detection_sim_matches_exact_cdf():
    """The sampled detection CDF sits within 3 binomial sd of the exact one.

    R and the band were fixed from the solver before any run.  At
    N = 10**4 and t = ln ln N the exact P is 0.5122, with sd 0.0065 over
    R = 6000 runs.  Hits counted from level i0 + 1 move P to 0.6167, 16
    sd away.  A hazard scaled by 1.1 moves it to 0.5401, 4.3 sd away, so
    a 3-sd band catches it in about 9 draws of 10; a surer catch needs
    about twice the runs, past this test's time budget.
    """
    n, runs = 10**4, 6000
    monitors = thumb_rule_monitors(n, DefenseKind.FIXED_SERVERS)
    deadline = math.log(math.log(n))
    times = deadline * np.array([0.25, 0.5, 0.75, 1.0])
    exact = 1.0 - _no_hit_mass(n, monitors, times, 400, 2e-3)[0]
    params = ScenarioParams(n_hosts=n, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING)
    hits = detection_sim(params, monitors,
                         StochasticConfig(t_end_itu=deadline, seed=10**9, runs=runs))
    sampled = np.array([np.mean(hits <= t) for t in times])
    band = 3.0 * np.sqrt(exact * (1.0 - exact) / runs)
    assert np.all(np.abs(sampled - exact) <= band), (sampled, exact, band)


def test_scan_counts_match_exact_mean():
    """The sampled mean scan count sits within 3 standard errors of the exact one.

    The exact mean count at t is c times the integral of E[I] over
    [0, t], with E[I] from the chain without killing.  R and the band were
    fixed before any run, from I(t) ~ W e^t with W exponential: at
    N = 10**4 and t = T = ln ln N the mean count is about 0.89 with sd
    about 1.3, so R = 8000 runs give a standard error near 0.015.  Levels
    counted from i0 + 1 add c t, 0.24 at T, about 16 standard errors; a
    hazard scaled by 1.1 adds 0.089, about 6, so a 3-standard-error band
    lets it pass about once in a thousand key sets.
    """
    n, runs = 10**4, 8000
    monitors = thumb_rule_monitors(n, DefenseKind.FIXED_SERVERS)
    deadline = math.log(math.log(n))
    params = ScenarioParams(n_hosts=n, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING)
    config = StochasticConfig(t_end_itu=deadline, sample_dt_itu=deadline / 4,
                              seed=2 * 10**9, runs=runs)
    grid, counts = monitor_scan_counts(params, monitors, config)
    assert np.array_equal(grid, deadline * np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    coarse, _ = _mean_area(n, grid[1:], 400, 2e-3)
    fine, tail = _mean_area(n, grid[1:], 800, 1e-3)
    assert np.all(np.abs(coarse - fine) < 1e-9 * fine)  # converged in K and dt
    assert tail < 1e-30
    exact = monitors / n * fine
    sampled = counts[:, 1:].mean(axis=0)
    band = 3.0 * counts[:, 1:].std(axis=0, ddof=1) / math.sqrt(runs)
    assert np.all(np.abs(sampled - exact) <= band), (sampled, exact, band)


def test_ensemble_mean_matches_exact_mean():
    """The undefended ensemble's mean I sits within 3 standard errors of E[I].

    At N = 10**3 and i0 = 10 the chain's largest rate is N / 4, so RK4
    is stable up to dt near 0.011; dt = 4e-3 and 2e-3 agree to 1e-9.  R
    and the band were fixed from the exact moments before any run: over
    R = 4000 runs the standard error at t = 3, 6, 9 and 12 is 0.69,
    0.92, 0.097 and 0.014 hosts.  The fluid logistic, the chain's
    N -> oo limit, sits 2.7, 14, 14 and 5.4 standard errors above E[I].
    Levels counted from i0 + 1 move the mean by 19, 17, 3.5 and -68
    standard errors; a rate scaled by 1.1 by 66, 89, 81 and 35.
    """
    n, i0, runs = 1000, 10, 4000
    times = np.array([3.0, 6.0, 9.0, 12.0])
    coarse, _ = _moments(n, i0, times, 4e-3)
    mean, square = _moments(n, i0, times, 2e-3)
    assert np.all(np.abs(coarse - mean) < 1e-9 * mean)  # converged in dt
    params = ScenarioParams(n_hosts=n, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING)
    config = StochasticConfig(t_end_itu=12.0, sample_dt_itu=3.0, seed=3 * 10**9, runs=runs)
    res = ensemble(params, config)
    assert np.array_equal(res.mean.t_itu, np.concatenate(([0.0], times)))
    band = 3.0 * np.sqrt((square - mean**2) / runs)
    sampled = res.mean.i[1:]
    assert np.all(np.abs(sampled - mean) <= band), (sampled, mean, band)
