"""Exact detection probabilities of the undefended stochastic worm.

Without patching, I is a pure-birth chain, and the chance of no
telescope hit by t is the mass of its forward equation with killing;
exact_chains derives that equation and solves it with classical RK4 over
the first K states from i0.  The mass past state K is bounded by the
last state's, which the tests check is negligible.
"""

import dataclasses
import math
import statistics

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

from exact_chains import binomial_tails, mean_area, moments, no_hit_mass


# P(first hit <= ln ln N) at the thumb-rule size ceil(N / ln N), from
# the solver at (K, dt) = (800, 1e-3).
_EXACT = {10**4: 0.5121620607, 85000: 0.5139418733}


@pytest.mark.parametrize("n", sorted(_EXACT))
def test_thumb_rule_telescope_detects_by_lnln_n_at_least_half_the_time(n):
    # The paper's claim, without sampling: a ceil(N / ln N) telescope is
    # hit by t = ln ln N with probability at least one half.
    monitors = thumb_rule_monitors(n, DefenseKind.FIXED_SERVERS)
    deadline = math.log(math.log(n))
    coarse, _ = no_hit_mass(n, monitors, [deadline], 400, 2e-3)
    fine, tail = no_hit_mass(n, monitors, [deadline], 800, 1e-3)
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
    no_hit, tail = no_hit_mass(n, monitors, [deadline], 400, 2e-3)
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
                         StochasticConfig(t_end_itu=deadline, seed=7 * 10**9, runs=runs))
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
    exact = 1.0 - no_hit_mass(n, monitors, times, 400, 2e-3)[0]
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
    coarse, _ = mean_area(n, grid[1:], 400, 2e-3)
    fine, tail = mean_area(n, grid[1:], 800, 1e-3)
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
    coarse, _ = moments(n, i0, times, 4e-3)
    mean, square = moments(n, i0, times, 2e-3)
    assert np.all(np.abs(coarse - mean) < 1e-9 * mean)  # converged in dt
    params = ScenarioParams(n_hosts=n, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING)
    config = StochasticConfig(t_end_itu=12.0, sample_dt_itu=3.0, seed=3 * 10**9, runs=runs)
    res = ensemble(params, config)
    assert np.array_equal(res.mean.t_itu, np.concatenate(([0.0], times)))
    band = 3.0 * np.sqrt((square - mean**2) / runs)
    sampled = res.mean.i[1:]
    assert np.all(np.abs(sampled - mean) <= band), (sampled, mean, band)



def _random_telescopes(key, count, n_max, thetas, deadlines):
    """count seeded draws of (N, i0, M, T): N log-uniform in [10**3, n_max],
    i0 in {1, 2, 3}, M / N uniform over the range thetas and T over the
    range deadlines."""
    rng = np.random.default_rng(key)
    for _ in range(count):
        n = round(math.exp(rng.uniform(math.log(1e3), math.log(n_max))))
        i0 = int(rng.integers(1, 4))
        monitors = round(rng.uniform(*thetas) * n)
        yield n, i0, monitors, rng.uniform(*deadlines)


def _states_and_step(n, i0, monitors, deadline):
    """(K, dt) for the exact chain up to the deadline.

    The chain from i0 is below a Yule process, whose level at T is i0 plus
    a negative binomial with success chance e^(-T), so K = e^T (30 + 5 i0)
    leaves a last state's mass near e^(-(30 + 5 i0)); the tests assert it
    below 1e-15.  dt times the largest rate, (i0 + K)(1 + M / N), is at
    most 1, well inside RK4's stability bound on the real axis, 2.79, and
    dt is at most the pinned tests' 2e-3.
    """
    k_states = math.ceil(math.exp(deadline) * (30 + 5 * i0))
    return k_states, min(2e-3, 1.0 / ((i0 + k_states) * (1.0 + monitors / n)))


def test_detection_probability_bounds_the_exact_chain_at_random_telescopes():
    """0 <= detection_probability - exact <= (theta / N) [i0 (i0 + 1)
    (e^T - 1)^2 / 2 - i0 (T e^T - e^T + 1)] at seeded random (N, i0, M, T).

    The gap is the Duhamel integral of
    test_detection_probability_bounds_the_exact_ladder_from_above, so it
    is not negative; the lower check allows 1e-12 for the solver, whose
    error at these K and dt is near 1e-13.  For the upper bound, drop the
    factors 1{no hit by s} and u(T - s)^I_s, both at most 1.  The chance
    of a hit within r from one Yule host is at most the expected number of
    hits, so 1 - u(r) <= theta int_0^r e^s ds = theta (e^r - 1).  The chain
    is below the Yule process from i0, whose second moment is
    E[Y_s^2] = i0 (i0 + 1) e^(2s) - i0 e^s.  So

        closed - exact <= (theta / N) int_0^T (i0 (i0 + 1) e^(2s) - i0 e^s)
                                            (e^(T - s) - 1) ds,

    and the two integrals are (e^T - 1)^2 / 2 and T e^T - e^T + 1.  The
    draws span N from 1,320 to 19,513, theta = M / N from 0.02 to 0.28 and
    T from 0.5 to 2.9; the gaps read 0.06 to 0.63 of the bound.  The closed
    form with theta e^T in place of theta e^((1 + theta) T) falls below
    the exact P at every draw.
    """
    for n, i0, monitors, deadline in _random_telescopes(6 * 10**9, 8, 2e4, (0.02, 0.3),
                                                        (0.5, 3.0)):
        params = ScenarioParams(n_hosts=n, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING)
        no_hit, tail = no_hit_mass(n, monitors, [deadline],
                                   *_states_and_step(n, i0, monitors, deadline), i0=i0)
        assert tail < 1e-15
        gap = float(detection_probability(deadline, params, monitors)) - (1.0 - no_hit[0])
        growth = math.exp(deadline)
        bound = monitors / n / n * (i0 * (i0 + 1) * (growth - 1.0) ** 2 / 2.0
                                    - i0 * (deadline * growth - growth + 1.0))
        assert -1e-12 <= gap <= bound, (n, i0, monitors, deadline, gap, bound)


def test_telescope_samplers_match_the_exact_chain_at_random_telescopes():
    """detection_sim's CDF and monitor_scan_counts' mean sit in their
    sampling bands around the exact chain, at T / 4, T / 2, 3T / 4 and T,
    at seeded random (N, i0, M, T).

    The bands were set before any run, for a family-wise false-failure
    chance of at most 1% over all 8 D comparisons of the D draws
    (Bonferroni), so each comparison fails with chance at most
    alpha = 0.01 / (8 D).  The number of runs hit by t is Binomial(R, P),
    and its test is the exact two-sided one: it fails when either binomial
    tail at the observed count is below alpha / 2.  A mean count fails past
    z(1 - alpha / 2) standard errors, with the sample sd; the draws keep
    theta = M / N from 0.1 and T from 1, so R times the smallest mean
    count, at T / 4, is 40 or more (170 at these draws), where the
    first-order (skewness) errors of the two normal tails cancel.  N is at
    most 5 10**3, so a run costs little more than its fixed overhead.
    Levels counted from i0 + 1 in the samplers move the CDF by 3.4 to 11
    binomial sd at these draws, and the mean count by 5.6 to 12 standard
    errors, against a band of 3.5.
    """
    draws, runs = 3, 1500
    alpha = 0.01 / (8 * draws)
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    for j, (n, i0, monitors, deadline) in enumerate(
            _random_telescopes(6 * 10**9 + 1, draws, 5e3, (0.1, 0.3), (1.0, 2.0))):
        params = ScenarioParams(n_hosts=n, virulence=1.0, i0=i0, defense=DefenseKind.NO_PATCHING)
        times = deadline * np.array([0.25, 0.5, 0.75, 1.0])
        solver = _states_and_step(n, i0, monitors, deadline)
        no_hit, tail = no_hit_mass(n, monitors, times, *solver, i0=i0)
        area, area_tail = mean_area(n, times, *solver, i0=i0)
        assert max(tail, area_tail) < 1e-15

        config = StochasticConfig(t_end_itu=deadline, sample_dt_itu=deadline / 4,
                                  seed=61 * 10**8 + 10**4 * j, runs=runs)
        hits = detection_sim(params, monitors, config)
        for t, p in zip(times, 1.0 - no_hit):
            tails = binomial_tails(int(np.count_nonzero(hits <= t)), runs, p)
            assert min(tails) > alpha / 2.0, (n, i0, monitors, deadline, t, p, tails)
        grid, counts = monitor_scan_counts(
            params, monitors, dataclasses.replace(config, seed=62 * 10**8 + 10**4 * j))
        assert np.array_equal(grid[1:], times)
        exact = monitors / n * area
        sampled = counts[:, 1:].mean(axis=0)
        band = z * counts[:, 1:].std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(sampled - exact) <= band), (n, i0, monitors, sampled, exact, band)
