"""End-to-end acceptance gate.

Ten benchmark criteria covering closed forms, integration, analytic
predictors, stochastic convergence, scaling laws, telescope sizing,
detection, and curve-shape properties.  Each test prints one pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them all);
every reference number was frozen from independent oracle computations.
"""

import math
import time

import numpy as np

from wormsim import fluid
from wormsim.core import DefenseKind, ScenarioParams
from wormsim.integrate import IntegratorConfig, integrate
from wormsim.metrics import (
    fixed_extinction_time,
    fixed_peak_time,
    p2p_extinction_time,
    p2p_peak_infected,
    p2p_peak_time,
    spread_time,
    trajectory_extinction,
    trajectory_peak,
)
from wormsim.monitoring import monitors_for_detection, thumb_rule_monitors
from wormsim.stochastic import StochasticConfig, detection_sim, ensemble

CR = dict(n_hosts=360000, virulence=1.8, i0=25)
NOPATCH = ScenarioParams(defense=DefenseKind.NO_PATCHING, **CR)
FIXED = ScenarioParams(defense=DefenseKind.FIXED_SERVERS, gamma=312.0, p_bar=25, **CR)
P2P_G1 = ScenarioParams(defense=DefenseKind.PEER_TO_PEER, gamma=1.0, p_bar=10, **CR)
P2P_G2 = ScenarioParams(defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=10, **CR)
SLAMMER = ScenarioParams(
    n_hosts=85000, virulence=1.5, i0=1, defense=DefenseKind.NO_PATCHING
)


def _verdict(idx, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] ({idx}/10) {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _rel(measured, reference):
    return abs(measured - reference) / abs(reference)


def test_closed_forms_match_integration():
    """Closed-form and RK4 infected curves agree to 0.1% on each validity window."""
    started = time.perf_counter()
    cases = [
        ("undefended", NOPATCH, 20.0, fluid.closed_form_no_patch),
        ("fixed-servers", FIXED, fluid.fixed_validity_window(FIXED), fluid.closed_form_fixed),
        ("p2p gamma=1", P2P_G1, 26.0, fluid.closed_form_p2p),
        ("p2p gamma=2", P2P_G2, 10.0, fluid.closed_form_p2p),
    ]
    worst = 0.0
    for _name, params, t_end, closed_form in cases:
        traj = integrate(params, IntegratorConfig(t_end_itu=t_end))
        mask = traj.t_itu <= t_end
        reference = np.asarray(closed_form(traj.t_itu[mask], params))
        worst = max(worst, float(np.max(np.abs(traj.i[mask] - reference) / reference)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-3 and elapsed < 10.0
    _verdict(
        1,
        "closed form vs RK4 equivalence",
        ok,
        f"worst rel err {worst:.2e} (<=1e-3), {elapsed:.2f}s (<10s)",
    )


def test_fixed_servers_code_red_benchmark():
    """Code Red vs 25 servers: peak near 7.45 h, ~2.3e5 infected, out by ~25.6 h."""
    started = time.perf_counter()
    peak_wallclock = fixed_peak_time(FIXED).wallclock
    traj = integrate(FIXED, IntegratorConfig(t_end_itu=50.0))
    _peak_tv, peak_infected = trajectory_peak(traj)
    extinction_wallclock = trajectory_extinction(traj, 25.0).wallclock
    elapsed = time.perf_counter() - started
    checks = [
        _rel(peak_wallclock, 7.45) <= 0.02,
        2.0e5 <= peak_infected <= 2.5e5,
        _rel(extinction_wallclock, 25.6) <= 0.10,
        elapsed < 10.0,
    ]
    _verdict(
        2,
        "fixed-servers Code Red benchmark",
        all(checks),
        f"analytic peak {peak_wallclock:.3f}h (7.45h +-2%), "
        f"integrated peak {peak_infected:.0f} (2.0e5..2.5e5), "
        f"extinction {extinction_wallclock:.2f}h (25.6h +-10%), {elapsed:.2f}s",
    )


def test_p2p_gamma1_code_red_benchmark():
    """Matched-rate p2p patching: peak ~5.83 h, ~1.1e5 infected, dead by ~14.2 h."""
    peak_wallclock = p2p_peak_time(P2P_G1).wallclock
    predicted_ext = p2p_extinction_time(P2P_G1)
    traj = integrate(P2P_G1, IntegratorConfig(t_end_itu=40.0))
    _peak_tv, peak_infected = trajectory_peak(traj)
    dieout = trajectory_extinction(traj, 0.5)
    checks = [
        _rel(peak_wallclock, 5.83) <= 0.02,
        0.9e5 <= peak_infected <= 1.2e5,
        _rel(predicted_ext.wallclock, 14.2) <= 0.02,
        _rel(dieout.itu, predicted_ext.itu) <= 0.10,
    ]
    _verdict(
        3,
        "p2p gamma=1 Code Red benchmark",
        all(checks),
        f"analytic peak {peak_wallclock:.3f}h (5.83h +-2%), "
        f"integrated peak {peak_infected:.0f} (0.9e5..1.2e5), "
        f"die-out {dieout.itu:.2f} ITU vs predicted {predicted_ext.itu:.2f} (+-10%)",
    )


def test_p2p_gamma2_code_red_benchmark():
    """Double-rate p2p patching: peak ~2.72 h at ~1826 infected, dead by ~5.33 h."""
    peak_wallclock = p2p_peak_time(P2P_G2).wallclock
    peak_formula = p2p_peak_infected(P2P_G2)
    predicted_ext = p2p_extinction_time(P2P_G2)
    traj = integrate(P2P_G2, IntegratorConfig(t_end_itu=15.0))
    _peak_tv, peak_infected = trajectory_peak(traj)
    dieout = trajectory_extinction(traj, 0.5)
    checks = [
        _rel(peak_wallclock, 2.72) <= 0.02,
        abs(peak_formula - 1826.0) <= 1.0,
        _rel(peak_infected, peak_formula) <= 0.10,
        _rel(predicted_ext.wallclock, 5.33) <= 0.02,
        _rel(dieout.itu, predicted_ext.itu) <= 0.10,
    ]
    _verdict(
        4,
        "p2p gamma=2 Code Red benchmark",
        all(checks),
        f"analytic peak {peak_wallclock:.3f}h (2.72h +-2%), "
        f"formula peak {peak_formula:.2f} (1826+-1), integrated {peak_infected:.1f} "
        f"(+-10%), die-out {dieout.itu:.2f} ITU vs {predicted_ext.itu:.2f} (+-10%)",
    )


def test_half_population_spread_time_benchmark():
    """A Slammer-scale worm owns half the population in ~11.35 ITU = ~7.6 min."""
    tv = spread_time(SLAMMER, 0.5)
    checks = [
        abs(tv.itu - 11.35) <= 0.005,
        abs(tv.wallclock - 7.57) <= 0.005,
        6.5 <= tv.wallclock <= 9.5,
    ]
    _verdict(
        5,
        "half-population spread time",
        all(checks),
        f"{tv.itu:.5f} ITU (11.35), {tv.wallclock:.3f} min (7.57, 'about 8 minutes')",
    )


def test_ensemble_means_converge_to_fluid():
    """Ensemble-mean infected fraction approaches the fluid curve as N grows."""
    started = time.perf_counter()
    gaps = []
    for n in (1000, 10000, 100000):
        params = ScenarioParams(
            n_hosts=n, virulence=1.0, i0=max(1, n // 1000),
            defense=DefenseKind.NO_PATCHING,
        )
        config = StochasticConfig(t_end_itu=16.0, seed=0, sample_dt_itu=0.05, runs=50)
        result = ensemble(params, config)
        reference = fluid.closed_form_no_patch(result.mean.t_itu, params) / n
        gaps.append(float(np.max(np.abs(result.mean.i / n - reference))))
    elapsed = time.perf_counter() - started
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.05 and elapsed < 120.0
    _verdict(
        6,
        "stochastic-to-fluid convergence",
        ok,
        f"sup gaps {gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f} "
        f"(last <=0.05), {elapsed:.1f}s (<120s)",
    )


def test_p2p_peak_scales_as_sqrt_n():
    """At gamma=2 the infection peak grows like sqrt(N)."""
    ratios = []
    for n in (10**4, 10**5, 10**6):
        params = ScenarioParams(
            n_hosts=n, virulence=1.0, i0=25,
            defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=10,
        )
        traj = integrate(params, IntegratorConfig(t_end_itu=14.0))
        _tv, peak_infected = trajectory_peak(traj)
        ratios.append(peak_infected / math.sqrt(n))
    spread = max(ratios) / min(ratios) - 1.0
    ok = spread <= 0.25
    _verdict(
        7,
        "p2p sqrt(N) peak scaling",
        ok,
        "peak/sqrt(N) = " + ", ".join(f"{r:.3f}" for r in ratios)
        + f"; spread {spread:.1%} (<=25%)",
    )


def test_monitor_sizing_rules():
    """Telescope thumb rules and the exact sizing agree at both scales."""
    thumb_slammer = thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS)
    thumb_ipv4 = thumb_rule_monitors(2**32, DefenseKind.FIXED_SERVERS)
    monitors = monitors_for_detection(SLAMMER, 2.42)
    checks = [
        thumb_slammer == math.ceil(85000 / math.log(85000)) == 7489,
        _rel(thumb_ipv4, 1.94e8) <= 0.01,
        monitors / thumb_slammer <= 1.25,
    ]
    _verdict(
        8,
        "telescope sizing rules",
        all(checks),
        f"thumb {thumb_slammer} (=ceil(N/lnN)), 2^32 thumb {thumb_ipv4} "
        f"(1.94e8 +-1%), exact sizing {monitors} "
        f"({monitors / thumb_slammer:.3f}x thumb, <=1.25x)",
    )


def test_detection_probability_at_thumb_rule_size():
    """A ceil(N/lnN) telescope detects the worm by t = ln ln N half the time."""
    started = time.perf_counter()
    n = 10000
    monitors = math.ceil(n / math.log(n))
    deadline = math.log(math.log(n))
    params = ScenarioParams(
        n_hosts=n, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )
    config = StochasticConfig(
        t_end_itu=deadline, seed=0, sample_dt_itu=0.05, runs=500
    )
    times = detection_sim(params, monitors, config)
    fraction = float(np.mean(times <= deadline))
    elapsed = time.perf_counter() - started
    ok = monitors == 1086 and fraction >= 0.5 and elapsed < 60.0
    _verdict(
        9,
        "empirical detection probability",
        ok,
        f"M={monitors}, P(detect by lnlnN) = {fraction:.3f} (>=0.5) "
        f"over 500 seeded runs, {elapsed:.1f}s (<60s)",
    )


def test_infection_curves_are_unimodal():
    """Every patched trajectory rises once and falls once before dying out."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    for defense in (DefenseKind.FIXED_SERVERS, DefenseKind.PEER_TO_PEER):
        for _draw in range(50):
            n = int(round(10 ** rng.uniform(3.0, 6.0)))
            gamma = float(rng.uniform(0.5, 4.0))
            p_bar = int(rng.integers(5, 101))
            i0 = int(rng.integers(1, 101))
            params = ScenarioParams(
                n_hosts=n, virulence=1.0, i0=i0,
                defense=defense, gamma=gamma, p_bar=p_bar,
            )
            if defense is DefenseKind.FIXED_SERVERS:
                # linear patch-down ends at the extinction predictor; once
                # fewer targets than servers remain the last infections decay
                # roughly like exp(-gamma t), so allow ln(2*p_bar)/gamma more
                t_end = (
                    fixed_extinction_time(params).itu
                    + math.log(4.0 * p_bar) / (0.8 * gamma)
                    + 2.0
                )
            else:
                t_end = p2p_extinction_time(params).itu * 1.3 + 2.0
            dt = 0.005
            stride = max(1, int(math.ceil(t_end / dt / 800.0)))
            traj = integrate(
                params,
                IntegratorConfig(t_end_itu=t_end, dt_itu=dt, sample_stride=stride),
            )
            assert traj.halt_itu is not None, (defense, n, gamma, p_bar, i0)
            steps = np.diff(traj.i)
            signs = np.sign(steps)
            signs = signs[signs != 0]
            flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
            shape_ok = flips == 1 and signs[0] > 0 and signs[-1] < 0
            assert shape_ok, (defense, n, gamma, p_bar, i0, flips)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 100
    _verdict(
        10,
        "unimodal infection curves",
        ok,
        f"{checked}/100 random patched scenarios rise and fall exactly once "
        f"({elapsed:.1f}s)",
    )
