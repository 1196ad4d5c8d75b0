"""When does the smooth fluid model tell the truth?

The ODE curves are the large-N limit of a discrete random process in
which individual hosts get infected one at a time.  This script runs
seeded event-driven simulations at increasing network sizes and watches
the ensemble mean collapse onto the fluid sigmoid.

Run: python demos/stochastic_vs_fluid.py
"""

import numpy as np

from wormsim import (
    DefenseKind,
    ScenarioParams,
    StochasticConfig,
    closed_form_no_patch,
    ensemble,
    simulate,
)


def main():
    print("=== Event-driven runs vs the fluid limit (undefended worm) ===\n")

    print("Sup-norm gap between the 50-run mean infected fraction and the")
    print("fluid curve, with I0/N held at 0.1%:")
    print(f"{'N':>8} {'sup gap':>8}")
    for n in (1000, 10000, 100000):
        params = ScenarioParams(
            n_hosts=n, virulence=1.0, i0=max(1, n // 1000),
            defense=DefenseKind.NO_PATCHING,
        )
        config = StochasticConfig(t_end_itu=16.0, seed=0, sample_dt_itu=0.05, runs=50)
        result = ensemble(params, config)
        fluid = closed_form_no_patch(result.mean.t_itu, params) / n
        gap = float(np.max(np.abs(result.mean.i / n - fluid)))
        print(f"{n:8,} {gap:8.4f}")
    print(
        "\nThe gap shrinks roughly like 1/sqrt(N): at N=1000 single-host"
        " luck still shifts the takeoff visibly, by N=100000 the mean"
        " hugs the sigmoid to half a percent."
    )

    # A single small-N run wanders around the mean; the spread at the
    # takeoff is where stochastic timing matters most.
    params = ScenarioParams(
        n_hosts=1000, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )
    config = StochasticConfig(t_end_itu=16.0, seed=0, sample_dt_itu=0.05, runs=50)
    result = ensemble(params, config)
    one = simulate(params, StochasticConfig(t_end_itu=16.0, seed=0, sample_dt_itu=0.05))
    print("\nN=1000, I0=1: one run vs the 50-run ensemble:")
    print(f"{'t (ITU)':>8} {'run 0':>7} {'mean':>8} {'std':>7}")
    for t in (4.0, 6.0, 8.0, 10.0, 12.0):
        k = int(np.argmin(np.abs(result.mean.t_itu - t)))
        print(f"{t:8.1f} {one.i[k]:7.0f} {result.mean.i[k]:8.1f} "
              f"{result.i_std[k]:7.1f}")
    print(
        f"\nAll {config.runs} runs ride the same sigmoid, just on"
        " jittered clocks: the big spread at t=6..8 is takeoff timing,"
        " not shape."
    )

    again = simulate(params, StochasticConfig(t_end_itu=16.0, seed=0, sample_dt_itu=0.05))
    other = simulate(params, StochasticConfig(t_end_itu=16.0, seed=1, sample_dt_itu=0.05))
    print(
        f"\nReproducibility: seed 0 twice gives identical curves"
        f" ({bool(np.all(one.i == again.i))}); seed 1 diverges at t=8"
        f" ({one.i[160]:.0f} vs {other.i[160]:.0f} infected)."
    )


if __name__ == "__main__":
    main()
