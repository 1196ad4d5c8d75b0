"""Sizing a network telescope to catch a worm in time.

A telescope of M monitored addresses sees a worm's random scans at rate
(M/N) * I(t), so the expected hit count by time t is
M * ln(1 + (I0/N)(e^t - 1)).  Defenses set the deadline: a fixed patch
crew needs warning ~ln N before saturation, a p2p patch only ~ln ln N.
Matching telescope to deadline gives the thumb rules N/ln N and
N/ln ln N.

Run: python demos/monitoring_and_detection.py
"""

import math

import numpy as np

from wormsim import (
    DefenseKind,
    ScenarioParams,
    StochasticConfig,
    detection_sim,
    expected_scans,
    monitors_for_detection,
    thumb_rule_monitors,
)


def main():
    print("=== Telescope sizing thumb rules ===\n")
    print(f"{'N':>13} {'fixed: N/lnN':>13} {'p2p: N/lnlnN':>13}")
    for n in (85000, 2**32):
        fixed = thumb_rule_monitors(n, DefenseKind.FIXED_SERVERS)
        p2p = thumb_rule_monitors(n, DefenseKind.PEER_TO_PEER)
        print(f"{n:13,} {fixed:13,} {p2p:13,}")
    print(
        "\nThe faster defense needs the earlier warning, hence the bigger"
        " telescope: at IPv4 scale, N/ln ln N is about 1.4 billion"
        " addresses versus 194 million for N/ln N."
    )

    slammer = ScenarioParams(
        n_hosts=85000, virulence=1.5, i0=1, defense=DefenseKind.NO_PATCHING
    )
    deadline = 2.42
    thumb = thumb_rule_monitors(85000, DefenseKind.FIXED_SERVERS)
    print(f"\n=== Slammer scale, deadline {deadline} ITU ===\n")
    print("Expected hits by the deadline as the telescope grows:")
    print(f"{'monitors':>9} {'E[hits]':>8}")
    for m in (1000, thumb, 20000):
        print(f"{m:9,} {expected_scans(deadline, slammer, m):8.3f}")

    monitors = monitors_for_detection(slammer, deadline)
    print(
        f"\nSmallest telescope with E[hits] >= 1 by the deadline:"
        f" {monitors:,} monitors"
        f" (E[hits] = {expected_scans(deadline, slammer, monitors):.3f})."
    )
    print(
        f"That is {monitors / thumb:.2f}x the N/ln N thumb value of"
        f" {thumb:,}: the back-of-envelope rule sits within 25% of the"
        " exact sizing."
    )

    # Empirical check: at the thumb-rule size, detection by t = ln ln N
    # should be roughly a coin flip (E[hits] ~ 1 means P ~ 1 - 1/e at
    # best, less when the worm is still tiny at the deadline).
    n = 10000
    monitors = math.ceil(n / math.log(n))
    horizon = math.log(math.log(n))
    params = ScenarioParams(
        n_hosts=n, virulence=1.0, i0=1, defense=DefenseKind.NO_PATCHING
    )
    config = StochasticConfig(t_end_itu=horizon, seed=0, sample_dt_itu=0.05, runs=500)
    times = detection_sim(params, monitors, config)
    fraction = float(np.mean(times <= horizon))
    print(
        f"\n=== Stochastic check at N={n:,} ===\n\n"
        f"{monitors:,} monitors, 500 seeded runs: "
        f"P(first hit by ln ln N = {horizon:.2f} ITU) = {fraction:.3f}."
    )
    print(
        "Half the outbreaks are caught while fewer than a dozen hosts"
        " are infected; the other half are louder a moment later."
    )


if __name__ == "__main__":
    main()
