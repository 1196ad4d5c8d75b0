"""Sizing network telescopes that must spot the worm in time.

An infected host scans at rate 1 per ITU and each scan lands in a
monitored address block of size M with probability M/N, so the
expected number of monitor hits by time t follows the integrated
infection curve.  These helpers answer the two practical questions:
how many scans a given telescope will have seen by a deadline, and how
large the telescope must be for the expected count to reach 1 by the
deadline (the point where detection becomes likelier than not).

Rules of thumb tie the telescope to the defense that must be awakened:
patching needs lead time ~ln N when dissemination is fixed-capacity
and only ~ln ln N when the patch spreads peer-to-peer, giving telescope
sizes N/ln N and N/ln ln N respectively.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DefenseKind, ScenarioParams, _is_count, _is_positive, _times


def _check_monitors(params: ScenarioParams, monitors: int) -> None:
    """ValueError unless monitors is an integer, not a bool, in [1, n_hosts]."""
    if not _is_count(monitors) or not 1 <= monitors <= params.n_hosts:
        raise ValueError("monitors must be an integer in [1, n_hosts]")


def expected_scans(t, params: ScenarioParams, monitors: int):
    """Expected cumulative monitor hits by ITU time t.

    M_bar(t) = monitors * ln(1 + (I0/N) * (e^t - 1)).  The logarithm is
    evaluated in log-sum form, so it stays finite for large t; the product
    with ``monitors`` can still pass the float range, and is then inf, with
    no warning.  Near t = 0 the log-sum can round below 0; it is then taken
    as 0, so the result is never negative.  t may be an array; a scalar
    gives a float64.  Raises ValueError unless t >= 0 and monitors is in [1, N].
    """
    _check_monitors(params, monitors)
    t = _times(t)
    frac = params.i0 / params.n_hosts
    log_a = np.maximum(np.logaddexp(math.log1p(-frac), math.log(frac) + t), 0.0)
    with np.errstate(over="ignore"):
        return monitors * log_a


def detection_probability(t, params: ScenarioParams, monitors: int):
    """Upper bound on the chance that the telescope is hit by ITU time t.

    1 - [(1 + theta) / (1 + theta e^((1 + theta) t))]^I0, theta = M/N, exact
    for a Yule chain (birth rate k, hit rate theta k); the undefended chain's
    birth rate k (N - k) / N is lower, so it is hit no sooner.  In log form:
    with x = (1 + theta) t, the log of the miss chance is
    -log1p(theta / (1 + theta) * expm1(x)) below x = 1, where a difference
    of two logs near log(1 + theta) would cancel, and that difference from
    x = 1 on, where expm1(x) could overflow.
    """
    _check_monitors(params, monitors)
    t = _times(t)
    theta = monitors / params.n_hosts
    x = (1.0 + theta) * t
    near = -np.log1p(theta / (1.0 + theta) * np.expm1(np.minimum(x, 1.0)))
    log_theta = math.log(theta)
    far = np.logaddexp(0.0, log_theta) - np.logaddexp(0.0, log_theta + x)
    return 0.0 - np.expm1(params.i0 * np.where(x < 1.0, near, far))


def monitors_for_detection(params: ScenarioParams, deadline_itu: float) -> int:
    """Smallest telescope whose expected hit count reaches 1 by the deadline.

    Returns the number of monitored hosts; expected_scans at the deadline
    with that many monitors gives the hit count it expects.  Raises
    ValueError if even monitoring every host cannot get there (deadline
    too early for the worm to have scanned enough, or so early that the
    expected scans round to 0, which no telescope size reaches).
    """
    if not _is_positive(deadline_itu):
        raise ValueError("deadline_itu must be positive")
    per_monitor = expected_scans(deadline_itu, params, 1)
    needed = 1.0 / per_monitor if per_monitor > 0.0 else math.inf
    monitors = math.ceil(needed) if needed < math.inf else needed
    if monitors > params.n_hosts:
        raise ValueError(
            f"deadline {deadline_itu:g} ITU needs {monitors} monitors, "
            f"more than the population of {params.n_hosts}"
        )
    return monitors


def thumb_rule_monitors(n_hosts: int, regime: DefenseKind) -> int:
    """Telescope size matched to the defense's reaction window.

    ceil(N / ln N) for fixed-capacity patching (lead time ~ln N) and
    ceil(N / ln ln N) for peer-to-peer patching (lead time ~ln ln N).
    Requires an integer n_hosts >= 3 so both logarithms are positive; a size
    above N raises ValueError, as peer-to-peer does for N <= 15 (ln ln N < 1).
    """
    if not _is_count(n_hosts) or n_hosts < 3:
        raise ValueError("n_hosts must be an integer >= 3")
    if regime is DefenseKind.FIXED_SERVERS:
        monitors = math.ceil(n_hosts / math.log(n_hosts))
    elif regime is DefenseKind.PEER_TO_PEER:
        monitors = math.ceil(n_hosts / math.log(math.log(n_hosts)))
    else:
        raise ValueError(
            "no patching regime has no reaction deadline to size a telescope for"
        )
    if monitors > n_hosts:
        raise ValueError(f"the {regime.value} rule needs {monitors} monitors, "
                         f"more than the population of {n_hosts}")
    return monitors
