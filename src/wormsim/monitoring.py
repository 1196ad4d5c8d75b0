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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DefenseKind, ScenarioParams, _is_count, _is_positive


@dataclass(frozen=True)
class MonitorPlan:
    """A telescope size and the scans it expects by its deadline."""

    monitors: int
    expected_scans_at_deadline: float


def expected_scans(t, params: ScenarioParams, monitors: int):
    """Expected cumulative monitor hits by ITU time t.

    M_bar(t) = monitors * ln(1 + (I0/N) * (e^t - 1)).  The logarithm is
    evaluated in log-sum form, so it stays finite for large t; the product
    with ``monitors`` can still pass the float range, and is then inf, with
    no warning.  Near t = 0 the log-sum can round below 0; it is then taken
    as 0, so the result is never negative.  Accepts scalar or array t.
    Raises ValueError unless ``monitors`` is an integer >= 1.
    """
    if not _is_count(monitors) or monitors < 1:
        raise ValueError("monitors must be an integer >= 1")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    frac = params.i0 / params.n_hosts
    log_a = np.maximum(np.logaddexp(math.log1p(-frac), math.log(frac) + t), 0.0)
    with np.errstate(over="ignore"):
        out = monitors * log_a
    return float(out) if out.ndim == 0 else out


def monitors_for_detection(params: ScenarioParams, deadline_itu: float) -> MonitorPlan:
    """Smallest telescope whose expected hit count reaches 1 by the deadline.

    Raises ValueError if even monitoring every host cannot get there
    (deadline too early for the worm to have scanned enough, or so early
    that the expected scans round to 0, which no telescope size reaches).
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
    return MonitorPlan(monitors=monitors, expected_scans_at_deadline=monitors * per_monitor)


def thumb_rule_monitors(n_hosts: int, regime: DefenseKind) -> int:
    """Telescope size matched to the defense's reaction window.

    ceil(N / ln N) for fixed-capacity patching (lead time ~ln N) and
    ceil(N / ln ln N) for peer-to-peer patching (lead time ~ln ln N).
    Requires an integer n_hosts >= 3 so both logarithms are positive.
    """
    if not _is_count(n_hosts) or n_hosts < 3:
        raise ValueError("n_hosts must be an integer >= 3")
    if regime is DefenseKind.FIXED_SERVERS:
        return math.ceil(n_hosts / math.log(n_hosts))
    if regime is DefenseKind.PEER_TO_PEER:
        return math.ceil(n_hosts / math.log(math.log(n_hosts)))
    raise ValueError(
        "no patching regime has no reaction deadline to size a telescope for"
    )
