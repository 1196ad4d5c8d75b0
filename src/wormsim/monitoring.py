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

from .core import DefenseKind, ScenarioParams, _is_count, validate


@dataclass(frozen=True)
class MonitorPlan:
    """A telescope size together with the deadline it was sized for."""

    monitors: int
    deadline_itu: float
    expected_scans_at_deadline: float


def expected_scans(t, params: ScenarioParams, monitors: int):
    """Expected cumulative monitor hits by ITU time t.

    M_bar(t) = monitors * ln(1 + (I0/N) * (e^t - 1)), evaluated in
    log-sum form so large t cannot overflow.  Accepts scalar or array t.
    Raises ValueError unless ``monitors`` is an integer >= 1.
    """
    validate(params)
    if not _is_count(monitors) or monitors < 1:
        raise ValueError("monitors must be an integer >= 1")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    frac = params.i0 / params.n_hosts
    log_a = np.logaddexp(math.log1p(-frac), math.log(frac) + t)
    out = monitors * log_a
    return float(out) if out.ndim == 0 else out


def monitors_for_detection(params: ScenarioParams, deadline_itu: float) -> MonitorPlan:
    """Smallest telescope whose expected hit count reaches 1 by the deadline.

    Raises ValueError if even monitoring every host cannot get there
    (deadline too early for the worm to have scanned enough).
    """
    validate(params)
    if not np.isfinite(deadline_itu) or deadline_itu <= 0.0:
        raise ValueError("deadline_itu must be positive")
    per_monitor = expected_scans(deadline_itu, params, 1)
    monitors = math.ceil(1.0 / per_monitor)
    if monitors > params.n_hosts:
        raise ValueError(
            f"deadline {deadline_itu:g} ITU needs {monitors} monitors, "
            f"more than the population of {params.n_hosts}"
        )
    return MonitorPlan(
        monitors=monitors,
        deadline_itu=deadline_itu,
        expected_scans_at_deadline=monitors * per_monitor,
    )


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
