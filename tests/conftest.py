"""Shared fixtures: the canonical operating points used across tests, and a
peak-memory probe."""

import tracemalloc

import pytest

from wormsim.core import DefenseKind, ScenarioParams

CR = dict(n_hosts=360000, virulence=1.8, i0=25)


@pytest.fixture
def codered_nopatch():
    return ScenarioParams(defense=DefenseKind.NO_PATCHING, **CR)


@pytest.fixture
def codered_fixed():
    return ScenarioParams(
        defense=DefenseKind.FIXED_SERVERS, gamma=312.0, p_bar=25, **CR
    )


@pytest.fixture
def codered_p2p_g1():
    return ScenarioParams(defense=DefenseKind.PEER_TO_PEER, gamma=1.0, p_bar=10, **CR)


@pytest.fixture
def codered_p2p_g2():
    return ScenarioParams(defense=DefenseKind.PEER_TO_PEER, gamma=2.0, p_bar=10, **CR)


@pytest.fixture
def slammer():
    return ScenarioParams(
        n_hosts=85000, virulence=1.5, i0=1, defense=DefenseKind.NO_PATCHING
    )


@pytest.fixture
def desk_fixed():
    return ScenarioParams(
        n_hosts=10000,
        virulence=1.8,
        i0=25,
        defense=DefenseKind.FIXED_SERVERS,
        gamma=8.666666666666666,
        p_bar=25,
    )


@pytest.fixture
def traced_peak():
    """A function that calls f(*args) with tracemalloc tracing that call alone,
    and returns (f's result, the peak of traced memory in bytes)."""

    def trace(f, *args):
        tracemalloc.start()
        try:
            return f(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return trace
