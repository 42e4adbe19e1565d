"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.elect_leader import ElectLeader
from repro.core.params import BaselineParams, ProtocolParams
from repro.core.partition import RankPartition
from repro.scheduler.rng import make_rng


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def small_params() -> ProtocolParams:
    """A small, fast parametrization used across unit tests."""
    return ProtocolParams(n=12, r=3)


@pytest.fixture
def small_partition(small_params: ProtocolParams) -> RankPartition:
    return RankPartition(small_params.n, small_params.r)


@pytest.fixture
def small_protocol(small_params: ProtocolParams) -> ElectLeader:
    return ElectLeader(small_params)


@pytest.fixture
def medium_params() -> ProtocolParams:
    return ProtocolParams(n=24, r=4)


@pytest.fixture
def medium_protocol(medium_params: ProtocolParams) -> ElectLeader:
    return ElectLeader(medium_params)


@pytest.fixture
def baseline_params() -> BaselineParams:
    return BaselineParams(n=16)
