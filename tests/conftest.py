"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.comm.context import Context
from repro.workloads.kv import sum_workload


@pytest.fixture(scope="session")
def kv_small():
    """A small key-value workload with a known reference aggregation."""
    return sum_workload(3_000, num_keys=300, seed=42)


@pytest.fixture(params=[1, 2, 4])
def ctx(request):
    """SPMD contexts over 1, 2 and 4 PEs (most tests run on all three)."""
    return Context(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def deadline():
    """``deadline(seconds)`` arms SIGALRM: a call that runs longer raises
    ``TimeoutError`` in the test instead of hanging the suite (there is
    no pytest-timeout)."""

    def _expired(signum, frame):
        raise TimeoutError("test exceeded its deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
