"""Shared builders for the test suite.

Everything lives on [0, 1] unless a test says otherwise; `make_basis` takes a
function count (the constructor takes the largest index).
"""

import tracemalloc

import numpy as np
import pytest

from stratrace import Interval, OrthonormalBasis, PolynomialWeight


UNIT = Interval(0.0, 1.0)


def make_basis(family: str, count: int, interval: Interval = UNIT) -> OrthonormalBasis:
    return OrthonormalBasis(family, interval, count - 1)


def poly(*coeffs, interval: Interval = UNIT) -> PolynomialWeight:
    return PolynomialWeight(tuple(float(c) for c in coeffs), interval)


def _traced_peak(call):
    """Peak bytes traced while `call` runs, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def unit_interval() -> Interval:
    return UNIT


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260822)


# one [PASS]/[FAIL] line per acceptance check, echoed after the test run so
# the verdicts survive output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
