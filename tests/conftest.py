import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings, HealthCheck

from tierlang.operators import builtin_registry
from tierlang.corpus import load_corpus

# Property tests build whole programs; generation dominates runtime, so
# deadlines are off and the suppressed check is the data-too-large one.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


@pytest.fixture(scope="session")
def corpus():
    return {entry.name: entry for entry in load_corpus()}


class TimeBoundExceeded(BaseException):
    """Raised in a run that outlasts its `time_bound`.  Not an Exception,
    so the code under test and the tests' own handlers let it through."""


@contextmanager
def time_bound(seconds: float = 10.0):
    """Raise TimeBoundExceeded in this process if the block runs longer
    than ``seconds`` of wall time, so a run that should stop on its fuel
    fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeBoundExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
