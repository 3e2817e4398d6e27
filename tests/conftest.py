"""Shared fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``deadline(seconds)``: a block that runs longer fails with TimeoutError instead of hanging."""

    @contextlib.contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
