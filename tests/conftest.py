"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def deadline():
    """A sweep that hangs fails the test after 60 s instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("the sweep took more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
