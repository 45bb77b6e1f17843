"""Fixtures shared by the test modules."""

import signal
import warnings

import pytest

# On a failing example, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst, whose import warns
# (DeprecationWarning: mypy_extensions.TypedDict). Under
# ``filterwarnings = ["error"]`` that warning, raised inside the plugin's
# report hook, ended the session with an INTERNALERROR in place of the
# failure's report. Importing it once here, with that warning ignored,
# leaves the later import nothing to warn about.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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
