"""Hypothesis strategies, child-process setup, worker checks and engine probes for the tests."""

import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from calamity.core import MAX_YEAR, MIN_YEAR, Date, month_length


@st.composite
def dates(draw, min_year=MIN_YEAR, max_year=MAX_YEAR):
    """Any valid date, optionally restricted by year."""
    year = draw(st.integers(min_year, max_year))
    month = draw(st.integers(1, 12))
    day = draw(st.integers(1, month_length(year, month)))
    return Date(year, month, day)


def child_env():
    """The environment for a child Python that imports this tree.

    ``PYTHONUNBUFFERED`` is dropped: with it, every ``print`` in the child
    flushes, so a test could not tell whether the code flushes its output.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def open_fds():
    """This process's open file descriptors, or None where ``/proc`` does not list them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_nothing_left(fds_before):
    """Every forked worker is reaped and every pipe closed, however the sweep ended."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds_before


def probe_share(first, last, act=None):
    """An engine test's share: its years and its process, after ``act(first, last)`` if given."""
    if act is not None:
        act(first, last)
    return [first, last, os.getpid()]


def refuse(error):
    """A stand-in for ``os.pipe`` or ``os.fork`` that fails with ``error``."""

    def refused():
        raise OSError(error, os.strerror(error))

    return refused
