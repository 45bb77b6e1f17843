"""Shared hypothesis strategies and child-process setup for the test suite."""

import os
from pathlib import Path

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
