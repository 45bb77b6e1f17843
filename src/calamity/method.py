"""The full lookup pipeline: century anchor + year digit + month offset.

Every contribution is a single digit, read through its owner module's
unchecked form: a ``Date``'s fields are already in range. The canonical
form always adds the forward month offset; the backward form subtracts
the backward one.
The traced form takes its answer from one of the two and records every
component of that direction's computation, a backward offset as a
subtraction, so the computation can be checked by eye.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from .conway import _century_anchor
from .core import _BACKWARD, _FORWARD, WEEKDAYS, Date, Direction, Weekday, _is_leap
from .doomyears import YearStep, _year_offset_doomyear, _year_step
from .vector import VectorCode, _gaps, _square_knot_backward, _square_knot_forward, _vector_code

#: Sentinel for "pick the month direction with the smaller gap".
AUTO = "auto"


class MonthStep(NamedTuple):
    """Recorded month step: gap direction, gap size, selected code digit."""

    direction: Direction
    gap: int
    digit: int


class StepTrace(NamedTuple):
    """Every component of one weekday computation."""

    century_anchor: int
    year_navigation: YearStep
    month_code: VectorCode
    target_gap: MonthStep
    final: Weekday

    @property
    def month_offset(self) -> int:
        """Signed month contribution: positive forward, negative backward."""
        reduced = (self.target_gap.gap + self.target_gap.digit) % 7
        if self.target_gap.direction is _FORWARD:
            return reduced
        return -reduced

    def recompute(self) -> Weekday:
        """Re-add the recorded components; must match the square-knot ``final``."""
        total = self.century_anchor + self.year_navigation.digit + self.month_offset
        return WEEKDAYS[total % 7]


def weekday_calamity(date: Date) -> Weekday:
    """Weekday as century anchor + year digit + forward month offset, mod 7."""
    year = date.year
    code = _vector_code(date.month, _is_leap(year))
    total = (
        _century_anchor(year)
        + _year_offset_doomyear(year % 100)
        + _square_knot_forward(date.day, code)
    )
    return WEEKDAYS[total % 7]


def weekday_calamity_backward(date: Date) -> Weekday:
    """Weekday as century anchor + year digit - backward month offset, mod 7."""
    year = date.year
    code = _vector_code(date.month, _is_leap(year))
    total = (
        _century_anchor(year)
        + _year_offset_doomyear(year % 100)
        - _square_knot_backward(date.day, code)
    )
    return WEEKDAYS[total % 7]


def weekday_calamity_traced(
    date: Date, month_direction: Union[Direction, str] = AUTO
) -> tuple[Weekday, StepTrace]:
    """Compute the weekday and a full step trace.

    ``month_direction`` is forward, backward, or ``"auto"``. Auto takes
    whichever gap of the target day is smaller and falls back to
    forward when the day sits on an anchor. The weekday comes from
    ``weekday_calamity`` or ``weekday_calamity_backward``, whichever
    matches the direction, so it is the answer ``verify`` checks; the
    trace's ``recompute()`` cross-checks the recorded steps against it.
    The resulting weekday never depends on the choice.
    """
    anchor = _century_anchor(date.year)
    year = _year_step(date.year % 100)
    code = _vector_code(date.month, _is_leap(date.year))
    pair = _gaps(date.day)
    if type(month_direction) is Direction:
        chosen = month_direction
    elif month_direction == AUTO:
        chosen = _FORWARD if pair.forward <= pair.backward else _BACKWARD
    else:
        chosen = Direction(month_direction)

    if chosen is _FORWARD:
        step = MonthStep(_FORWARD, pair.forward, code.tens)
        final = weekday_calamity(date)
    else:
        step = MonthStep(_BACKWARD, pair.backward, code.units)
        final = weekday_calamity_backward(date)
    return final, StepTrace(anchor, year, code, step, final)
