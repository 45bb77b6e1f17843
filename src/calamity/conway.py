"""The classic doomsday arithmetic.

Each month contains an easy-to-remember anchor date that always lands
on the year's shared anchor weekday. Any date's weekday is the century
anchor, plus a year offset, plus the signed distance from the month's
anchor date, all mod 7.
"""

from __future__ import annotations

from .core import WEEKDAYS, Date, Weekday, _check_int, _check_year, _is_leap

#: Century anchors for one 400-year cycle, indexed by century mod 4.
#: Index 0 is the class of the 2000s (also 1600s, 2400s, ...).
CENTURY_ANCHORS = (2, 0, 5, 3)

#: Anchor day-of-month for each month of a common year.
DOOMSDAY_DATES = (3, 28, 7, 4, 9, 6, 11, 8, 5, 10, 7, 12)

#: January and February anchors fall one day later in leap years.
LEAP_OVERRIDES = {1: 4, 2: 29}

# Anchor days by leap class, indexed by ``leap``: the overrides applied once.
_ANCHOR_DAYS = (
    DOOMSDAY_DATES,
    tuple(LEAP_OVERRIDES.get(month, day) for month, day in enumerate(DOOMSDAY_DATES, start=1)),
)


def _century_anchor(year: int) -> int:
    # Unchecked: for a year already in range, such as a Date's.
    return CENTURY_ANCHORS[(year // 100) % 4]


def century_anchor(year: int) -> int:
    """Weekday contribution of ``year``'s century."""
    _check_year(year)
    return _century_anchor(year)


def _year_offset_arithmetic(yy: int) -> int:
    return (yy + yy // 4) % 7


def year_offset_arithmetic(yy: int) -> int:
    """(yy + yy // 4) mod 7 for a two-digit year within its century."""
    _check_int("two-digit year", yy, 0, 99)
    return _year_offset_arithmetic(yy)


def _doomsday_date(month: int, leap: bool) -> int:
    # ``leap`` indexes the table: a bool, as ``_is_leap`` gives.
    return _ANCHOR_DAYS[leap][month - 1]


def doomsday_date(month: int, leap: bool = False) -> int:
    """Day of month of the anchor date for ``month``; ``leap`` is read for its truth."""
    _check_int("month", month, 1, 12)
    return _doomsday_date(month, bool(leap))


def weekday_standard(date: Date) -> Weekday:
    """Weekday via the arithmetic method.

    The month step is a plain subtraction that may go negative; the
    final floored mod folds it back into 0..6.
    """
    year = date.year
    delta = date.day - _doomsday_date(date.month, _is_leap(year))
    total = _century_anchor(year) + _year_offset_arithmetic(year % 100) + delta
    return WEEKDAYS[total % 7]
