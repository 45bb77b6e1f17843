"""The classic doomsday arithmetic.

Each month contains an easy-to-remember anchor date that always lands
on the year's shared anchor weekday. Any date's weekday is the century
anchor, plus a year offset, plus the signed distance from the month's
anchor date, all mod 7.
"""

from __future__ import annotations

from .core import WEEKDAYS, Date, Weekday, _check_year, _is_leap

#: Century anchors for one 400-year cycle, indexed by century mod 4.
#: Index 0 is the class of the 2000s (also 1600s, 2400s, ...).
CENTURY_ANCHORS = (2, 0, 5, 3)

#: Anchor day-of-month for each month of a common year.
DOOMSDAY_DATES = (3, 28, 7, 4, 9, 6, 11, 8, 5, 10, 7, 12)

#: January and February anchors fall one day later in leap years.
LEAP_OVERRIDES = {1: 4, 2: 29}


def _century_anchor(year: int) -> int:
    # Unchecked: for a year already in range, such as a Date's.
    return CENTURY_ANCHORS[(year // 100) % 4]


def century_anchor(year: int) -> int:
    """Weekday contribution of ``year``'s century."""
    _check_year(year)
    return _century_anchor(year)


def year_offset_arithmetic(yy: int) -> int:
    """(yy + yy // 4) mod 7 for a two-digit year within its century."""
    if not 0 <= yy <= 99:
        raise ValueError(f"two-digit year {yy} outside 0..99")
    return (yy + yy // 4) % 7


def doomsday_date(month: int, leap: bool = False) -> int:
    """Day of month of the anchor date for ``month``."""
    if not 1 <= month <= 12:
        raise ValueError(f"month {month} outside 1..12")
    if leap and month in LEAP_OVERRIDES:
        return LEAP_OVERRIDES[month]
    return DOOMSDAY_DATES[month - 1]


def weekday_standard(date: Date) -> Weekday:
    """Weekday via the arithmetic method.

    The month step is a plain subtraction that may go negative; the
    final floored mod folds it back into 0..6.
    """
    delta = date.day - doomsday_date(date.month, _is_leap(date.year))
    total = _century_anchor(date.year) + year_offset_arithmetic(date.year % 100) + delta
    return WEEKDAYS[total % 7]
