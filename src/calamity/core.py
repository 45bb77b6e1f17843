"""Gregorian dates, leap rules, and a day-counting weekday oracle.

The supported span is 1583..9999: the first full year of the Gregorian
reform through the last four-digit year. Weekdays are indexed 0..6
counting from Sunday; that convention is fixed here once and used by
every other module.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

MIN_YEAR = 1583
MAX_YEAR = 9999

#: Days per month in a common year.
COMMON_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
# Days per month by leap class, indexed by ``_is_leap(year)``: the one
# place a leap year's February 29 is written.
_MONTH_LENGTHS = (COMMON_MONTH_LENGTHS, (31, 29, *COMMON_MONTH_LENGTHS[2:]))

# [0-9], not \d: \d also matches non-ASCII digits such as "١".
_ISO_DATE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})")


class Weekday(enum.IntEnum):
    """Day of week, Sunday = 0 through Saturday = 6."""

    Sunday = 0
    Monday = 1
    Tuesday = 2
    Wednesday = 3
    Thursday = 4
    Friday = 5
    Saturday = 6


#: Every weekday by its number; ``WEEKDAYS[n]`` is ``Weekday(n)`` as a
#: tuple index, a fraction of the cost of the enum call.
WEEKDAYS = tuple(Weekday)


class Direction(str, enum.Enum):
    """Orientation of a gap measurement or a navigation step."""

    FORWARD = "forward"
    BACKWARD = "backward"

    def __str__(self) -> str:
        return self.value


# The members as module globals, for the traced routes: a global read
# costs a fraction of an enum attribute read.
_FORWARD, _BACKWARD = Direction


def _check_year(year: int) -> None:
    if not MIN_YEAR <= year <= MAX_YEAR:
        raise ValueError(f"year {year} outside supported range {MIN_YEAR}..{MAX_YEAR}")


def _is_leap(year: int) -> bool:
    # Unchecked: for a year already in range, such as a Date's.
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def is_leap(year: int) -> bool:
    """True when ``year`` contains a February 29."""
    _check_year(year)
    return _is_leap(year)


#: Years in one Gregorian cycle. Dates this far apart share their leap
#: rule, two-digit year, century anchor and weekday, so the first 400
#: years of a longer range already hold every case the rest repeats.
CYCLE_YEARS = 400


def month_length(year: int, month: int) -> int:
    """Number of days in the given month of the given year."""
    if not 1 <= month <= 12:
        raise ValueError(f"month {month} outside 1..12")
    _check_year(year)
    return _MONTH_LENGTHS[_is_leap(year)][month - 1]


@dataclass(frozen=True, slots=True, order=True)
class Date:
    """A calendar date within the supported span. Orders chronologically."""

    year: int
    month: int
    day: int

    def __post_init__(self) -> None:
        # Exact type check: rejects bools and floats, which would compare
        # equal to a valid date or fail only when rendered.
        if not (type(self.year) is int and type(self.month) is int and type(self.day) is int):
            raise TypeError(
                f"date fields must be int, got {self.year!r}, {self.month!r}, {self.day!r}"
            )
        limit = month_length(self.year, self.month)
        if not 1 <= self.day <= limit:
            raise ValueError(
                f"day {self.day} outside 1..{limit} for {self.year:04d}-{self.month:02d}"
            )

    @classmethod
    def fromisoformat(cls, text: str) -> "Date":
        """Parse exactly ``YYYY-MM-DD`` written in ASCII digits."""
        match = _ISO_DATE.fullmatch(text)
        if match is None:
            raise ValueError(f"Invalid isoformat string: {text!r}")
        return cls(*map(int, match.groups()))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"


# Cumulative days before the first of each month, common and leap.
_CUM_COMMON, _CUM_LEAP = (tuple(sum(lengths[:m]) for m in range(12)) for lengths in _MONTH_LENGTHS)


def _day_index(year: int, month: int, day: int) -> int:
    """Days counted from the start of year 1 up to and including the date."""
    prior = year - 1
    leap_days = prior // 4 - prior // 100 + prior // 400
    table = _CUM_LEAP if _is_leap(year) else _CUM_COMMON
    return prior * 365 + leap_days + table[month - 1] + day


_REFERENCE_WEEKDAY = Weekday.Tuesday
_REFERENCE_INDEX = _day_index(2000, 4, 4)


def oracle_weekday(date: Date) -> Weekday:
    """Weekday by brute-force day counting.

    Counts the signed day offset between ``date`` and 2000-04-04, a
    Tuesday, then walks the 7-day cycle by that amount. Independent of
    every lookup table in this package, so it can referee all of them.
    """
    offset = _day_index(date.year, date.month, date.day) - _REFERENCE_INDEX
    return WEEKDAYS[(_REFERENCE_WEEKDAY + offset) % 7]


def _check_range(start_year: int, end_year: int) -> None:
    if start_year > end_year:
        raise ValueError(f"empty year range {start_year}..{end_year}")
    _check_year(start_year)
    _check_year(end_year)


def _days_in_years(start_year: int, end_year: int) -> int:
    """Days from Jan 1 of ``start_year`` through Dec 31 of ``end_year``, by the leap rule alone."""
    return sum(366 if is_leap(year) else 365 for year in range(start_year, end_year + 1))


# The walk's trusted builder: ``object.__new__`` and the slot setters,
# past the frozen ``__init__`` and its checks, for fields the walk's own
# loop bounds. ``verify``'s calendar check proves those bounds.
_NEW = object.__new__
_SET_YEAR, _SET_MONTH, _SET_DAY = Date.year.__set__, Date.month.__set__, Date.day.__set__


def iter_dates(start_year: int, end_year: int) -> Iterator[Date]:
    """Every date from Jan 1 of ``start_year`` through Dec 31 of ``end_year``."""
    _check_range(start_year, end_year)
    for year in range(start_year, end_year + 1):
        for month, length in enumerate(_MONTH_LENGTHS[_is_leap(year)], start=1):
            for day in range(1, length + 1):
                date = _NEW(Date)
                _SET_YEAR(date, year)
                _SET_MONTH(date, month)
                _SET_DAY(date, day)
                yield date
