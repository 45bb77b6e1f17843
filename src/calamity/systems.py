"""The seven families of same-weekday anchor-date systems.

Shift every classic anchor date by the same number of days k (mod 7)
and the method still works: the anchor dates of a year still share one
weekday, only the code table rotates and the century anchors move with
the shift. Class k = 0 is the classic doomsday set; Wang's null-days
set is class k = 5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .conway import CENTURY_ANCHORS, DOOMSDAY_DATES, doomsday_date
from .core import COMMON_MONTH_LENGTHS, WEEKDAYS, Date, Weekday, _check_int, _check_year, _is_leap
from .doomyears import _year_offset_doomyear
from .vector import VectorCode, _square_knot_forward


def _code_for_residue(residue: int) -> VectorCode:
    if residue == 0:
        return VectorCode(0, 0)
    return VectorCode(7 - residue, residue)


#: The rotation cycle in residue order: _ROTATION[r] is the code for residue r.
_ROTATION = tuple(_code_for_residue(r) for r in range(7))


def _month_codes(k: int, leap: bool) -> tuple[VectorCode, ...]:
    """Class k's code for each month: the anchor day's residue moved k days."""
    return tuple(_ROTATION[(doomsday_date(month, leap) + k) % 7] for month in range(1, 13))


#: Each class's own tables, built once: _MONTH_CODES[k][leap][month - 1]
#: and _CENTURY_ANCHORS[k][century % 4]. Class k's anchor dates sit k days
#: after the classic ones, so their shared weekday, and with it every
#: century anchor, moves k days forward.
_MONTH_CODES = tuple((_month_codes(k, False), _month_codes(k, True)) for k in range(7))
_CENTURY_ANCHORS = tuple(tuple((anchor + k) % 7 for anchor in CENTURY_ANCHORS) for k in range(7))


@dataclass(frozen=True)
class AnchorSystem:
    """One equivalence class of anchor-date systems, in canonical residue form."""

    k: int
    residues: tuple[int, ...]
    codes: tuple[VectorCode, ...]

    def century_anchor(self, year: int) -> int:
        """Shifted century anchor for ``year``."""
        _check_year(year)
        return _CENTURY_ANCHORS[self.k][(year // 100) % 4]

    def code(self, month: int, leap: bool = False) -> VectorCode:
        """Month code from this class's leap-aware residue; ``leap`` is read for its truth."""
        _check_int("month", month, 1, 12)
        return _MONTH_CODES[self.k][bool(leap)][month - 1]

    def weekday(self, date: Date) -> Weekday:
        """End-to-end weekday using this system's tables and the owners' unchecked forms."""
        year = date.year
        code = _MONTH_CODES[self.k][_is_leap(year)][date.month - 1]
        total = _CENTURY_ANCHORS[self.k][(year // 100) % 4] + _year_offset_doomyear(year % 100)
        return WEEKDAYS[(total + _square_knot_forward(date.day, code)) % 7]


def system(k: int) -> AnchorSystem:
    """Canonical representative of equivalence class ``k``."""
    _check_int("system index", k, 0, 6)
    codes = _MONTH_CODES[k][False]
    # A code's units digit is its residue: _ROTATION[r].units == r.
    return AnchorSystem(k=k, residues=tuple(code.units for code in codes), codes=codes)


def rotate_code(code: VectorCode) -> VectorCode:
    """Next code when every anchor date slips one further day."""
    try:
        index = _ROTATION.index(code)
    except ValueError:
        raise ValueError(f"{code} is not a vocabulary code") from None
    return _ROTATION[(index + 1) % 7]


class NotUniformError(Exception):
    """The 12 dates do not shift the classic anchors by one uniform amount."""

    def __init__(self, offsets: dict[int, int]):
        self.offsets = dict(offsets)
        counts = Counter(self.offsets.values())
        self.majority = max(counts.items(), key=lambda item: (item[1], -item[0]))[0]
        self.offending = tuple(
            sorted(month for month, off in self.offsets.items() if off != self.majority)
        )
        noun, verb = ("month", "disagrees") if len(self.offending) == 1 else ("months", "disagree")
        months = ", ".join(str(month) for month in self.offending)
        super().__init__(f"{noun} {months} {verb} with the majority day shift {self.majority}")


def classify(dates: Sequence[tuple[int, int]]) -> int:
    """Equivalence class of a 12-date same-weekday system.

    ``dates`` holds one (month, day) pair per month, in any order, with
    each day valid for its month in a common year.
    """
    if len(dates) != 12:
        raise ValueError(f"need 12 (month, day) pairs, got {len(dates)}")
    offsets: dict[int, int] = {}
    for month, day in dates:
        if type(month) is not int or type(day) is not int:
            raise TypeError(f"month and day must be int, got {month!r}, {day!r}")
        if not 1 <= month <= 12:
            raise ValueError(f"month {month} outside 1..12")
        if month in offsets:
            raise ValueError(f"month {month} given twice")
        limit = COMMON_MONTH_LENGTHS[month - 1]
        if not 1 <= day <= limit:
            raise ValueError(f"day {day} outside 1..{limit} for month {month}")
        offsets[month] = (day - DOOMSDAY_DATES[month - 1]) % 7
    distinct = set(offsets.values())
    if len(distinct) != 1:
        raise NotUniformError(offsets)
    return distinct.pop()


def zero_month_count(k: int) -> int:
    """How many months of system ``k`` carry the silent 00 code."""
    return sum(1 for residue in system(k).residues if residue == 0)


def month_groupings() -> dict[int, frozenset[int]]:
    """Partition of the 12 months by their classic anchor-date residue d mod 7."""
    buckets: dict[int, set[int]] = {}
    for month, anchor_day in enumerate(DOOMSDAY_DATES, start=1):
        buckets.setdefault(anchor_day % 7, set()).add(month)
    return {r: frozenset(months) for r, months in sorted(buckets.items())}
