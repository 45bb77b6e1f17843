"""Gap arithmetic and the two-digit vectorized month codes.

A day's position inside its month is measured against the multiples of
7 on either side of it. A month's code packs the backward gap of its
anchor date into the tens digit and the forward gap into the units
digit. Crossing directions, the target day's forward gap plus the
code's tens digit (or its backward gap plus the units digit), turns the
signed month-day subtraction into a single-digit addition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conway import doomsday_date
from .core import _check_int

#: Reference points at or below any day of month.
LOWER_ANCHORS = (0, 7, 14, 21, 28)
#: Reference points at or above; 35 closes the rule over days 29..31.
UPPER_ANCHORS = (7, 14, 21, 28, 35)


def _check_split(kind: str, first: int, second: int) -> None:
    """Both digits 0, or both in 1..6 and summing to 7."""
    zero = first == 0 and second == 0
    split = 0 < first and 0 < second and first + second == 7
    if not (zero or split):
        raise ValueError(f"invalid {kind} ({first}, {second})")


@dataclass(frozen=True, slots=True)
class GapPair:
    """Distances from a day up from the anchor below and down from the one above."""

    forward: int
    backward: int

    def __post_init__(self) -> None:
        _check_split("gap pair", self.forward, self.backward)


@dataclass(frozen=True, slots=True)
class VectorCode:
    """Two-digit month code: tens = backward gap, units = forward gap of the anchor date."""

    tens: int
    units: int

    def __post_init__(self) -> None:
        _check_split("vector code", self.tens, self.units)

    @property
    def value(self) -> int:
        """The composed two-digit number."""
        return 10 * self.tens + self.units

    def __str__(self) -> str:
        return f"{self.tens}{self.units}"


def _measure(day: int) -> GapPair:
    lower = max(a for a in LOWER_ANCHORS if a <= day)
    upper = min(a for a in UPPER_ANCHORS if a >= day)
    return GapPair(forward=day - lower, backward=upper - day)


_GAPS = tuple(_measure(day) for day in range(1, 32))


def _gaps(day: int) -> GapPair:
    return _GAPS[day - 1]


def gaps(day: int) -> GapPair:
    """Forward and backward gaps of a day of month; both 0 on a multiple of 7."""
    _check_int("day", day, 1, 31)
    return _gaps(day)


def _code_for_day(day: int) -> VectorCode:
    pair = gaps(day)
    return VectorCode(tens=pair.backward, units=pair.forward)


# Codes by leap class, then month: _CODES[leap][month - 1].
_CODES = tuple(
    tuple(_code_for_day(doomsday_date(month, leap)) for month in range(1, 13))
    for leap in (False, True)
)


def _vector_code(month: int, leap: bool) -> VectorCode:
    # ``leap`` indexes the table: a bool, as ``_is_leap`` gives.
    return _CODES[leap][month - 1]


def vector_code(month: int, leap: bool = False) -> VectorCode:
    """Code of ``month``'s anchor date, honoring the leap-year overrides.

    ``leap`` is read for its truth, as ``doomsday_date`` reads it.
    """
    _check_int("month", month, 1, 12)
    return _vector_code(month, bool(leap))


def _square_knot_forward(day: int, code: VectorCode) -> int:
    return (_GAPS[day - 1].forward + code.tens) % 7


def square_knot_forward(day: int, code: VectorCode) -> int:
    """Days after the anchor date: (forward gap + tens digit) mod 7."""
    _check_int("day", day, 1, 31)
    return _square_knot_forward(day, code)


def _square_knot_backward(day: int, code: VectorCode) -> int:
    return (_GAPS[day - 1].backward + code.units) % 7


def square_knot_backward(day: int, code: VectorCode) -> int:
    """Days before the anchor date: (backward gap + units digit) mod 7.

    Callers subtract this offset; it carries no sign of its own.
    """
    _check_int("day", day, 1, 31)
    return _square_knot_backward(day, code)


_VOCABULARY = frozenset(
    VectorCode(tens, units)
    for tens, units in ((0, 0), (1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1))
)


def code_vocabulary() -> frozenset[VectorCode]:
    """All seven codes any anchor-date system can produce."""
    return _VOCABULARY
