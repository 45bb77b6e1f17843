"""Navigational year offsets: anchor years and the packed distance table.

The arithmetic year offset repeats every 28 years, so the four anchor
years 0, 28, 56, 84 cover a century and every two-digit year lies
within 15 of one of them. Each distance d carries a forward digit f(d),
the offset d years after an anchor, and a backward digit b(d), the
offset d years before one. The packed numerals glue the distance onto
those digits so the whole table can be memorized as one number chain.
"""

from __future__ import annotations

from typing import NamedTuple

from .conway import year_offset_arithmetic
from .core import Direction

#: Two-digit years whose offset is 0, spaced by the 28-year period.
ANCHOR_YEARS = (0, 28, 56, 84)

#: Largest anchor distance needed for any two-digit year.
MAX_DISTANCE = 15


class PackedYearCodes(NamedTuple):
    """Packed numerals of one table row; the distance rides in the leading digits."""

    F: int  #: 10 d + f(d)
    B: int  #: 10 d + b(d)
    D: int  #: 100 d + 10 b(d) + f(d)


class Doomyear(NamedTuple):
    """Year-offset digits at one distance from an anchor year."""

    distance: int
    backward_digit: int
    forward_digit: int

    @property
    def packed(self) -> PackedYearCodes:
        return PackedYearCodes(
            F=10 * self.distance + self.forward_digit,
            B=10 * self.distance + self.backward_digit,
            D=100 * self.distance + 10 * self.backward_digit + self.forward_digit,
        )


def _row(distance: int) -> Doomyear:
    # backward_digit comes from the offset definition directly, never
    # from the complementarity shortcut, so that property stays an
    # independent check.
    return Doomyear(
        distance=distance,
        backward_digit=year_offset_arithmetic(28 - distance),
        forward_digit=year_offset_arithmetic(distance),
    )


_TABLE = tuple(_row(distance) for distance in range(MAX_DISTANCE + 1))


def doomyear(distance: int) -> Doomyear:
    """The table row for ``distance`` years from an anchor."""
    if not 0 <= distance <= MAX_DISTANCE:
        raise ValueError(f"distance {distance} outside 0..{MAX_DISTANCE}")
    return _TABLE[distance]


def anchor_years() -> tuple[int, ...]:
    """The anchor years within a century."""
    return ANCHOR_YEARS


class YearNavigation(NamedTuple):
    """Where a two-digit year sits relative to its nearest anchor year."""

    anchor: int
    distance: int
    direction: Direction


def nearest_anchor(yy: int) -> YearNavigation:
    """Nearest anchor year to ``yy``.

    Ties, distance 14 both ways at 14, 42 and 70, go forward from the lower
    anchor, which ``min`` meets first; this is harmless because f(14) = b(14).
    """
    if not 0 <= yy <= 99:
        raise ValueError(f"two-digit year {yy} outside 0..99")
    anchor = min(ANCHOR_YEARS, key=lambda a: abs(yy - a))
    if yy >= anchor:
        return YearNavigation(anchor, yy - anchor, Direction.FORWARD)
    return YearNavigation(anchor, anchor - yy, Direction.BACKWARD)


class YearStep(NamedTuple):
    """Recorded year navigation: which anchor, how far, which digit."""

    anchor: int
    distance: int
    direction: Direction
    digit: int


def _year_step(yy: int) -> YearStep:
    nav = nearest_anchor(yy)
    row = doomyear(nav.distance)
    if nav.direction is Direction.FORWARD:
        return YearStep(*nav, row.forward_digit)
    return YearStep(*nav, row.backward_digit)


_STEPS = tuple(_year_step(yy) for yy in range(100))


def year_step(yy: int) -> YearStep:
    """Navigation and table digit for a two-digit year."""
    if not 0 <= yy <= 99:
        raise ValueError(f"two-digit year {yy} outside 0..99")
    return _STEPS[yy]


def year_offset_doomyear(yy: int) -> int:
    """Year offset read from the table instead of computed by division."""
    return year_step(yy).digit
