"""Mental-operation accounting for the two weekday methods.

Re-runs each computation as a list of classified events so the two
variable steps (year and month) can be compared for operation count,
value size, and dependency shape. Century-anchor recall is constant per
century and is counted for neither method.

An event's result counts as an intermediate value only when it feeds
the weekday arithmetic. The year-navigation subtraction produces a
table position, the year restated relative to its anchor, not a weekday
quantity; it is recorded faithfully but excluded from intermediate
maxima.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .conway import century_anchor, doomsday_date
from .core import CYCLE_YEARS, Date, Direction, is_leap, iter_dates
from .method import weekday_calamity_traced


class OpKind(str, enum.Enum):
    """Classification of one mental operation."""

    INT_DIVISION = "int_division"
    MULTIDIGIT_ADD = "multidigit_add"
    MOD_REDUCE_LARGE = "mod_reduce_large"
    SMALL_SUBTRACT = "small_subtract"
    TABLE_RECALL = "table_recall"
    GAP_MEASURE = "gap_measure"
    DIGIT_SELECT_ADD = "digit_select_add"
    SIGN_CORRECT = "sign_correct"

    def __str__(self) -> str:
        return self.value


class OpEvent(NamedTuple):
    """One recorded mental operation.

    ``depends_on`` lists indices of earlier events whose results this
    one consumes. ``intermediate`` marks whether the result magnitude
    participates in intermediate-value maxima.
    """

    kind: OpKind
    operands: tuple[int, ...]
    result_magnitude: int
    depends_on: tuple[int, ...] = ()
    intermediate: bool = True


def trace_standard(date: Date) -> list[OpEvent]:
    """The five serial events of the arithmetic method.

    Events are recorded in performance order, each consuming the running
    context of the one before it, which is what makes the chain serial.
    """
    yy = date.year % 100
    quotient = yy // 4
    added = yy + quotient
    omega = added % 7
    anchor_day = doomsday_date(date.month, is_leap(date.year))
    delta = date.day - anchor_day
    century = century_anchor(date.year)
    corrected = (century + omega + delta) % 7
    return [
        OpEvent(OpKind.INT_DIVISION, (yy, 4), quotient),
        OpEvent(OpKind.MULTIDIGIT_ADD, (yy, quotient), added, depends_on=(0,)),
        OpEvent(OpKind.MOD_REDUCE_LARGE, (added, 7), omega, depends_on=(1,)),
        OpEvent(OpKind.SMALL_SUBTRACT, (date.day, anchor_day), abs(delta), depends_on=(2,)),
        OpEvent(OpKind.SIGN_CORRECT, (century, omega, delta), corrected, depends_on=(3,)),
    ]


def trace_calamity(date: Date) -> list[OpEvent]:
    """The four events of the table method, two per step, read off a forward step trace.

    The year pair (events 0 and 1) and the month pair (events 2 and 3)
    share no data dependency. Event 0 relocates the year against its
    anchor; its result is a table position and is therefore not an
    intermediate value.
    """
    trace = weekday_calamity_traced(date, Direction.FORWARD)[1]
    year = trace.year_navigation
    step = trace.target_gap
    yy = date.year % 100
    if year.direction is Direction.FORWARD:
        nav_operands = (yy, year.anchor)
    else:
        nav_operands = (year.anchor, yy)
    return [
        OpEvent(OpKind.SMALL_SUBTRACT, nav_operands, year.distance, intermediate=False),
        OpEvent(OpKind.TABLE_RECALL, (year.distance,), year.digit, depends_on=(0,)),
        OpEvent(OpKind.GAP_MEASURE, (date.day, date.day - step.gap), step.gap),
        OpEvent(OpKind.DIGIT_SELECT_ADD, (step.gap, step.digit), trace.month_offset, depends_on=(2,)),
    ]


def serial_depth(events: Sequence[OpEvent]) -> int:
    """Length of the longest dependency chain."""
    depths: list[int] = []
    for event in events:
        longest = max((depths[i] for i in event.depends_on), default=0)
        depths.append(longest + 1)
    return max(depths, default=0)


def max_intermediate(events: Iterable[OpEvent]) -> int:
    """Largest intermediate result magnitude; table positions excluded."""
    return max((e.result_magnitude for e in events if e.intermediate), default=0)


@dataclass(frozen=True)
class MethodProfile:
    """Per-date operation profile of one method, with sweep-wide maxima."""

    counts: Mapping[OpKind, int]
    total: int
    serial_depth: int
    #: ``serial`` when every event chains; ``independent`` otherwise.
    dependency: str
    max_intermediate: int
    divisions: int
    large_mod_reductions: int


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side operation profiles over an inclusive year range."""

    start_year: int
    end_year: int
    dates_scanned: int
    standard: MethodProfile
    calamity: MethodProfile


def _profile(events: Sequence[OpEvent], peak: int) -> MethodProfile:
    """One method's profile from its first date's events and its sweep-wide peak."""
    counted = Counter(e.kind for e in events)
    depth = serial_depth(events)
    return MethodProfile(
        counts={kind: counted[kind] for kind in OpKind},
        total=len(events),
        serial_depth=depth,
        dependency="serial" if depth == len(events) else "independent",
        max_intermediate=peak,
        divisions=counted[OpKind.INT_DIVISION],
        # Sign correction reduces a sum that can be large or negative, so it
        # counts as a mod reduction on a large value.
        large_mod_reductions=counted[OpKind.MOD_REDUCE_LARGE] + counted[OpKind.SIGN_CORRECT],
    )


def compare(start_year: int, end_year: int) -> ComparisonReport:
    """Aggregate both traces over every date in the year range.

    Per-date operation signatures are required to be identical across
    the sweep; only the intermediate maxima vary by date. Aggregation is
    a max, so any partitioning of the range gives the same report.

    Only the first 400 years of the range are traced. Both traces read
    the year through ``year % 100``, ``century_anchor`` and ``is_leap``
    alone, and all three depend only on ``year % 400``. So every date
    past the first 400 years traces exactly like its twin 400, 800, ...
    years earlier. The maxima and the signature check therefore come out
    as in a date-by-date sweep, and a signature change is reported at
    the same first date. ``dates_scanned`` still counts every date in
    the range.
    """
    scanned = sum(366 if is_leap(y) else 365 for y in range(start_year, end_year + 1))

    # Per method, in (standard, calamity) order.
    first: tuple[list[OpEvent], ...] = ()
    signatures: list[list[OpKind]] = []
    peaks = [0, 0]
    window_end = min(end_year, start_year + CYCLE_YEARS - 1)
    for date in iter_dates(start_year, window_end):
        traced = (trace_standard(date), trace_calamity(date))
        kinds = [[e.kind for e in events] for events in traced]
        if not first:
            first, signatures = traced, kinds
        elif kinds != signatures:
            raise RuntimeError(f"operation signature changed at {date}")
        peaks = [max(peak, max_intermediate(events)) for peak, events in zip(peaks, traced)]

    standard, calamity = map(_profile, first, peaks)
    return ComparisonReport(
        start_year=start_year,
        end_year=end_year,
        dates_scanned=scanned,
        standard=standard,
        calamity=calamity,
    )
