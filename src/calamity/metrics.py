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

from . import _shares
from .conway import _century_anchor, _doomsday_date
from .core import _FORWARD, CYCLE_YEARS, Date, _check_range, _days_in_years, _is_leap, iter_dates
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


# compare traces nine events on each of 146,097 dates, so the traces read
# each kind from a module global, not from the enum, and build each event
# as the tuple of its five fields, without a call through OpEvent.__new__.
(_INT_DIVISION, _MULTIDIGIT_ADD, _MOD_REDUCE_LARGE, _SMALL_SUBTRACT,
 _TABLE_RECALL, _GAP_MEASURE, _DIGIT_SELECT_ADD, _SIGN_CORRECT) = OpKind
_new = tuple.__new__

#: Fewest years in a share of the traced window: about where a fork
#: starts to pay. In fresh interpreters on 2 CPUs (Python 3.11.7), two
#: workers traced 40 years at x0.97-1.02 the speed of one, 50 years at
#: x0.96-1.45, 60 years at x1.89 and 75 years at x1.84-1.96 (BENCH_24.json).
MIN_SHARE_YEARS = 30


def trace_standard(date: Date) -> list[OpEvent]:
    """The five serial events of the arithmetic method.

    Events are recorded in performance order, each consuming the running
    context of the one before it, which is what makes the chain serial.
    """
    yy = date.year % 100
    quotient = yy // 4
    added = yy + quotient
    omega = added % 7
    anchor_day = _doomsday_date(date.month, _is_leap(date.year))
    delta = date.day - anchor_day
    century = _century_anchor(date.year)
    corrected = (century + omega + delta) % 7
    return [
        _new(OpEvent, (_INT_DIVISION, (yy, 4), quotient, (), True)),
        _new(OpEvent, (_MULTIDIGIT_ADD, (yy, quotient), added, (0,), True)),
        _new(OpEvent, (_MOD_REDUCE_LARGE, (added, 7), omega, (1,), True)),
        _new(OpEvent, (_SMALL_SUBTRACT, (date.day, anchor_day), abs(delta), (2,), True)),
        _new(OpEvent, (_SIGN_CORRECT, (century, omega, delta), corrected, (3,), True)),
    ]


def trace_calamity(date: Date) -> list[OpEvent]:
    """The four events of the table method, two per step, read off a forward step trace.

    The year pair (events 0 and 1) and the month pair (events 2 and 3)
    share no data dependency. Event 0 relocates the year against its
    anchor; its result is a table position and is therefore not an
    intermediate value.
    """
    trace = weekday_calamity_traced(date, _FORWARD)[1]
    year = trace.year_navigation
    step = trace.target_gap
    yy = date.year % 100
    if year.direction is _FORWARD:
        nav_operands = (yy, year.anchor)
    else:
        nav_operands = (year.anchor, yy)
    return [
        _new(OpEvent, (_SMALL_SUBTRACT, nav_operands, year.distance, (), False)),
        _new(OpEvent, (_TABLE_RECALL, (year.distance,), year.digit, (0,), True)),
        _new(OpEvent, (_GAP_MEASURE, (date.day, date.day - step.gap), step.gap, (), True)),
        _new(OpEvent, (_DIGIT_SELECT_ADD, (step.gap, step.digit), trace.month_offset, (2,), True)),
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
    # A list, not a generator, and ``or [0]``, not ``default=0``: compare
    # calls this twice per traced date, and each costs more than the scan.
    return max([e.result_magnitude for e in events if e.intermediate] or [0])


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


def _trace_share(
    first: int, last: int, signatures: list[list[OpKind]], start_year: int
) -> list[int]:
    """Trace ``first..last``; return both peaks, or raise at the first date off ``signatures``.

    ``signatures`` are the kinds of the range's first date, which the
    caller traced already: the share that starts in ``start_year`` skips
    it.
    """
    peaks = [0, 0]
    dates = iter_dates(first, last)
    if first == start_year:
        next(dates)
    for date in dates:
        traced = (trace_standard(date), trace_calamity(date))
        if [[e.kind for e in events] for events in traced] != signatures:
            raise RuntimeError(f"operation signature changed at {date}")
        peaks = [max(peak, max_intermediate(events)) for peak, events in zip(peaks, traced)]
    return peaks


def compare(start_year: int, end_year: int) -> ComparisonReport:
    """Aggregate both traces over every date in the year range.

    Per-date operation signatures are required to be identical across
    the sweep; only the intermediate maxima vary by date. Aggregation is
    a max, so any partitioning of the range gives the same report.

    Only the first 400 years of the range are traced. Both traces read
    the year through ``year % 100``, the century anchor and the leap rule
    alone, and all three depend only on ``year % 400``. So every date
    past the first 400 years traces exactly like its twin 400, 800, ...
    years earlier. The maxima and the signature check therefore come out
    as in a date-by-date sweep, and a signature change is reported at
    the same first date. ``dates_scanned`` still counts every date in
    the range.

    One ``_shares`` call traces the window in forked year shares, one per
    CPU and each of at least ``MIN_SHARE_YEARS``. Each share checks its
    dates against the range's first date, traced once here, and raises
    at the first that differs. The engine raises the first such error in
    share order, and no later share outlives it, so the report and the
    error text are the ones a single sweep gives.
    """
    _check_range(start_year, end_year)
    scanned = _days_in_years(start_year, end_year)

    # Per method, in (standard, calamity) order.
    start = Date(start_year, 1, 1)
    first = (trace_standard(start), trace_calamity(start))
    signatures = [[e.kind for e in events] for events in first]
    peaks = [max_intermediate(events) for events in first]
    window_end = min(end_year, start_year + CYCLE_YEARS - 1)
    for share_peaks in _shares.run(
        "metrics", _trace_share, start_year, window_end, MIN_SHARE_YEARS, signatures, start_year
    ):
        peaks = [max(pair) for pair in zip(peaks, share_peaks)]

    standard, calamity = map(_profile, first, peaks)
    return ComparisonReport(
        start_year=start_year,
        end_year=end_year,
        dates_scanned=scanned,
        standard=standard,
        calamity=calamity,
    )
