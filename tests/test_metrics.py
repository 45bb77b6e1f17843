"""Operation accounting for the two methods."""

import datetime

import pytest
from hypothesis import given

from calamity import metrics
from calamity.conway import century_anchor, weekday_standard
from calamity.core import MAX_YEAR, Date, iter_dates
from calamity.doomyears import Doomyear, doomyear
from calamity.method import weekday_calamity, weekday_calamity_traced
from calamity.metrics import (
    OpEvent,
    OpKind,
    compare,
    max_intermediate,
    serial_depth,
    trace_calamity,
    trace_standard,
)
from support import dates

STANDARD_KINDS = (
    OpKind.INT_DIVISION,
    OpKind.MULTIDIGIT_ADD,
    OpKind.MOD_REDUCE_LARGE,
    OpKind.SMALL_SUBTRACT,
    OpKind.SIGN_CORRECT,
)

CALAMITY_KINDS = (
    OpKind.SMALL_SUBTRACT,
    OpKind.TABLE_RECALL,
    OpKind.GAP_MEASURE,
    OpKind.DIGIT_SELECT_ADD,
)


@given(dates())
def test_standard_trace_shape(date):
    events = trace_standard(date)
    assert tuple(e.kind for e in events) == STANDARD_KINDS
    assert serial_depth(events) == 5


@given(dates())
def test_calamity_trace_shape(date):
    events = trace_calamity(date)
    assert tuple(e.kind for e in events) == CALAMITY_KINDS
    assert serial_depth(events) == 2


@given(dates())
def test_traces_are_observationally_pure(date):
    std = trace_standard(date)
    assert std[-1].result_magnitude == int(weekday_standard(date))

    cal = trace_calamity(date)
    year_digit = cal[1].result_magnitude
    month_offset = cal[3].result_magnitude
    recombined = (century_anchor(date.year) + year_digit + month_offset) % 7
    assert recombined == int(weekday_calamity(date))


def test_standard_trace_magnitudes_for_late_century_years():
    events = trace_standard(Date(1999, 3, 7))
    by_kind = {e.kind: e for e in events}
    assert by_kind[OpKind.INT_DIVISION].result_magnitude == 24
    assert by_kind[OpKind.MULTIDIGIT_ADD].result_magnitude == 123
    assert max_intermediate(events) == 123


@given(dates())
def test_calamity_intermediates_fit_one_digit(date):
    assert max_intermediate(trace_calamity(date)) <= 6


def test_year_navigation_distance_is_recorded_but_not_intermediate():
    # yy = 99 sits 15 past its anchor; the distance is a table position,
    # not a weekday quantity.
    events = trace_calamity(Date(1999, 3, 7))
    nav = events[0]
    assert nav.kind is OpKind.SMALL_SUBTRACT
    assert nav.result_magnitude == 15
    assert not nav.intermediate
    assert max_intermediate(events) <= 6


@given(dates())
def test_calamity_pairs_are_independent(date):
    events = trace_calamity(date)
    # Year pair: events 0 and 1. Month pair: events 2 and 3. No event
    # in one pair may depend on an event in the other.
    assert events[1].depends_on == (0,)
    assert events[3].depends_on == (2,)
    assert events[0].depends_on == ()
    assert events[2].depends_on == ()


@given(dates())
def test_standard_chain_is_fully_serial(date):
    events = trace_standard(date)
    for i, event in enumerate(events):
        assert event.depends_on == (() if i == 0 else (i - 1,))


def test_compare_totals_and_shape():
    report = compare(2000, 2002)
    assert report.dates_scanned == 366 + 365 + 365

    std = report.standard
    assert std.total == 5
    assert std.serial_depth == 5
    assert std.dependency == "serial"
    assert std.divisions == 1
    assert std.large_mod_reductions == 2
    assert sum(std.counts.values()) == std.total

    cal = report.calamity
    assert cal.total == 4
    assert cal.serial_depth == 2
    assert cal.dependency == "independent"
    assert cal.divisions == 0
    assert cal.large_mod_reductions == 0
    assert cal.max_intermediate == 6
    assert sum(cal.counts.values()) == cal.total
    # Enum formatting differs across Python versions; both must give the value.
    assert str(OpKind.GAP_MEASURE) == f"{OpKind.GAP_MEASURE}" == "gap_measure"


def test_compare_peak_intermediates():
    # Any range containing a year 99 reaches the global standard peak.
    report = compare(1995, 2003)
    assert report.standard.max_intermediate == 123
    assert report.calamity.max_intermediate == 6


def test_compare_rejects_empty_range():
    with pytest.raises(ValueError):
        compare(2001, 2000)


def test_compare_is_partition_insensitive():
    whole = compare(2000, 2003)
    parts = [compare(2000, 2001), compare(2002, 2003)]
    assert whole.standard.max_intermediate == max(
        p.standard.max_intermediate for p in parts
    )
    assert whole.calamity.max_intermediate == max(
        p.calamity.max_intermediate for p in parts
    )
    assert whole.dates_scanned == sum(p.dates_scanned for p in parts)


def _days(start_year, end_year):
    """Dates in a year range, counted by the standard library."""
    first, last = datetime.date(start_year, 1, 1), datetime.date(end_year, 12, 31)
    return (last - first).days + 1


@given(dates(max_year=MAX_YEAR - 400))
def test_traces_repeat_every_400_years(date):
    # The invariant compare's 400-year window rests on.
    later = Date(date.year + 400, date.month, date.day)
    assert trace_standard(later) == trace_standard(date)
    assert trace_calamity(later) == trace_calamity(date)


@pytest.fixture
def traced_dates(monkeypatch):
    """Dates compare passes to each trace, with both traces stubbed."""
    std_events = trace_standard(Date(2000, 1, 1))
    cal_events = trace_calamity(Date(2000, 1, 1))
    seen = {"standard": [], "calamity": []}

    def record(name, events):
        def stub(date):
            seen[name].append(date)
            return events
        return stub

    monkeypatch.setattr(metrics, "trace_standard", record("standard", std_events))
    monkeypatch.setattr(metrics, "trace_calamity", record("calamity", cal_events))
    return seen


def test_compare_traces_only_the_first_400_years(traced_dates):
    report = compare(1600, 2100)
    window = list(iter_dates(1600, 1999))
    assert len(window) == 146_097
    assert traced_dates["standard"] == window
    assert traced_dates["calamity"] == window
    assert report.dates_scanned == _days(1600, 2100)


def test_compare_traces_every_date_of_a_short_range(traced_dates):
    report = compare(1990, 2010)
    every = list(iter_dates(1990, 2010))
    assert traced_dates["standard"] == every
    assert traced_dates["calamity"] == every
    assert report.dates_scanned == len(every)


def _shorter(events):
    return events[:-1]


def _relabelled(events):
    # Same length; only the last event's kind differs.
    return events[:-1] + [events[-1]._replace(kind=events[0].kind)]


@pytest.mark.parametrize("change", [_shorter, _relabelled], ids=["shorter", "relabelled"])
@pytest.mark.parametrize("trace", ["trace_standard", "trace_calamity"])
def test_compare_reports_first_signature_change(monkeypatch, trace, change):
    changed = Date(1700, 3, 1)
    original = getattr(metrics, trace)

    def changed_at(date):
        events = original(date)
        return change(events) if date == changed else events

    monkeypatch.setattr(metrics, trace, changed_at)
    with pytest.raises(RuntimeError, match="1700-03-01"):
        compare(1600, 2100)


def test_compare_full_range_matches_default_range():
    full = compare(1583, MAX_YEAR)
    default = compare(1583, 2599)
    assert full.dates_scanned == 3_074_246 == _days(1583, MAX_YEAR)
    assert full.standard == default.standard
    assert full.calamity == default.calamity


@pytest.mark.parametrize("make, field", [
    (lambda: OpEvent(OpKind.SMALL_SUBTRACT, (9, 4), 5, depends_on=(0,)), "result_magnitude"),
    (lambda: weekday_calamity_traced(Date(2025, 12, 25))[1], "final"),
    (lambda: Doomyear(5, 0, 6), "distance"),
    (lambda: doomyear(5).packed, "F"),
], ids=["OpEvent", "StepTrace", "Doomyear", "PackedYearCodes"])
def test_record_is_an_immutable_value(make, field):
    # Whatever type these records become, equal records stay one value
    # and no field can be reassigned.
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    with pytest.raises(AttributeError):
        setattr(first, field, 6)
