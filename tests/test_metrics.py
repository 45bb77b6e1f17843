"""Operation accounting for the two methods."""

import datetime
import errno
import hashlib
import os
import signal

import pytest
from hypothesis import given

from calamity import _shares, metrics
from calamity.conway import century_anchor, weekday_standard
from calamity.core import CYCLE_YEARS, MAX_YEAR, MIN_YEAR, Date, iter_dates
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
from support import assert_nothing_left, dates, open_fds, refuse

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


def test_empty_and_table_only_event_lists_measure_zero():
    assert serial_depth([]) == 0
    assert max_intermediate([]) == 0
    position = OpEvent(OpKind.SMALL_SUBTRACT, (28, 25), 3, intermediate=False)
    assert max_intermediate([position, position]) == 0


def test_traces_record_their_operands():
    # The arithmetic month step is a signed subtraction: day 1 against
    # December's anchor day 12 gives -11, and the sign correction
    # carries it into the final reduction.
    events = trace_standard(Date(2025, 12, 1))
    standard = [(e.kind, e.operands, e.result_magnitude) for e in events]
    assert standard == [
        (OpKind.INT_DIVISION, (25, 4), 6),
        (OpKind.MULTIDIGIT_ADD, (25, 6), 31),
        (OpKind.MOD_REDUCE_LARGE, (31, 7), 3),
        (OpKind.SMALL_SUBTRACT, (1, 12), 11),
        (OpKind.SIGN_CORRECT, (2, 3, -11), 1),
    ]
    # The lookup method subtracts only inside one table span or one week:
    # 28 - 25 and 25 - 21.
    events = trace_calamity(Date(2025, 12, 25))
    calamity = [(e.kind, e.operands, e.result_magnitude) for e in events]
    assert calamity == [
        (OpKind.SMALL_SUBTRACT, (28, 25), 3),
        (OpKind.TABLE_RECALL, (3,), 3),
        (OpKind.GAP_MEASURE, (25, 21), 4),
        (OpKind.DIGIT_SELECT_ADD, (4, 2), 6),
    ]


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


#: sha256 over every field of every event both traces record for the
#: first cycle of the supported range, one ``repr`` per date.
CYCLE_TRACES_SHA256 = "f3b88f8d47d15efaac5c550c3f0bfd8a6546de5b39f60b0210b72519607da3d5"


def _cycle_traces():
    """Digest of a cycle's traces, and how many events are not an OpEvent."""
    digest = hashlib.sha256()
    strays = 0
    for date in iter_dates(MIN_YEAR, MIN_YEAR + CYCLE_YEARS - 1):
        events = trace_standard(date) + trace_calamity(date)
        strays += sum(type(e) is not OpEvent for e in events)
        fields = [
            (e.kind.value, e.operands, e.result_magnitude, e.depends_on, e.intermediate)
            for e in events
        ]
        digest.update(repr(fields).encode())
    return digest.hexdigest(), strays


def test_a_cycle_of_traces_is_pinned():
    # Catches a trace that swaps two fields, drops a default or returns a
    # plain tuple where an OpEvent belongs.
    assert _cycle_traces() == (CYCLE_TRACES_SHA256, 0)


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
    # A forked worker would record in its own memory.
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 1)
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


def test_a_short_range_forks_nothing(monkeypatch):
    # Below two shares of MIN_SHARE_YEARS the window is traced here alone.
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a short range forked"))
    for start, end in [(2000, 2005), (1990, 2010), (1583, 1583 + 2 * metrics.MIN_SHARE_YEARS - 2)]:
        assert compare(start, end).dates_scanned == _days(start, end)


def test_a_forked_trace_reports_what_one_trace_reports(monkeypatch, deadline):
    # The standard peak, 123 in 2099, lies in the last share at 2 and 3 CPUs.
    real, here = metrics.trace_standard, os.getpid()
    calls_here = 0

    def counting(date):
        nonlocal calls_here
        calls_here += os.getpid() == here
        return real(date)

    monkeypatch.setattr(metrics, "trace_standard", counting)
    fds = open_fds()
    reports, traced_here = {}, {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_shares, "_cpu_count", lambda: cpus)
        calls_here = 0
        reports[cpus] = compare(2000, 2099)
        traced_here[cpus] = calls_here
    assert reports[3] == reports[2] == reports[1]
    assert reports[1].standard.max_intermediate == 123
    assert traced_here[3] < traced_here[2] < traced_here[1] == _days(2000, 2099)
    assert_nothing_left(fds)


@pytest.mark.parametrize(
    "changed",
    [Date(2200, 1, 1), Date(2300, 3, 1), Date(2100, 3, 1)],
    ids=["first-date-of-share-1", "inside-share-1", "inside-share-0"],
)
def test_a_forked_trace_reports_the_signature_change_one_trace_reports(
    monkeypatch, deadline, changed
):
    # At 2 CPUs, 2000..2399 is traced here to 2199 and in a worker from
    # 2200; from ``changed`` on, every standard trace is one event short,
    # so from 2100 both shares find a change and the first must win.
    original = metrics.trace_standard

    def shorter_from(date):
        events = original(date)
        return events[:-1] if date >= changed else events

    monkeypatch.setattr(metrics, "trace_standard", shorter_from)
    fds = open_fds()
    errors = {}
    for cpus in (1, 2):
        monkeypatch.setattr(_shares, "_cpu_count", lambda: cpus)
        with pytest.raises(RuntimeError) as raised:
            compare(2000, 2399)
        errors[cpus] = str(raised.value)
    assert errors[2] == errors[1] == f"operation signature changed at {changed}"
    assert_nothing_left(fds)
    # The cut those errors cross, seen with os.fork refused so both shares run here.
    cut = []

    def record(first, last, *args):
        cut.append((first, last))
        return [0, 0], None

    monkeypatch.setattr(metrics, "_trace_share", record)
    monkeypatch.setattr(os, "fork", refuse(errno.EAGAIN))
    compare(2000, 2399)
    assert cut == [(2000, 2199), (2200, 2399)]


def test_a_killed_metrics_worker_names_its_sweep(monkeypatch, deadline):
    real, here = metrics.trace_standard, os.getpid()

    def dies_in_a_worker(date):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(date)

    monkeypatch.setattr(metrics, "trace_standard", dies_in_a_worker)
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    with pytest.raises(RuntimeError) as raised:
        compare(2000, 2399)
    assert str(raised.value) == "metrics worker for years 2200..2399 killed by signal SIGKILL"
    assert_nothing_left(fds)


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
