"""The verification sweeps over the whole supported range."""

import errno
import os
import signal

import pytest

from calamity import _shares, cli, conway, method, systems, verify
from calamity.core import CYCLE_YEARS, MAX_YEAR, MIN_YEAR, WEEKDAYS, Date, iter_dates
from calamity.verify import MAX_EXAMPLES, _Recorder
from support import assert_nothing_left, check, open_fds, refuse


def test_differential_sweep_full_range():
    # Every date from 1583-01-01 through 9999-12-31 through all four routes.
    result = check(verify.verify_range(MIN_YEAR, MAX_YEAR), "differential")
    assert result.cases == 3_074_246
    assert result.failures == 0
    assert result.examples == ()


def test_recorder_formats_only_the_examples_it_keeps():
    formatted = []

    class Probe:
        def __format__(self, spec):
            formatted.append(spec)
            return f"probe:{spec}"

    rec = _Recorder()
    rec.case(True, "{}", Probe())
    for _ in range(MAX_EXAMPLES + 3):
        rec.case(False, "case {:d}", Probe())
    result = rec.result("probe")
    assert (result.cases, result.failures) == (MAX_EXAMPLES + 4, MAX_EXAMPLES + 3)
    assert result.examples == ("case probe:d",) * MAX_EXAMPLES
    assert formatted == ["d"] * MAX_EXAMPLES


def test_verify_range_walks_each_date_once(monkeypatch):
    # One walk feeds the differential and the seven systems: the first
    # cycle is not walked a second time, and its oracle runs once per date.
    spans, oracle_calls = [], 0
    real_iter_dates, real_oracle = verify.iter_dates, verify.oracle_weekday

    def recording_iter_dates(start_year, end_year):
        spans.append((start_year, end_year))
        return real_iter_dates(start_year, end_year)

    def counting_oracle(date):
        nonlocal oracle_calls
        oracle_calls += 1
        return real_oracle(date)

    monkeypatch.setattr(verify, "iter_dates", recording_iter_dates)
    monkeypatch.setattr(verify, "oracle_weekday", counting_oracle)
    # A forked worker would count in its own memory.
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 1)
    summary = verify.verify_range(1600, 2100)
    assert summary.ok
    assert oracle_calls == summary.dates_tested == 182_987
    assert spans[0][0] == 1600 and spans[-1][1] == 2100
    assert all(end + 1 == start for (_, end), (start, _) in zip(spans, spans[1:]))


def test_verify_catches_a_leap_rule_without_the_century_exception(monkeypatch):
    # Only the leap rule the routes read is wrong; the oracle's stays right.
    # January and February of 1700, 1800, 1900, 2100, 2200, 2300 and 2500
    # then run a day late: 7 * 59 dates, and the systems see the first three.
    for module in (conway, method, systems):
        monkeypatch.setattr(module, "_is_leap", lambda year: year % 4 == 0)
    summary = verify.verify_range(1583, 2599)
    failed = {check.name: check.failures for check in summary.checks if not check.ok}
    assert failed == {"differential": 413, "anchor-systems": 1_239}
    examples = {check.name: check.examples[0] for check in summary.checks if not check.ok}
    assert examples == {
        "differential": "1700-01-01: oracle=5 standard=4 forward=4 backward=4",
        "anchor-systems": "k=0 1700-01-01: system weekday != oracle",
    }


# Faulty walks in place of core.iter_dates: the four routes agree on
# whatever dates a walk yields, so only the calendar check can see these.
# Each fault is applied once in a short walk in one process, and once in
# 2000..2103, which two CPUs cut into 2000..2051 and 2052..2103, with the
# fault on that boundary or in the forked share after it. One more sits
# where the first cycle's span meets the rest.


def _unchecked(year, month, day):
    """A date past Date's checks, as a faulty walk would build it."""
    date = object.__new__(Date)
    for name, value in zip(("year", "month", "day"), (year, month, day)):
        object.__setattr__(date, name, value)
    return date


def _without(year, month, day):
    missing = Date(year, month, day)
    return lambda first, last: (date for date in iter_dates(first, last) if date != missing)


def _with(year, month, day):
    before, extra = Date(year, month, day - 1), _unchecked(year, month, day)

    def walk(first, last):
        for date in iter_dates(first, last):
            yield date
            if date == before:
                yield extra

    return walk


#: Each fault's walk in 2000..2003, then in 2000..2103.
CALENDAR_FAULTS = {
    "dropped-day": (_without(2001, 6, 15), _without(2052, 1, 1)),
    "february-29-in-a-common-year": (_with(2001, 2, 29), _with(2053, 2, 29)),
    "february-30-in-a-leap-year": (_with(2000, 2, 30), _with(2052, 2, 30)),
    "december-with-30-days": (_without(2001, 12, 31), _without(2051, 12, 31)),
    "stops-one-year-early": (lambda first, last: iter_dates(first, last - 1),) * 2,
    "runs-one-year-past-the-end": (lambda first, last: iter_dates(first, last + 1),) * 2,
    "shifted-one-year": (lambda first, last: iter_dates(first + 1, last + 1),) * 2,
}

#: What the calendar check expects of 2000..2003.
GIVES = "the leap rule gives 1461, 2000-01-01..2003-12-31"

#: Each fault's dates tested, calendar failures and first example in 2000..2003.
ONE_WALK = {
    "dropped-day": (1460, 2, "2001-06-16 after 2001-06-14: oracle=6 expected=5"),
    "february-29-in-a-common-year": (1462, 2, "2001-03-01 after 2001-02-29: oracle=4 expected=5"),
    "february-30-in-a-leap-year": (1462, 2, "2000-03-01 after 2000-02-30: oracle=3 expected=4"),
    "december-with-30-days": (1460, 2, "2002-01-01 after 2001-12-30: oracle=2 expected=1"),
    # A walk in one share has no neighbour: only its count and ends see it.
    "stops-one-year-early": (1096, 1, f"1096 dates walked, 2000-01-01..2002-12-31; {GIVES}"),
    "runs-one-year-past-the-end": (1827, 1, f"1827 dates walked, 2000-01-01..2004-12-31; {GIVES}"),
    # 2001..2004 holds as many days as 2000..2003: only the ends see it.
    "shifted-one-year": (1461, 1, f"1461 dates walked, 2001-01-01..2004-12-31; {GIVES}"),
}

#: Each fault's calendar failures and first example in 2000..2103 on two CPUs.
FORKED = {
    "dropped-day": (2, "2052-01-02 after 2051-12-31: oracle=2 expected=1"),
    "february-29-in-a-common-year": (2, "2053-03-01 after 2053-02-29: oracle=6 expected=0"),
    "february-30-in-a-leap-year": (2, "2052-03-01 after 2052-02-30: oracle=5 expected=6"),
    "december-with-30-days": (2, "2052-01-01 after 2051-12-30: oracle=1 expected=0"),
    # Each share's walk stops or overruns, so the two shares no longer meet.
    "stops-one-year-early": (2, "2052-01-01 after 2050-12-31: oracle=1 expected=0"),
    "runs-one-year-past-the-end": (2, "2052-01-01 after 2052-12-31: oracle=1 expected=3"),
    # Both shares shift alike, so they still meet: only the ends see it.
    "shifted-one-year": (
        1, "37985 dates walked, 2001-01-01..2104-12-31; "
        "the leap rule gives 37985, 2000-01-01..2103-12-31",
    ),
}


def _calendar_failure(summary):
    """The calendar check's failures and first example, when it alone fails."""
    assert [check.name for check in summary.checks if not check.ok] == ["calendar"]
    calendar = summary.checks[-1]
    assert calendar.cases == summary.dates_tested
    return calendar.failures, calendar.examples[0]


@pytest.mark.parametrize("fault", ONE_WALK)
def test_verify_fails_a_faulty_calendar_in_one_walk(monkeypatch, capsys, fault):
    dates, failures, example = ONE_WALK[fault]
    monkeypatch.setattr(verify, "iter_dates", CALENDAR_FAULTS[fault][0])
    summary = verify.verify_range(2000, 2003)
    assert summary.dates_tested == dates
    assert _calendar_failure(summary) == (failures, example)
    assert cli.main(["verify", "2000", "2003"]) == 1
    assert f"    {example}\n" in capsys.readouterr().out


@pytest.mark.parametrize("fault", FORKED)
def test_verify_fails_a_faulty_calendar_across_forked_shares(
    monkeypatch, capsys, deadline, fault
):
    # Forked children walk with the patch they inherit.
    monkeypatch.setattr(verify, "iter_dates", CALENDAR_FAULTS[fault][1])
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    forked = verify.verify_range(2000, 2103)
    assert_nothing_left(fds)
    failures, example = FORKED[fault]
    assert _calendar_failure(forked) == (failures, example)
    assert cli.main(["verify", "2000", "2103"]) == 1
    assert f"    {example}\n" in capsys.readouterr().out
    if fault not in ("stops-one-year-early", "runs-one-year-past-the-end"):
        # A fault that does not move with the cut: one walk over the range finds the same.
        monkeypatch.setattr(_shares, "_cpu_count", lambda: 1)
        assert verify.verify_range(2000, 2103) == forked


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_fails_a_day_dropped_where_the_first_cycle_meets_the_rest(
    monkeypatch, deadline, cpus
):
    # 2000..2399 is walked with the systems, 2400..2449 without them as a
    # span of its own: the calendar check joins the spans as it joins shares.
    monkeypatch.setattr(verify, "iter_dates", _without(2400, 1, 1))
    monkeypatch.setattr(_shares, "_cpu_count", lambda: cpus)
    fds = open_fds()
    summary = verify.verify_range(2000, 2449)
    assert_nothing_left(fds)
    assert summary.dates_tested == 164_359
    assert _calendar_failure(summary) == (2, "2400-01-02 after 2399-12-31: oracle=0 expected=6")


# How verify cuts its spans and walks them on the share engine
# (calamity._shares); tests/test_metrics.py does the same for compare.


def test_each_span_gets_one_share_per_cpu_of_at_least_min_share_years(monkeypatch):
    # A share is (first, last, systems): the systems walk only the first
    # cycle. With os.fork refused every share is walked here, in order, so
    # the walks show the cut.
    walks = []

    def record(*walk):
        walks.append(walk)
        return [(0, 0, []), (0, 0, []), (0, 0, []), None]

    def cut(start, end):
        # The walks of each span: the first cycle from ``start``, then the rest.
        walks.clear()
        verify.verify_range(start, end)
        spans = []
        for walk in walks:
            if walk[0] in (start, start + CYCLE_YEARS):
                spans.append([])
            spans[-1].append(walk)
        return spans

    monkeypatch.setattr(verify, "_walk", record)
    monkeypatch.setattr(os, "fork", refuse(errno.EAGAIN))
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 8)
    assert verify.MIN_SHARE_YEARS == 50
    ranges = [(1583, 1681), (1583, 1682), (1600, 2000)]
    assert [span for start, end in ranges for span in cut(start, end)] == [
        [(1583, 1681, True)],
        [(1583, 1632, True), (1633, 1682, True)],
        [(year, year + 49, True) for year in range(1600, 2000, 50)],
        [(2000, 2000, False)],
    ]
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    assert cut(1583, 2599) == [
        [(1583, 1782, True), (1783, 1982, True)],
        [(1983, 2290, False), (2291, 2599, False)],
    ]


def test_a_walk_where_there_is_no_fork_reports_what_a_forked_walk_reports(monkeypatch, deadline):
    # Without os.fork no child can be started, so a second share would fail loudly.
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    forked = verify.verify_range(2000, 2099)
    monkeypatch.delattr(os, "fork")
    fds = open_fds()
    assert verify.verify_range(2000, 2099) == forked
    assert_nothing_left(fds)


def _late_weekday(real):
    return lambda date: WEEKDAYS[(real(date) + 1) % 7] if date.day == 13 else real(date)


def _late_knot(real):
    return lambda day, code: (real(day, code) + 1) % 7 if day == 13 else real(day, code)


@pytest.mark.parametrize(
    "sweep, name, module, route, late, cases, failures, last_example, calls",
    [
        pytest.param(
            verify.verify_range, "differential", verify, "weekday_calamity", _late_weekday,
            146_463, 401 * 12, "2000-05-13: oracle=6 standard=6 forward=0 backward=6",
            146_463, id="verify_range",
        ),
        pytest.param(
            verify.differential_sweep, "differential", verify, "weekday_calamity", _late_weekday,
            146_463, 401 * 12, "2000-05-13: oracle=6 standard=6 forward=0 backward=6",
            146_463, id="differential_sweep",
        ),
        # The systems walk 2000..2399, in two shares at 2 CPUs, after 27
        # structure cases per system.
        pytest.param(
            verify.anchor_system_check, "anchor-systems", systems, "square_knot_forward", _late_knot,
            7 * 27 + 7 * 146_097, 7 * 400 * 12, "k=4 2000-01-13: system weekday != oracle",
            7 * 146_097, id="anchor_system_check",
        ),
    ],
)
def test_a_forked_walk_reports_what_one_walk_reports(
    monkeypatch, deadline, sweep, name, module, route, late, cases, failures, last_example, calls
):
    # The route runs a day late on every 13th: twelve failures a year, far
    # more than MAX_EXAMPLES in each share of 2000..2400, so the examples
    # must come from the first share and the counts from all.
    faulty, here = late(getattr(module, route)), os.getpid()
    calls_here = 0

    def late_on_the_13th(*args):
        nonlocal calls_here
        calls_here += os.getpid() == here
        return faulty(*args)

    monkeypatch.setattr(module, route, late_on_the_13th)
    fds = open_fds()
    results, walked_here = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(_shares, "_cpu_count", lambda: cpus)
        calls_here = 0
        results[cpus] = sweep(2000, 2400)
        walked_here[cpus] = calls_here
    assert results[2] == results[1]
    result = check(results[1], name) if sweep is verify.verify_range else results[1]
    assert result.name == name
    assert (result.cases, result.failures) == (cases, failures)
    assert result.examples[-1] == last_example
    assert walked_here[2] < walked_here[1] == calls
    assert_nothing_left(fds)


def test_a_killed_worker_raises_runtime_error(monkeypatch, deadline):
    # A failed verify worker names its sweep and its years.
    real, here = verify.weekday_standard, os.getpid()

    def dies_in_a_worker(date):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(date)

    monkeypatch.setattr(verify, "weekday_standard", dies_in_a_worker)
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    with pytest.raises(RuntimeError) as raised:
        verify.verify_range(2000, 2400)
    assert str(raised.value) == "verify worker for years 2200..2399 killed by signal SIGKILL"
    assert_nothing_left(fds)


def test_the_timing_hooks_read_their_checks_from_verify_range(monkeypatch, deadline):
    # perfbench times differential_sweep and anchor_system_check on their
    # own; each must be the check of its name in verify_range's report.
    for start, end in ((2000, 2000), (2000, 2400)):
        summary = verify.verify_range(start, end)
        assert verify.differential_sweep(start, end) == check(summary, "differential")
        assert verify.anchor_system_check(start, end) == check(summary, "anchor-systems")
    monkeypatch.setattr(verify, "system", lambda k: pytest.fail("a check ran"))
    monkeypatch.setattr(verify, "iter_dates", lambda *years: pytest.fail("a check ran"))
    for hook in (verify.differential_sweep, verify.anchor_system_check):
        for start, end, bad in ((1582, 2000, 1582), (1583, 10000, 10000)):
            with pytest.raises(ValueError) as raised:
                hook(start, end)
            assert str(raised.value) == f"year {bad} outside supported range 1583..9999"
