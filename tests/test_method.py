"""The assembled lookup pipeline and its step trace."""

import pytest
from hypothesis import given, strategies as st

from calamity import method, metrics, verify
from calamity.conway import weekday_standard
from calamity.core import CYCLE_YEARS, MIN_YEAR, Date, Direction, Weekday, iter_dates, oracle_weekday
from calamity.method import AUTO, weekday_calamity, weekday_calamity_backward, weekday_calamity_traced
from support import check, dates


def test_worked_examples():
    assert weekday_calamity(Date(2000, 4, 4)) == Weekday.Tuesday
    assert weekday_calamity(Date(2025, 3, 14)) == Weekday.Friday
    assert weekday_calamity(Date(2100, 2, 28)) == Weekday.Sunday


def test_trace_forward_month_step():
    day, trace = weekday_calamity_traced(Date(2025, 12, 25), Direction.FORWARD)
    assert day == Weekday.Thursday
    assert trace.month_offset == 6
    assert trace.target_gap.direction is Direction.FORWARD
    assert trace.target_gap.gap == 4
    assert trace.target_gap.digit == 2


def test_trace_backward_month_step():
    day, trace = weekday_calamity_traced(Date(2025, 12, 25), Direction.BACKWARD)
    assert day == Weekday.Thursday
    assert trace.month_offset == -1
    assert trace.target_gap.direction is Direction.BACKWARD
    assert trace.target_gap.gap == 3
    assert trace.target_gap.digit == 5


def test_trace_auto_picks_the_smaller_gap():
    _, trace = weekday_calamity_traced(Date(2025, 12, 25), AUTO)
    assert trace.target_gap.direction is Direction.BACKWARD
    _, trace = weekday_calamity_traced(Date(2025, 12, 22), AUTO)
    assert trace.target_gap.direction is Direction.FORWARD
    # Days on a multiple-of-7 anchor have both gaps zero; auto settles
    # on forward and the offset is the bare tens digit.
    _, trace = weekday_calamity_traced(Date(2025, 12, 14), AUTO)
    assert trace.target_gap.direction is Direction.FORWARD
    assert trace.target_gap.gap == 0
    assert trace.month_offset == 2
    # The month's own anchor date lands at offset zero either way.
    _, trace = weekday_calamity_traced(Date(2025, 12, 12), AUTO)
    assert trace.month_offset == 0


def test_trace_year_navigation():
    _, trace = weekday_calamity_traced(Date(2025, 12, 25))
    nav = trace.year_navigation
    assert (nav.anchor, nav.distance, nav.direction) == (28, 3, Direction.BACKWARD)
    assert nav.digit == 3
    assert trace.century_anchor == 2


@given(dates())
def test_direction_by_name_traces_as_by_member(date):
    # The CLI passes a name; metrics and perfbench pass the member.
    for member in Direction:
        by_name = weekday_calamity_traced(date, member.value)
        assert by_name == weekday_calamity_traced(date, member)
        assert by_name[1].target_gap.direction is member


def test_unknown_direction_is_rejected():
    with pytest.raises(ValueError) as excinfo:
        weekday_calamity_traced(Date(2025, 12, 25), "sideways")
    assert str(excinfo.value) == "'sideways' is not a valid Direction"


def test_backward_route_runs_the_verified_square_knot(monkeypatch):
    # The square-knot check tests square_knot_backward; an off-by-one
    # copy must reach the backward route and the differential check.
    real = method.square_knot_backward
    monkeypatch.setattr(method, "square_knot_backward", lambda day, code: real(day, code) + 1)
    date = Date(2025, 12, 25)
    assert weekday_calamity_traced(date, Direction.BACKWARD)[0] != oracle_weekday(date)
    assert check(verify.verify_range(2000, 2000), "differential").failures == 366


def test_traced_forward_answer_is_the_verified_one(monkeypatch):
    # The traced route prints the answer of the function verify checks;
    # recompute() re-adds the recorded steps, so it exposes the fault.
    real = method.weekday_calamity
    monkeypatch.setattr(method, "weekday_calamity", lambda date: Weekday((real(date) + 1) % 7))
    date = Date(2025, 12, 25)
    day, trace = weekday_calamity_traced(date, Direction.FORWARD)
    assert day == trace.final == Weekday.Friday
    assert trace.recompute() != trace.final


def _cycle_recompute_mismatches(direction):
    # Every trace component reads the year only through year % 400, so one
    # Gregorian cycle holds every trace ``weekday --trace`` can print.
    cycle = iter_dates(MIN_YEAR, MIN_YEAR + CYCLE_YEARS - 1)
    traces = (weekday_calamity_traced(date, direction)[1] for date in cycle)
    return sum(trace.recompute() != trace.final for trace in traces)


def test_every_trace_of_a_cycle_recomposes():
    assert _cycle_recompute_mismatches(Direction.FORWARD) == 0
    assert _cycle_recompute_mismatches(Direction.BACKWARD) == 0


def _cycle_standard_mismatches():
    # The arithmetic trace, like the lookup one, reads the year only
    # through year % 400.
    cycle = iter_dates(MIN_YEAR, MIN_YEAR + CYCLE_YEARS - 1)
    return sum(
        metrics.trace_standard(date)[-1].result_magnitude != weekday_standard(date)
        for date in cycle
    )


def test_every_standard_trace_of_a_cycle_ends_on_its_weekday():
    assert _cycle_standard_mismatches() == 0


def test_cycle_check_catches_a_late_leap_february_anchor(monkeypatch):
    # Only the trace's anchor is one day late, and only for a leap February:
    # 97 leap years of a cycle times 29 days.
    real = metrics.doomsday_date
    monkeypatch.setattr(
        metrics,
        "doomsday_date",
        lambda month, leap=False: real(month, leap) + (leap and month == 2),
    )
    assert _cycle_standard_mismatches() == 97 * 29 == 2_813


@pytest.mark.parametrize("faulted", [Direction.FORWARD, Direction.BACKWARD])
def test_cycle_check_catches_a_wrong_recorded_digit(monkeypatch, faulted):
    # The answer stays right; only the digit the trace shows is off by one.
    real = method.MonthStep
    monkeypatch.setattr(
        method,
        "MonthStep",
        lambda direction, gap, digit: real(direction, gap, digit + (direction is faulted)),
    )
    assert _cycle_recompute_mismatches(faulted) == 146_097


@given(dates())
def test_direction_never_changes_the_answer(date):
    forward, _ = weekday_calamity_traced(date, Direction.FORWARD)
    backward, _ = weekday_calamity_traced(date, Direction.BACKWARD)
    auto, _ = weekday_calamity_traced(date, AUTO)
    assert forward == backward == auto == weekday_calamity(date)
    assert weekday_calamity_backward(date) == forward


@given(dates(), st.sampled_from([Direction.FORWARD, Direction.BACKWARD, AUTO]))
def test_trace_recomposes_to_the_final_weekday(date, direction):
    day, trace = weekday_calamity_traced(date, direction)
    assert trace.final == day
    assert trace.recompute() == day


@given(dates())
def test_trace_components_stay_small(date):
    """Everything a trace records fits in one digit."""
    for direction in (Direction.FORWARD, Direction.BACKWARD):
        _, trace = weekday_calamity_traced(date, direction)
        assert 0 <= trace.century_anchor <= 6
        assert 0 <= trace.year_navigation.digit <= 6
        assert 0 <= trace.target_gap.gap <= 6
        assert 0 <= trace.target_gap.digit <= 6
        assert abs(trace.month_offset) <= 6


@given(dates())
def test_pipeline_matches_oracle(date):
    assert weekday_calamity(date) == oracle_weekday(date)
