"""Date validation, leap rules, and the day-counting oracle."""

import datetime

import pytest
from hypothesis import given

from calamity.core import (
    MAX_YEAR,
    Date,
    Direction,
    Weekday,
    is_leap,
    iter_dates,
    month_length,
    oracle_weekday,
)
from support import dates


def test_is_leap_hand_picked():
    assert is_leap(2000)
    assert not is_leap(1900)
    assert is_leap(2024)
    assert not is_leap(2023)
    assert is_leap(1600)
    assert not is_leap(1700)
    assert not is_leap(1800)
    assert is_leap(1996)


def test_is_leap_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_leap(1582)
    with pytest.raises(ValueError):
        is_leap(10000)


def test_month_lengths():
    assert month_length(2023, 2) == 28
    assert month_length(2024, 2) == 29
    assert month_length(2024, 12) == 31
    assert [month_length(2023, m) for m in range(1, 13)] == [
        31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31,
    ]


def test_month_length_rejects_bad_month():
    with pytest.raises(ValueError):
        month_length(2023, 0)
    with pytest.raises(ValueError):
        month_length(2023, 13)


def test_date_validation():
    Date(2024, 2, 29)
    with pytest.raises(ValueError):
        Date(2023, 2, 29)
    with pytest.raises(ValueError):
        Date(2023, 4, 31)
    with pytest.raises(ValueError):
        Date(1582, 12, 31)
    with pytest.raises(ValueError):
        Date(2023, 13, 1)
    with pytest.raises(ValueError, match="day 0 outside 1..31"):
        Date(2000, 1, 0)


def test_date_parsing_and_rendering():
    d = Date.fromisoformat("2025-03-14")
    assert (d.year, d.month, d.day) == (2025, 3, 14)
    assert str(d) == "2025-03-14"
    with pytest.raises(ValueError):
        Date.fromisoformat("2025-13-01")
    with pytest.raises(ValueError):
        Date.fromisoformat("not a date")


@pytest.mark.parametrize("text", [
    "20251225",  # basic format, accepted by datetime on 3.11+
    "2025-W52-4",  # ISO week date, likewise
    "2025-12-25T00:00",
    "2025-12-25\n",
    " 2025-12-25",
    "2025-1-05",
    "\u0662\u0660\u0662\u0665-\u0661\u0662-\u0662\u0665",  # Arabic-Indic digits
    "\uff12\uff10\uff12\uff15-12-25",  # fullwidth digits
])
def test_date_parsing_accepts_only_ascii_yyyy_mm_dd(text):
    with pytest.raises(ValueError):
        Date.fromisoformat(text)


@pytest.mark.parametrize("fields", [
    (2000.0, 1, 1),
    (2000, True, 1),
    (2000, 1, True),
    ("2000", 1, 1),
])
def test_date_fields_must_be_int(fields):
    with pytest.raises(TypeError):
        Date(*fields)


def test_date_ordering():
    assert Date(1999, 12, 31) < Date(2000, 1, 1)
    assert Date(2000, 1, 31) < Date(2000, 2, 1)


def test_oracle_reference_points():
    assert oracle_weekday(Date(2000, 4, 4)) == Weekday.Tuesday
    assert oracle_weekday(Date(2000, 4, 5)) == Weekday.Wednesday
    assert oracle_weekday(Date(2025, 3, 14)) == Weekday.Friday
    assert oracle_weekday(Date(2025, 12, 25)) == Weekday.Thursday


@given(dates())
def test_oracle_agrees_with_datetime(date):
    # datetime counts Monday = 0; shift into the Sunday = 0 convention.
    expected = (datetime.date(date.year, date.month, date.day).weekday() + 1) % 7
    assert oracle_weekday(date) == expected


@given(dates(max_year=MAX_YEAR - 1))
def test_oracle_steps_by_one_day(date):
    if date.day < month_length(date.year, date.month):
        nxt = Date(date.year, date.month, date.day + 1)
    elif date.month < 12:
        nxt = Date(date.year, date.month + 1, 1)
    else:
        nxt = Date(date.year + 1, 1, 1)
    assert oracle_weekday(nxt) == (oracle_weekday(date) + 1) % 7


@given(dates(max_year=MAX_YEAR - 400))
def test_oracle_400_year_cycle(date):
    if date.month == 2 and date.day == 29 and not is_leap(date.year + 400):
        return
    assert oracle_weekday(Date(date.year + 400, date.month, date.day)) == oracle_weekday(date)


def test_400_year_span_is_weekday_neutral():
    days = sum(366 if is_leap(y) else 365 for y in range(2000, 2400))
    assert days == 146097
    assert days % 7 == 0


def test_iter_dates_counts():
    assert sum(1 for _ in iter_dates(2000, 2000)) == 366
    assert sum(1 for _ in iter_dates(2023, 2023)) == 365
    assert sum(1 for _ in iter_dates(2000, 2003)) == 366 + 365 + 365 + 365


def test_iter_dates_is_ordered():
    seq = list(iter_dates(1999, 2000))
    assert seq == sorted(seq)
    assert seq[0] == Date(1999, 1, 1)
    assert seq[-1] == Date(2000, 12, 31)


def test_iter_dates_rejects_reversed_range():
    with pytest.raises(ValueError):
        next(iter_dates(2001, 2000))


def test_iter_dates_rejects_an_out_of_range_end_before_sweeping():
    with pytest.raises(ValueError, match="year 10000 outside supported range"):
        next(iter_dates(9999, 10000))


def test_weekday_names():
    # Enum formatting differs across Python versions; both must give the value.
    assert str(Direction.BACKWARD) == f"{Direction.BACKWARD}" == "backward"
    assert Weekday(0).name == "Sunday"
    assert Weekday(6).name == "Saturday"
    assert [Weekday(i).name for i in range(7)] == [
        "Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday",
    ]
