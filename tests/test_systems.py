"""The seven same-weekday anchor systems and the classifier."""

import pytest
from hypothesis import given, strategies as st

from calamity import _shares, conway, verify
from calamity.conway import DOOMSDAY_DATES, doomsday_date
from calamity.core import Date, Weekday, iter_dates, oracle_weekday
from calamity.systems import (
    _ROTATION,
    NotUniformError,
    classify,
    month_groupings,
    rotate_code,
    system,
    zero_month_count,
)
from calamity.vector import VectorCode, code_vocabulary
from support import check, dates

CONWAY_DATES = [(m, DOOMSDAY_DATES[m - 1]) for m in range(1, 13)]

WANG_DATES = [
    (1, 1), (2, 12), (3, 5), (4, 2), (5, 7), (6, 4),
    (7, 9), (8, 6), (9, 3), (10, 8), (11, 12), (12, 10),
]

WANG_CODES = (61, 25, 25, 52, 0, 34, 52, 16, 43, 61, 25, 43)

ROTATION = [0, 61, 52, 43, 34, 25, 16]


def test_system_zero_is_the_classic_table():
    sys0 = system(0)
    assert tuple(code.value for code in sys0.codes) == (
        43, 0, 0, 34, 52, 16, 34, 61, 25, 43, 0, 25,
    )
    assert sys0.residues == tuple(d % 7 for d in DOOMSDAY_DATES)


def test_system_five_is_wangs_table():
    assert tuple(code.value for code in system(5).codes) == WANG_CODES


def test_system_rejects_out_of_range():
    with pytest.raises(ValueError):
        system(-1)
    with pytest.raises(ValueError):
        system(7)


@pytest.mark.parametrize("k", [True, 1.0, "1", None], ids=["bool", "float", "str", "None"])
def test_system_takes_an_exact_int_as_classify_does(k):
    # True would read as class 1, and 1.0 would fail on a tuple index.
    with pytest.raises(TypeError) as raised:
        system(k)
    assert str(raised.value) == f"system index must be int, got {k!r}"
    with pytest.raises(TypeError):
        zero_month_count(k)


def test_rotation_cycle():
    for i, value in enumerate(ROTATION):
        code = VectorCode(value // 10, value % 10)
        assert rotate_code(code).value == ROTATION[(i + 1) % 7]


def test_rotation_examples():
    assert rotate_code(VectorCode(0, 0)).value == 61
    assert rotate_code(VectorCode(1, 6)).value == 0
    # Every VectorCode is in the vocabulary, so only a plain tuple
    # reaches the rejection.
    with pytest.raises(ValueError, match="is not a vocabulary code"):
        rotate_code((1, 6))


def test_rotation_is_a_7_cycle():
    for start in code_vocabulary():
        code = start
        seen = {code}
        for _ in range(6):
            code = rotate_code(code)
            seen.add(code)
        assert rotate_code(code) == start
        assert len(seen) == 7


def test_incrementing_k_rotates_every_code():
    for k in range(7):
        current = system(k).codes
        nxt = system((k + 1) % 7).codes
        for month in range(12):
            assert rotate_code(current[month]) == nxt[month]


def test_codes_stay_in_vocabulary():
    vocabulary = code_vocabulary()
    for k in range(7):
        sys_k = system(k)
        for month in range(1, 13):
            assert sys_k.codes[month - 1] in vocabulary
            assert sys_k.code(month, leap=True) in vocabulary


def test_classify_conway():
    assert classify(CONWAY_DATES) == 0


def test_classify_wang():
    assert classify(WANG_DATES) == 5


def test_classify_round_trip_all_k():
    for k in range(7):
        residues = system(k).residues
        representatives = [(m, residues[m - 1] or 7) for m in range(1, 13)]
        assert classify(representatives) == k
        # One week later is an equally valid representative everywhere.
        assert classify([(m, day + 7) for m, day in representatives]) == k


def test_classify_not_uniform():
    perturbed = list(CONWAY_DATES)
    perturbed[0] = (1, 5)
    with pytest.raises(NotUniformError) as exc_info:
        classify(perturbed)
    assert exc_info.value.offending == (1,)
    assert str(exc_info.value) == "month 1 disagrees with the majority day shift 0"


def test_classify_majority_vote_reports_the_minority():
    # Two strays against ten agreeing months.
    perturbed = list(CONWAY_DATES)
    perturbed[3] = (4, 5)
    perturbed[8] = (9, 7)
    with pytest.raises(NotUniformError) as exc_info:
        classify(perturbed)
    assert exc_info.value.offending == (4, 9)


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify(CONWAY_DATES[:11])
    with pytest.raises(ValueError):
        classify(CONWAY_DATES + [(1, 3)])
    with pytest.raises(ValueError):
        classify([(m, 30) if m == 2 else (m, d) for m, d in CONWAY_DATES])
    duplicated = list(CONWAY_DATES)
    duplicated[1] = (3, 3)
    with pytest.raises(ValueError):
        classify(duplicated)
    for pair, message in (((0, 3), "month 0 outside 1..12"), ((1, 0), "day 0 outside 1..31")):
        with pytest.raises(ValueError, match=message):
            classify([pair] + CONWAY_DATES[1:])
    # Exactly int, as a Date's fields: a float or bool would classify or
    # index a table by accident.
    for pair in ((1.0, 3), (1, 3.0), (True, 3), (1, 3.5)):
        with pytest.raises(TypeError, match="month and day must be int"):
            classify([pair] + CONWAY_DATES[1:])
    with pytest.raises(TypeError):
        classify([(m, float(d)) for m, d in enumerate(DOOMSDAY_DATES, 1)])


def test_classify_majority_tie_goes_to_the_smallest_shift():
    # Six months moved two days against six classic ones. The moved
    # months come first, so neither the first shift seen nor the largest
    # is the smallest.
    moved = [(m, DOOMSDAY_DATES[m - 1] + 2) for m in range(7, 13)]
    with pytest.raises(NotUniformError) as exc_info:
        classify(moved + CONWAY_DATES[:6])
    assert exc_info.value.majority == 0
    assert exc_info.value.offending == (7, 8, 9, 10, 11, 12)


def test_zero_month_counts():
    assert [zero_month_count(k) for k in range(7)] == [3, 1, 2, 2, 2, 1, 1]
    for k in range(1, 7):
        assert zero_month_count(k) <= 2


def test_month_groupings():
    groups = month_groupings()
    assert groups[0] == frozenset({2, 3, 11})
    assert groups[1] == frozenset({8})
    assert groups[2] == frozenset({5})
    assert groups[3] == frozenset({1, 10})
    assert groups[4] == frozenset({4, 7})
    assert groups[5] == frozenset({9, 12})
    assert groups[6] == frozenset({6})
    assert tuple(len(groups[r]) for r in range(7)) == (3, 1, 1, 2, 2, 2, 1)
    assert frozenset().union(*groups.values()) == frozenset(range(1, 13))


def test_months_share_codes_exactly_when_residues_match():
    for k in range(7):
        codes = system(k).codes
        for a in range(12):
            for b in range(12):
                same_code = codes[a] == codes[b]
                same_residue = DOOMSDAY_DATES[a] % 7 == DOOMSDAY_DATES[b] % 7
                assert same_code == same_residue


def test_century_anchor_shifts():
    assert system(0).century_anchor(2000) == 2
    assert system(0).century_anchor(1900) == 3
    # Pinned by end-to-end oracle agreement: the k = 5 anchor dates of
    # the 2000s fall on weekday (2 + 5) mod 7, two days before the
    # classic doomsday.
    assert system(5).century_anchor(2001) == 0


@pytest.mark.parametrize("k", range(7))
def test_code_table_follows_the_residue_rule(k):
    for leap in (False, True):
        for month in range(1, 13):
            expected = _ROTATION[(doomsday_date(month, leap) + k) % 7]
            assert system(k).code(month, leap) == expected
    for month in (0, 13):
        with pytest.raises(ValueError, match="outside 1..12"):
            system(k).code(month)


@pytest.mark.parametrize("k", range(7))
def test_century_table_follows_the_shift_rule(k):
    # 1980 is inside a century: it must read that century's class.
    for year in (1600, 1700, 1800, 1900, 1980):
        assert system(k).century_anchor(year) == (conway.century_anchor(year) + k) % 7
    for year in (1582, 10000):
        with pytest.raises(ValueError, match="outside supported range"):
            system(k).century_anchor(year)


@given(st.integers(0, 6), dates())
def test_every_system_matches_the_oracle(k, date):
    assert system(k).weekday(date) == oracle_weekday(date)


def test_wang_system_end_to_end_sample():
    sys5 = system(5)
    for date in iter_dates(2024, 2025):
        assert sys5.weekday(date) == oracle_weekday(date)


def test_wang_anchor_dates_share_a_weekday():
    # 2025: every date on Wang's list lands on the same weekday.
    weekdays = {oracle_weekday(Date(2025, m, d)) for m, d in WANG_DATES}
    assert weekdays == {Weekday.Wednesday}


def test_anchor_system_check_sweeps_only_the_first_400_years(monkeypatch):
    # The walk runs the systems on the spans it is told to: the first cycle only.
    swept, real_walk = [], verify._walk

    def record(first, last, systems):
        if systems:
            swept.append((first, last))
        return real_walk(first, last, systems)

    monkeypatch.setattr(verify, "_walk", record)
    monkeypatch.setattr(verify, "iter_dates", lambda start_year, end_year: iter(()))
    # A forked worker would record in its own memory.
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 1)
    verify.verify_range(1600, 2100)
    verify.verify_range(1990, 2010)
    assert swept == [(1600, 1999), (1990, 2010)]


@pytest.mark.parametrize("start, end, bad", [(1583, 10000, 10000), (1582, 2000, 1582)])
def test_anchor_system_check_rejects_an_unsupported_year_before_any_check(
    monkeypatch, start, end, bad
):
    # The systems stop one cycle in, so they would never reach a bad end year.
    monkeypatch.setattr(verify, "system", lambda k: pytest.fail("a check ran"))
    with pytest.raises(ValueError) as checked:
        verify.verify_range(start, end)
    assert str(checked.value) == f"year {bad} outside supported range 1583..9999"


def test_anchor_system_check_catches_a_misgrouped_month(monkeypatch):
    assert check(verify.verify_range(2000, 2000), "anchor-systems").ok is True
    grouping = month_groupings()
    moved = {**grouping, 0: grouping[0] - {2}, 1: grouping[1] | {2}}
    monkeypatch.setattr(verify, "month_groupings", lambda: moved)
    result = check(verify.verify_range(2000, 2000), "anchor-systems")
    assert (result.cases, result.failures, result.ok) == (2751, 2, False)
    assert result.examples == ("k=0: zero-month count 3", "k=6: zero-month count 1")
    # Swapping month 2 (residue 0) with month 8 (residue 1) keeps every
    # group's size: only the sets of zero months tell.
    swapped = {**grouping, 0: grouping[0] - {2} | {8}, 1: grouping[1] - {8} | {2}}
    monkeypatch.setattr(verify, "month_groupings", lambda: swapped)
    result = check(verify.verify_range(2000, 2000), "anchor-systems")
    assert (result.cases, result.failures, result.ok) == (2751, 2, False)
    assert result.examples == ("k=0: zero-month count 3", "k=6: zero-month count 1")


ZERO_CODE = VectorCode(0, 0)


@pytest.mark.parametrize("name, fake, failures, examples", [
    # A shifted system with three zero months fails both the count and
    # the bound that only the classic set may reach three.
    ("zero_month_count", lambda real: lambda k: 3 if k == 1 else real(k), 2, (
        "k=1: zero-month count 3",
        "k=1: zero-month optimality violated (3)",
    )),
    # Code 00 is a month code 12 times among the seven systems.
    ("code_vocabulary", lambda real: lambda: real() - {ZERO_CODE}, 12, (
        "k=0 month 2: code 00 not in vocabulary",
        "k=0 month 3: code 00 not in vocabulary",
        "k=0 month 11: code 00 not in vocabulary",
        "k=1 month 6: code 00 not in vocabulary",
        "k=2 month 9: code 00 not in vocabulary",
    )),
    ("rotate_code", lambda real: lambda code: code if code == ZERO_CODE else real(code), 12, (
        "k=0 month 2: rotation mismatch",
        "k=0 month 3: rotation mismatch",
        "k=0 month 11: rotation mismatch",
        "k=1 month 6: rotation mismatch",
        "k=2 month 9: rotation mismatch",
    )),
    # A classifier that never answers 6 misses one round trip.
    ("classify", lambda real: lambda days: min(real(days), 5), 1, ("k=6: classify round trip",)),
], ids=["zero-month-count", "vocabulary", "rotation", "classify"])
def test_anchor_system_check_catches_a_non_optimal_system(
    monkeypatch, name, fake, failures, examples
):
    monkeypatch.setattr(verify, name, fake(getattr(verify, name)))
    result = check(verify.verify_range(2000, 2000), "anchor-systems")
    assert (result.cases, result.failures) == (2751, failures)
    assert result.examples == examples
