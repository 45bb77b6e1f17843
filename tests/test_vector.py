"""Gap arithmetic, the two-digit month codes, and the square knot rule."""

import pytest
from hypothesis import given, strategies as st

from calamity.conway import DOOMSDAY_DATES, doomsday_date
from calamity.core import month_length
from calamity.vector import (
    GapPair,
    VectorCode,
    code_vocabulary,
    gaps,
    square_knot_backward,
    square_knot_forward,
    vector_code,
)

# Codes for Jan..Dec in a common year, leap overrides after.
COMMON_CODES = (43, 0, 0, 34, 52, 16, 34, 61, 25, 43, 0, 25)
LEAP_CODES = {1: 34, 2: 61}

VOCABULARY = {0, 16, 25, 34, 43, 52, 61}


def test_gaps_hand_picked():
    assert gaps(7) == GapPair(0, 0)
    assert gaps(28) == GapPair(0, 0)
    assert gaps(3) == GapPair(3, 4)
    assert gaps(30) == GapPair(2, 5)
    assert gaps(1) == GapPair(1, 6)
    assert gaps(31) == GapPair(3, 4)


def test_gaps_above_28_use_the_extra_anchor():
    # 29..31 measure their backward gap against 35.
    assert [gaps(t).backward for t in (29, 30, 31)] == [6, 5, 4]


def test_gaps_rejects_out_of_range():
    with pytest.raises(ValueError):
        gaps(0)
    with pytest.raises(ValueError):
        gaps(32)


@given(st.integers(1, 31))
def test_gap_pair_invariant(t):
    pair = gaps(t)
    if t % 7 == 0:
        assert pair == GapPair(0, 0)
    else:
        assert pair.forward + pair.backward == 7
        assert pair.forward == t % 7


def test_gap_pair_rejects_bad_combination():
    with pytest.raises(ValueError):
        GapPair(2, 4)
    with pytest.raises(ValueError):
        GapPair(0, 7)
    with pytest.raises(ValueError):
        GapPair(7, 0)


def test_vector_code_digit_invariant():
    with pytest.raises(ValueError):
        VectorCode(1, 5)
    with pytest.raises(ValueError):
        VectorCode(0, 7)
    with pytest.raises(ValueError):
        VectorCode(7, 0)
    assert VectorCode(0, 0).value == 0
    assert VectorCode(2, 5).value == 25


def test_vector_code_rendering():
    assert str(VectorCode(0, 0)) == "00"
    assert str(VectorCode(6, 1)) == "61"


def test_month_codes_common_year():
    assert tuple(vector_code(m).value for m in range(1, 13)) == COMMON_CODES
    for month in (0, 13):
        with pytest.raises(ValueError):
            vector_code(month)


def test_month_codes_leap_overrides():
    assert vector_code(1, leap=True).value == LEAP_CODES[1]
    assert vector_code(2, leap=True).value == LEAP_CODES[2]
    for month in range(3, 13):
        assert vector_code(month, leap=True) == vector_code(month)


@pytest.mark.parametrize("leap", [0, 1, 2, None])
def test_vector_code_takes_leap_by_truthiness(leap):
    # As doomsday_date and AnchorSystem.code do.
    for month in range(1, 13):
        assert vector_code(month, leap) == vector_code(month, bool(leap))


def test_code_comes_from_anchor_gaps():
    for leap in (False, True):
        for month in range(1, 13):
            pair = gaps(doomsday_date(month, leap))
            code = vector_code(month, leap)
            assert (code.tens, code.units) == (pair.backward, pair.forward)


def test_vocabulary():
    assert {code.value for code in code_vocabulary()} == VOCABULARY
    assert vector_code(8) in code_vocabulary()
    for code in code_vocabulary():
        digits = (code.tens, code.units)
        assert digits == (0, 0) or sum(digits) == 7


def test_vocabulary_has_both_orientations_of_each_pair():
    nonzero = {(c.tens, c.units) for c in code_vocabulary()} - {(0, 0)}
    assert nonzero == {(1, 6), (6, 1), (2, 5), (5, 2), (3, 4), (4, 3)}


def test_square_knot_worked_example():
    dec = vector_code(12)
    assert square_knot_forward(25, dec) == 6
    assert square_knot_backward(25, dec) == 1
    assert square_knot_forward(8, vector_code(3)) == 1
    assert square_knot_backward(1, vector_code(11)) == 6


def test_square_knot_exhaustive():
    """Both directions reduce to the plain signed subtraction, every day."""
    for leap, year in ((False, 2023), (True, 2024)):
        for month in range(1, 13):
            anchor = doomsday_date(month, leap)
            code = vector_code(month, leap)
            for day in range(1, month_length(year, month) + 1):
                assert square_knot_forward(day, code) == (day - anchor) % 7
                assert square_knot_backward(day, code) == (anchor - day) % 7


def test_square_knot_self_consistency():
    # A month's own anchor day must come out at offset zero both ways.
    for leap in (False, True):
        for month in range(1, 13):
            anchor = doomsday_date(month, leap)
            code = vector_code(month, leap)
            assert square_knot_forward(anchor, code) == 0
            assert square_knot_backward(anchor, code) == 0


@given(st.integers(1, 31), st.sampled_from(sorted(VOCABULARY)))
def test_square_knot_directions_cancel(day, value):
    code = VectorCode(value // 10, value % 10)
    total = square_knot_forward(day, code) + square_knot_backward(day, code)
    assert total % 7 == 0


def test_same_direction_addition_is_off_by_twice_the_anchor():
    # Pairing the forward gap with the forward digit lands on t + anchor,
    # not t - anchor; the error term is exactly 2 * anchor mod 7.
    for month in range(1, 13):
        anchor = DOOMSDAY_DATES[month - 1]
        code = vector_code(month)
        for day in range(1, 29):
            wrong = (gaps(day).forward + code.units) % 7
            assert wrong == (day + anchor) % 7
            assert (wrong - (day - anchor)) % 7 == (2 * anchor) % 7


def test_same_direction_subtraction_is_right():
    for month in range(1, 13):
        anchor = DOOMSDAY_DATES[month - 1]
        for day in range(1, 29):
            assert (gaps(day).forward - gaps(anchor).forward) % 7 == (day - anchor) % 7
