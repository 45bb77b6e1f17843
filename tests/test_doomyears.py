"""The navigable year table: 16 rows, packed encodings, anchor navigation."""

import pytest
from hypothesis import given, strategies as st

from calamity.conway import year_offset_arithmetic
from calamity.core import Direction
from calamity.doomyears import (
    ANCHOR_YEARS,
    MAX_DISTANCE,
    Doomyear,
    anchor_years,
    doomyear,
    nearest_anchor,
    year_offset_doomyear,
    year_step,
)

# The full packed table, one entry per distance 0..15.
PACKED_F = (0, 11, 22, 33, 45, 56, 60, 71, 83, 94, 105, 116, 121, 132, 143, 154)
PACKED_B = (0, 15, 24, 33, 42, 50, 66, 75, 84, 92, 101, 110, 126, 134, 143, 152)
PACKED_D = (
    0, 151, 242, 333, 425, 506, 660, 751, 843, 924,
    1015, 1106, 1261, 1342, 1433, 1524,
)


def test_packed_sequences():
    rows = [doomyear(d).packed for d in range(16)]
    assert tuple(r.F for r in rows) == PACKED_F
    assert tuple(r.B for r in rows) == PACKED_B
    assert tuple(r.D for r in rows) == PACKED_D


def test_single_rows():
    assert doomyear(0) == Doomyear(0, 0, 0)
    assert doomyear(5) == Doomyear(5, 0, 6)
    assert doomyear(11) == Doomyear(11, 0, 6)


def test_packed_decomposition():
    for d in range(16):
        row = doomyear(d)
        packed = row.packed
        assert divmod(packed.F, 10) == (d, row.forward_digit)
        assert divmod(packed.B, 10) == (d, row.backward_digit)
        assert packed.D == 100 * d + 10 * row.backward_digit + row.forward_digit


def test_digits_match_the_offset_formula():
    for d in range(16):
        row = doomyear(d)
        assert row.forward_digit == year_offset_arithmetic(d)
        assert row.backward_digit == year_offset_arithmetic(28 - d)


def test_doomyear_rejects_out_of_range():
    with pytest.raises(ValueError):
        doomyear(-1)
    with pytest.raises(ValueError):
        doomyear(16)


def test_anchor_years():
    assert anchor_years() == (0, 28, 56, 84)
    for anchor in anchor_years():
        assert year_offset_arithmetic(anchor) == 0


def test_28_year_periodicity():
    for y in range(72):
        assert year_offset_arithmetic(y + 28) == year_offset_arithmetic(y)


def test_leap_year_stumble():
    # Consecutive forward digits step by 1, except by 2 into each
    # multiple-of-4 distance.
    for d in range(1, 16):
        step = (doomyear(d).forward_digit - doomyear(d - 1).forward_digit) % 7
        assert step == (2 if d % 4 == 0 else 1)


def test_complementarity():
    for d in range(16):
        row = doomyear(d)
        total = (row.forward_digit + row.backward_digit) % 7
        assert total == (0 if d % 4 == 0 else 6)


def test_nearest_anchor_examples():
    assert nearest_anchor(0) == (0, 0, Direction.FORWARD)
    assert nearest_anchor(95) == (84, 11, Direction.FORWARD)
    assert nearest_anchor(27) == (28, 1, Direction.BACKWARD)
    assert nearest_anchor(99) == (84, 15, Direction.FORWARD)


def test_nearest_anchor_ties_go_forward():
    # Exactly three years sit 14 from two anchors; both digits agree
    # there, so the forward pick is safe.
    for yy in (14, 42, 70):
        anchor, distance, direction = nearest_anchor(yy)
        assert (distance, direction) == (14, Direction.FORWARD)
        assert anchor == yy - 14
    assert doomyear(14).forward_digit == doomyear(14).backward_digit


@given(st.integers(0, 99))
def test_navigation_stays_within_the_table(yy):
    anchor, distance, direction = nearest_anchor(yy)
    assert anchor in ANCHOR_YEARS
    assert 0 <= distance <= MAX_DISTANCE
    if direction is Direction.FORWARD:
        assert anchor + distance == yy
    else:
        assert anchor - distance == yy


def test_year_offset_examples():
    assert year_offset_doomyear(0) == 0
    assert year_offset_doomyear(95) == 6
    assert year_offset_doomyear(17) == 0


def test_year_offset_equivalence_exhaustive():
    for yy in range(100):
        assert year_offset_doomyear(yy) == year_offset_arithmetic(yy)


def test_year_step_extends_the_navigation():
    # Against a brute-force search, not the table both read: every year
    # steps from an anchor at the least distance, and each tie goes
    # forward from the lower anchor.
    for yy in range(100):
        step = year_step(yy)
        assert step.distance == min(abs(yy - a) for a in ANCHOR_YEARS) == abs(yy - step.anchor)
        if yy in (14, 42, 70):
            assert step[:3] == (yy - 14, 14, Direction.FORWARD)
        assert step[:3] == nearest_anchor(yy)
        assert step.digit == year_offset_doomyear(yy)


def test_year_step_rejects_out_of_range():
    for yy in (-1, 100):
        with pytest.raises(ValueError):
            year_step(yy)
        with pytest.raises(ValueError):
            year_offset_doomyear(yy)
        with pytest.raises(ValueError):
            nearest_anchor(yy)
