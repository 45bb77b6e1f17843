"""Checked at the edge, unchecked in the routes.

Every public scalar function takes an exact ``int`` in its range and
then calls an unchecked private form in its own module. The per-date
routes, the traces and ``AnchorSystem.weekday`` call those private forms
on a ``Date``'s fields, which the ``Date`` has already bounded, and never
the checked public ones.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from calamity import conway, core, doomyears, method, metrics, systems, vector, verify
from calamity.core import MAX_YEAR, MIN_YEAR, Date, Direction, iter_dates
from calamity.method import AUTO, weekday_calamity_traced

_CODE = vector.vector_code(3)
_SYSTEM = systems.system(3)

#: Each public scalar function: a name, the function, a valid call's
#: arguments, and per integer argument its position, its name in the
#: errors and its range.
PUBLIC = [
    ("is_leap", core.is_leap, (2000,), [(0, "year", MIN_YEAR, MAX_YEAR)]),
    ("month_length", core.month_length, (2000, 2),
     [(0, "year", MIN_YEAR, MAX_YEAR), (1, "month", 1, 12)]),
    ("century_anchor", conway.century_anchor, (2000,), [(0, "year", MIN_YEAR, MAX_YEAR)]),
    ("AnchorSystem.century_anchor", _SYSTEM.century_anchor, (2000,),
     [(0, "year", MIN_YEAR, MAX_YEAR)]),
    ("AnchorSystem.code", _SYSTEM.code, (2, True), [(0, "month", 1, 12)]),
    ("year_offset_arithmetic", conway.year_offset_arithmetic, (5,),
     [(0, "two-digit year", 0, 99)]),
    ("doomsday_date", conway.doomsday_date, (2, True), [(0, "month", 1, 12)]),
    ("gaps", vector.gaps, (13,), [(0, "day", 1, 31)]),
    ("vector_code", vector.vector_code, (2, True), [(0, "month", 1, 12)]),
    ("square_knot_forward", vector.square_knot_forward, (13, _CODE), [(0, "day", 1, 31)]),
    ("square_knot_backward", vector.square_knot_backward, (13, _CODE), [(0, "day", 1, 31)]),
    ("doomyear", doomyears.doomyear, (5,), [(0, "distance", 0, doomyears.MAX_DISTANCE)]),
    ("year_step", doomyears.year_step, (5,), [(0, "two-digit year", 0, 99)]),
    ("nearest_anchor", doomyears.nearest_anchor, (5,), [(0, "two-digit year", 0, 99)]),
    ("year_offset_doomyear", doomyears.year_offset_doomyear, (5,),
     [(0, "two-digit year", 0, 99)]),
]
_IDS = [name for name, *_ in PUBLIC]

#: Integer arguments that are not exact ints, some equal to one in range.
non_ints = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=4), st.none(), st.fractions()
)


#: Leap flags of any type, truthy and falsy.
_ANY_FLAG = st.one_of(st.integers(), st.text(max_size=2), st.none(), st.lists(st.none()))


def _with(args, position, value):
    return (*args[:position], value, *args[position + 1:])


@given(st.sampled_from(PUBLIC), st.data())
def test_a_public_scalar_function_rejects_any_non_int(case, data):
    _, function, args, integers = case
    position, what, _, _ = data.draw(st.sampled_from(integers))
    value = data.draw(non_ints)
    with pytest.raises(TypeError) as raised:
        function(*_with(args, position, value))
    assert str(raised.value) == f"{what} must be int, got {value!r}"


@pytest.mark.parametrize("value", [5.0, True, "5", None, Fraction(5)])
def test_an_int_valued_stand_in_is_rejected_by_every_public_scalar_function(value):
    # Each of these compares equal to an int, or indexes a table as one.
    for name, function, args, integers in PUBLIC:
        for position, *_ in integers:
            with pytest.raises(TypeError):
                function(*_with(args, position, value))


@pytest.mark.parametrize("name, function, args, integers", PUBLIC, ids=_IDS)
def test_the_out_of_range_texts_are_unchanged(name, function, args, integers):
    for position, what, low, high in integers:
        span = "supported range " if what == "year" else ""
        for bad in (low - 1, high + 1):
            with pytest.raises(ValueError) as raised:
                function(*_with(args, position, bad))
            assert str(raised.value) == f"{what} {bad} outside {span}{low}..{high}"


@given(st.integers(1, 12), _ANY_FLAG)
def test_a_leap_flag_is_read_for_its_truth(month, leap):
    # Settled choice: a leap flag is a flag, so any object goes by bool().
    flag = bool(leap)
    assert vector.vector_code(month, leap) is vector.vector_code(month, flag)
    assert conway.doomsday_date(month, leap) == conway.doomsday_date(month, flag)
    assert _SYSTEM.code(month, leap) is _SYSTEM.code(month, flag)


def test_vector_code_reads_leap_1_as_a_leap_year():
    assert vector.vector_code(1, leap=1) is vector.vector_code(1, leap=True)
    assert vector.vector_code(1, leap=1) != vector.vector_code(1, leap=False)


def _called(run, *args):
    """The code objects of every Python function ``run(*args)`` calls."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run(*args)
    finally:
        sys.setprofile(None)
    return seen


_PUBLIC_CODES = {function.__code__ for _, function, _, _ in PUBLIC}


def _trace_a_year():
    first = Date(2000, 1, 1)
    traced = (metrics.trace_standard(first), metrics.trace_calamity(first))
    signatures = [[event.kind for event in events] for events in traced]
    metrics._trace_share(2000, 2000, signatures, 2000)


def _trace_every_direction():
    for date in iter_dates(2000, 2000):
        for direction in (Direction.FORWARD, Direction.BACKWARD, AUTO):
            weekday_calamity_traced(date, direction)


@pytest.mark.parametrize(
    "run, reached",
    [
        pytest.param(
            lambda: verify._walk(2000, 2000, True),
            (vector._square_knot_forward, vector._square_knot_backward, conway._doomsday_date),
            id="verify-walk",
        ),
        pytest.param(
            _trace_a_year, (conway._doomsday_date, doomyears._year_step), id="metrics-share",
        ),
        pytest.param(
            _trace_every_direction,
            (vector._gaps, vector._vector_code, doomyears._year_step),
            id="traced-routes",
        ),
    ],
)
def test_the_per_date_paths_call_no_public_checked_form(run, reached):
    called = _called(run)
    assert {function.__code__ for function in reached} <= called
    assert not called & _PUBLIC_CODES


#: Each public form with its private form and the arguments over the whole valid domain.
_VOCABULARY = sorted(vector.code_vocabulary(), key=str)
PAIRS = [
    (core.is_leap, core._is_leap, [(y,) for y in range(MIN_YEAR, MAX_YEAR + 1)]),
    (core.month_length, core._month_length,
     [(y, m) for y in range(MIN_YEAR, MAX_YEAR + 1) for m in range(1, 13)]),
    (conway.century_anchor, conway._century_anchor, [(y,) for y in range(MIN_YEAR, MAX_YEAR + 1)]),
    (conway.year_offset_arithmetic, conway._year_offset_arithmetic, [(yy,) for yy in range(100)]),
    (conway.doomsday_date, conway._doomsday_date,
     [(m, leap) for m in range(1, 13) for leap in (False, True)]),
    (vector.gaps, vector._gaps, [(day,) for day in range(1, 32)]),
    (vector.vector_code, vector._vector_code,
     [(m, leap) for m in range(1, 13) for leap in (False, True)]),
    (vector.square_knot_forward, vector._square_knot_forward,
     [(day, code) for day in range(1, 32) for code in _VOCABULARY]),
    (vector.square_knot_backward, vector._square_knot_backward,
     [(day, code) for day in range(1, 32) for code in _VOCABULARY]),
    (doomyears.year_step, doomyears._year_step, [(yy,) for yy in range(100)]),
    (doomyears.year_offset_doomyear, doomyears._year_offset_doomyear, [(yy,) for yy in range(100)]),
]


@pytest.mark.parametrize(
    "public, private, domain", PAIRS, ids=[public.__name__ for public, _, _ in PAIRS]
)
def test_the_public_form_runs_its_private_form(public, private, domain):
    assert [public(*args) for args in domain] == [private(*args) for args in domain]
    assert private.__code__ in _called(public, *domain[0])


@pytest.mark.parametrize(
    "route_module, name, owner",
    [
        (conway, "_is_leap", core),
        (method, "_is_leap", core),
        (systems, "_is_leap", core),
        (metrics, "_is_leap", core),
        (method, "_century_anchor", conway),
        (metrics, "_century_anchor", conway),
        (metrics, "_doomsday_date", conway),
        (method, "_year_step", doomyears),
        (method, "_year_offset_doomyear", doomyears),
        (systems, "_year_offset_doomyear", doomyears),
        (method, "_gaps", vector),
        (method, "_vector_code", vector),
        (method, "_square_knot_forward", vector),
        (method, "_square_knot_backward", vector),
        (systems, "_square_knot_forward", vector),
    ],
)
def test_a_route_binds_its_owners_private_form(route_module, name, owner):
    # A fault in the owner's form reaches both the route and verify's
    # table check, which runs the public form over it.
    assert getattr(route_module, name) is getattr(owner, name)
