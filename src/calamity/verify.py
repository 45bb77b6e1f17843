"""Self-verification sweeps shared by the CLI and the test suite.

Each check returns a result with a case count and the first few
counterexamples. The differential sweep is the headline check: four
independent computations of every weekday in the range must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _shares
from .conway import doomsday_date, weekday_standard, year_offset_arithmetic
from .core import (
    CYCLE_YEARS,
    _check_range,
    _days_in_years,
    iter_dates,
    month_length,
    oracle_weekday,
)
from .doomyears import MAX_DISTANCE, anchor_years, doomyear, nearest_anchor, year_offset_doomyear
from .method import weekday_calamity, weekday_calamity_backward
from .systems import classify, month_groupings, rotate_code, system, zero_month_count
from .vector import code_vocabulary, gaps, square_knot_backward, square_knot_forward, vector_code

#: Counterexamples kept per check.
MAX_EXAMPLES = 5
#: Fewest years in a share of the walk: about where a fork starts to pay.
#: In fresh interpreters on 2 CPUs (Python 3.11.7), two workers walked
#: 75 years at x0.99 the speed of one, 100 years at x1.08-1.24 and 200
#: years at x1.78 (BENCH_20.json).
MIN_SHARE_YEARS = 50


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    cases: int
    failures: int
    examples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerificationSummary:
    """All check results for one verification run."""

    start_year: int
    end_year: int
    dates_tested: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


class _Recorder:
    """Collects failures, keeping only the first few as examples."""

    __slots__ = ("cases", "failures", "examples")

    def __init__(self) -> None:
        self.cases = 0
        self.failures = 0
        self.examples: list[str] = []

    def case(self, ok: bool, template: str, *values: object) -> None:
        """Count one case; a kept counterexample is ``template.format(*values)``."""
        self.cases += 1
        if not ok:
            self.fail(template, *values)

    def fail(self, template: str, *values: object) -> None:
        """Count one failure of a case counted elsewhere, keeping its text while there is room."""
        self.failures += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(template.format(*values))

    def merge(self, state: tuple[int, int, list[str]]) -> None:
        """Add a later share's ``(cases, failures, examples)``, examples while there is room."""
        cases, failures, examples = state
        self.cases += cases
        self.failures += failures
        self.examples += examples[: MAX_EXAMPLES - len(self.examples)]

    def result(self, name: str) -> CheckResult:
        return CheckResult(name, self.cases, self.failures, tuple(self.examples))


#: Each weekday's successor, by the weekday's number.
_NEXT_DAY = (*range(1, 7), 0)
#: A calendar failure: a date, the date walked before it, its oracle
#: weekday, and the one after the earlier date's.
_STEP = "{} after {}: oracle={:d} expected={:d}"


def _walk(first: int, last: int, systems: bool) -> list:
    """Check each date of ``first..last`` with the four routes, and the seven systems if asked.

    Returns the differential, anchor-systems and calendar sides'
    ``(cases, failures, examples)``, then the walk's ends for the caller
    to join to its neighbours': ``(first date, its oracle weekday, last
    date, the weekday due after it)``, or None when no date was walked.
    """
    diff, anchored, calendar = _Recorder(), _Recorder(), _Recorder()
    checked = [system(k) for k in range(7)] if systems else []
    dates = 0
    head = previous = None
    following = -1  # no weekday: the first date starts the walk
    for date in iter_dates(first, last):
        dates += 1
        o = oracle_weekday(date)
        if o != following:
            if previous is None:
                head, head_weekday = date, int(o)
            else:
                calendar.fail(_STEP, date, previous, o, following)
        following = _NEXT_DAY[o]
        previous = date
        s = weekday_standard(date)
        f = weekday_calamity(date)
        b = weekday_calamity_backward(date)
        if not o == s == f == b:
            template = "{}: oracle={:d} standard={:d} forward={:d} backward={:d}"
            diff.fail(template, date, o, s, f, b)
        for sys_k in checked:
            if sys_k.weekday(date) != o:
                anchored.fail("k={} {}: system weekday != oracle", sys_k.k, date)
    diff.cases = dates
    anchored.cases = len(checked) * dates
    calendar.cases = max(dates - 1, 0)
    ends = None if head is None else (str(head), head_weekday, str(previous), following)
    return [(rec.cases, rec.failures, rec.examples) for rec in (diff, anchored, calendar)] + [ends]


def _per_date_checks(start_year: int, end_year: int) -> tuple[_Recorder, _Recorder, _Recorder]:
    """Walk the range once; returns the differential, anchor-systems and calendar recorders.

    After the systems' structure cases, the first 400 years, which hold
    every century class, year and month shape, are walked with the four
    routes and the seven systems, the rest with the routes alone.
    ``_shares`` walks each span in contiguous year shares at once, one
    per worker and each of at least ``MIN_SHARE_YEARS``, merged in date
    order, so the result is one walk's. The calendar check joins each
    share to the one before it, as one walk steps from day to day, and
    pins the walk's first date, last date and count to the range's.
    """
    _check_range(start_year, end_year)
    diff, anchored, calendar = _Recorder(), _Recorder(), _Recorder()
    _anchor_system_structure(anchored)
    cycle_end = min(end_year, start_year + CYCLE_YEARS - 1)
    spans = [(start_year, cycle_end, True)]
    if cycle_end < end_year:
        spans.append((cycle_end + 1, end_year, False))
    head = tail = due = None  # the first date walked, the last so far and the weekday due after it
    for first, last, systems in spans:
        for *states, ends in _shares.run("verify", _walk, first, last, MIN_SHARE_YEARS, systems):
            if ends is not None:
                date, weekday, last_date, following = ends
                if head is None:
                    head = date
                else:
                    calendar.case(weekday == due, _STEP, date, tail, weekday, due)
                tail, due = last_date, following
            for rec, state in zip((diff, anchored, calendar), states):
                rec.merge(state)
    walked = diff.cases, head, tail
    expected = _days_in_years(start_year, end_year), f"{start_year}-01-01", f"{end_year}-12-31"
    template = "{} dates walked, {}..{}; the leap rule gives {}, {}..{}"
    calendar.case(walked == expected, template, *walked, *expected)
    return diff, anchored, calendar


def differential_sweep(start_year: int, end_year: int) -> CheckResult:
    """The differential check of ``verify_range``'s walk: the four routes agree on every date.

    Kept for perfbench's per-layer timing alone; the benchmark change
    that replaces ``verify.differential_sweep_s`` deletes it.
    """
    return _per_date_checks(start_year, end_year)[0].result("differential")


def month_code_check() -> CheckResult:
    """Codes must come from the anchor date's gaps and stay in the vocabulary."""
    rec = _Recorder()
    vocabulary = code_vocabulary()
    for leap in (False, True):
        for month in range(1, 13):
            code = vector_code(month, leap)
            pair = gaps(doomsday_date(month, leap))
            derived = code.tens == pair.backward and code.units == pair.forward
            rec.case(
                derived and code in vocabulary,
                "month {} leap={}: code {} vs gaps {}", month, leap, code, pair,
            )
    return rec.result("month-codes")


def square_knot_check() -> CheckResult:
    """Both crossing rules must equal the plain subtraction for every day."""
    rec = _Recorder()
    for leap, sample_year in ((False, 1999), (True, 2000)):
        for month in range(1, 13):
            anchor_day = doomsday_date(month, leap)
            code = vector_code(month, leap)
            for day in range(1, month_length(sample_year, month) + 1):
                forward_ok = square_knot_forward(day, code) == (day - anchor_day) % 7
                backward_ok = square_knot_backward(day, code) == (anchor_day - day) % 7
                rec.case(forward_ok and backward_ok, "month {} leap={} day {}", month, leap, day)
    return rec.result("square-knot")


def year_table_check() -> CheckResult:
    """Table digits must match the offset formula in both directions."""
    rec = _Recorder()
    for distance in range(MAX_DISTANCE + 1):
        row = doomyear(distance)
        packed = row.packed
        rec.case(
            row.forward_digit == year_offset_arithmetic(distance)
            and row.backward_digit == year_offset_arithmetic(28 - distance)
            and packed.F == 10 * distance + row.forward_digit
            and packed.B == 10 * distance + row.backward_digit
            and packed.D == 100 * distance + 10 * row.backward_digit + row.forward_digit,
            "distance {}", distance,
        )
    return rec.result("year-table")


def year_offset_check() -> CheckResult:
    """Navigation must reproduce the arithmetic offset for every two-digit year."""
    rec = _Recorder()
    for yy in range(100):
        nav = nearest_anchor(yy)
        rec.case(
            nav.distance <= MAX_DISTANCE
            and year_offset_doomyear(yy) == year_offset_arithmetic(yy),
            "yy={:02d}: nav={}", yy, nav,
        )
    for anchor in anchor_years():
        rec.case(year_offset_arithmetic(anchor) == 0, "anchor {} has nonzero offset", anchor)
    for y in range(72):
        rec.case(
            year_offset_arithmetic(y + 28) == year_offset_arithmetic(y),
            "period break at {}", y,
        )
    return rec.result("year-offset")


def _anchor_system_structure(rec: _Recorder) -> None:
    """Codes, rotation, classification and zero months of all seven systems."""
    vocabulary = code_vocabulary()
    grouping = month_groupings()
    for k in range(7):
        sys_k = system(k)
        rotated = system((k + 1) % 7)
        for month in range(1, 13):
            code = sys_k.codes[month - 1]
            rec.case(
                code in vocabulary,
                "k={} month {}: code {} not in vocabulary", k, month, code,
            )
            rec.case(
                rotate_code(code) == rotated.codes[month - 1],
                "k={} month {}: rotation mismatch", k, month,
            )
        days = [(month, 7 if r == 0 else r) for month, r in enumerate(sys_k.residues, start=1)]
        rec.case(classify(days) == k, "k={}: classify round trip", k)
        count = zero_month_count(k)
        zeros = {month for month, r in enumerate(sys_k.residues, start=1) if r == 0}
        expected = grouping.get((7 - k) % 7, frozenset())
        rec.case(zeros == expected and count == len(zeros), "k={}: zero-month count {}", k, count)
        rec.case(
            count == 3 if k == 0 else count <= 2,
            "k={}: zero-month optimality violated ({})", k, count,
        )


def anchor_system_check(start_year: int, end_year: int) -> CheckResult:
    """The anchor-systems check of ``verify_range``'s walk: structure, and the first 400 years.

    Kept for perfbench's per-layer timing alone; the benchmark change
    that replaces ``verify.anchor_system_check_s`` deletes it.
    """
    return _per_date_checks(start_year, end_year)[1].result("anchor-systems")


def verify_range(start_year: int, end_year: int) -> VerificationSummary:
    """Run every check over the year range; one walk feeds the three per-date checks."""
    diff, anchored, calendar = _per_date_checks(start_year, end_year)
    tables = (month_code_check(), square_knot_check(), year_table_check(), year_offset_check())
    checks = (
        diff.result("differential"),
        *tables,
        anchored.result("anchor-systems"),
        calendar.result("calendar"),
    )
    return VerificationSummary(start_year, end_year, diff.cases, checks)
