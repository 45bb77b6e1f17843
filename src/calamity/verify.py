"""Self-verification sweeps shared by the CLI and the test suite.

Each check returns a result with a case count and the first few
counterexamples. The differential sweep is the headline check: four
independent computations of every weekday in the range must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conway import doomsday_date, weekday_standard, year_offset_arithmetic
from .core import CYCLE_YEARS, _check_range, iter_dates, month_length, oracle_weekday
from .doomyears import MAX_DISTANCE, anchor_years, doomyear, nearest_anchor, year_offset_doomyear
from .method import weekday_calamity, weekday_calamity_backward
from .systems import classify, month_groupings, rotate_code, system, zero_month_count
from .vector import code_vocabulary, gaps, square_knot_backward, square_knot_forward, vector_code

#: Counterexamples kept per check.
MAX_EXAMPLES = 5


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    cases: int
    failure_count: int
    examples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.failure_count == 0


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

    def result(self, name: str) -> CheckResult:
        return CheckResult(name, self.cases, self.failures, tuple(self.examples))


def _per_date_checks(
    start_year: int, end_year: int, diff: _Recorder | None, anchored: _Recorder | None
) -> None:
    """Walk the range once for ``diff`` (all four routes) and ``anchored`` (the seven systems).

    ``None`` skips a side. The systems run over the first 400 years, which
    exercise every century class, year, and month shape. Cases are counted
    per span; a counterexample is formatted only on failure.
    """
    _check_range(start_year, end_year)
    cycle_end = min(end_year, start_year + CYCLE_YEARS - 1)
    spans = [(start_year, cycle_end, anchored)]
    if diff is not None and cycle_end < end_year:
        spans.append((cycle_end + 1, end_year, None))
    if anchored is not None:
        _anchor_system_structure(anchored)
    systems = [system(k) for k in range(7)]
    for first, last, systems_rec in spans:
        dates = 0
        for date in iter_dates(first, last):
            dates += 1
            o = oracle_weekday(date)
            if diff is not None:
                s = weekday_standard(date)
                f = weekday_calamity(date)
                b = weekday_calamity_backward(date)
                if not o == s == f == b:
                    template = "{}: oracle={:d} standard={:d} forward={:d} backward={:d}"
                    diff.fail(template, date, o, s, f, b)
            if systems_rec is not None:
                for sys_k in systems:
                    if sys_k.weekday(date) != o:
                        systems_rec.fail("k={} {}: system weekday != oracle", sys_k.k, date)
        if diff is not None:
            diff.cases += dates
        if systems_rec is not None:
            systems_rec.cases += len(systems) * dates


def differential_sweep(start_year: int, end_year: int) -> CheckResult:
    """Oracle, arithmetic, and both table directions must agree on every date."""
    rec = _Recorder()
    _per_date_checks(start_year, end_year, rec, None)
    return rec.result("differential")


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
        zero_months = zero_month_count(k)
        expected_zero = len(grouping.get((7 - k) % 7, frozenset()))
        rec.case(zero_months == expected_zero, "k={}: zero-month count {}", k, zero_months)
        rec.case(
            zero_months == 3 if k == 0 else zero_months <= 2,
            "k={}: zero-month optimality violated ({})", k, zero_months,
        )


def anchor_system_check(start_year: int, end_year: int) -> CheckResult:
    """Structure of all seven systems, plus agreement with the oracle over the first 400 years."""
    rec = _Recorder()
    _per_date_checks(start_year, end_year, None, rec)
    return rec.result("anchor-systems")


def verify_range(start_year: int, end_year: int) -> VerificationSummary:
    """Run every check over the year range; one walk feeds both per-date checks."""
    diff, anchored = _Recorder(), _Recorder()
    _per_date_checks(start_year, end_year, diff, anchored)
    tables = (month_code_check(), square_knot_check(), year_table_check(), year_offset_check())
    checks = (diff.result("differential"), *tables, anchored.result("anchor-systems"))
    return VerificationSummary(start_year, end_year, diff.cases, checks)
