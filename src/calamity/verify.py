"""Self-verification sweeps shared by the CLI and the test suite.

Each check returns a result with a case count and the first few
counterexamples. The differential sweep is the headline check: four
independent computations of every weekday in the range must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conway import (
    doomsday_date,
    weekday_standard,
    year_offset_arithmetic,
)
from .core import CYCLE_YEARS, _check_year, iter_dates, month_length, oracle_weekday
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
    def failure_count(self) -> int:
        return sum(check.failure_count for check in self.checks)

    @property
    def ok(self) -> bool:
        return self.failure_count == 0


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
            self.failures += 1
            if len(self.examples) < MAX_EXAMPLES:
                self.examples.append(template.format(*values))

    def result(self, name: str) -> CheckResult:
        return CheckResult(name, self.cases, self.failures, tuple(self.examples))


def differential_sweep(start_year: int, end_year: int) -> CheckResult:
    """Oracle, arithmetic, and both table directions must agree on every date."""
    rec = _Recorder()
    for date in iter_dates(start_year, end_year):
        o = oracle_weekday(date)
        s = weekday_standard(date)
        f = weekday_calamity(date)
        b = weekday_calamity_backward(date)
        rec.case(
            o == s == f == b,
            "{}: oracle={:d} standard={:d} forward={:d} backward={:d}", date, o, s, f, b,
        )
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


def _representative_dates(k: int) -> list[tuple[int, int]]:
    residues = system(k).residues
    return [(month, 7 if residues[month - 1] == 0 else residues[month - 1]) for month in range(1, 13)]


def anchor_system_check(start_year: int, end_year: int) -> CheckResult:
    """Structure of all seven systems, plus end-to-end agreement with the oracle.

    The end-to-end sweep is capped at the first 400 years of the range,
    which already exercises every century class, year, and month shape.
    """
    for year in (start_year, end_year):  # the sweep below stops after one cycle
        _check_year(year)
    rec = _Recorder()
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
        rec.case(classify(_representative_dates(k)) == k, "k={}: classify round trip", k)
        zero_months = zero_month_count(k)
        expected_zero = len(grouping.get((7 - k) % 7, frozenset()))
        rec.case(zero_months == expected_zero, "k={}: zero-month count {}", k, zero_months)
        rec.case(
            zero_months == 3 if k == 0 else zero_months <= 2,
            "k={}: zero-month optimality violated ({})", k, zero_months,
        )

    sweep_end = min(end_year, start_year + CYCLE_YEARS - 1)
    systems = [system(k) for k in range(7)]
    for date in iter_dates(start_year, sweep_end):
        expected = oracle_weekday(date)
        for sys_k in systems:
            rec.case(
                sys_k.weekday(date) == expected,
                "k={} {}: system weekday != oracle", sys_k.k, date,
            )
    return rec.result("anchor-systems")


def verify_range(start_year: int, end_year: int) -> VerificationSummary:
    """Run every check over the year range."""
    diff = differential_sweep(start_year, end_year)
    checks = (
        diff,
        month_code_check(),
        square_knot_check(),
        year_table_check(),
        year_offset_check(),
        anchor_system_check(start_year, end_year),
    )
    return VerificationSummary(
        start_year=start_year,
        end_year=end_year,
        dates_tested=diff.cases,
        checks=checks,
    )
