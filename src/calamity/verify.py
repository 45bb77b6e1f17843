"""Self-verification sweeps shared by the CLI and the test suite.

Each check returns a result with a case count and the first few
counterexamples. The differential sweep is the headline check: four
independent computations of every weekday in the range must agree.
"""

from __future__ import annotations

import _thread
import contextlib
import marshal
import os
from dataclasses import dataclass

from .conway import doomsday_date, weekday_standard, year_offset_arithmetic
from .core import CYCLE_YEARS, _check_range, iter_dates, month_length, oracle_weekday
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


def _walk(first: int, last: int, routes: bool, systems: bool) -> list[tuple[int, int, list[str]]]:
    """Check each date of ``first..last``; returns each side's ``(cases, failures, examples)``."""
    diff, anchored = _Recorder(), _Recorder()
    checked = [system(k) for k in range(7)] if systems else []
    dates = 0
    for date in iter_dates(first, last):
        dates += 1
        o = oracle_weekday(date)
        if routes:
            s = weekday_standard(date)
            f = weekday_calamity(date)
            b = weekday_calamity_backward(date)
            if not o == s == f == b:
                template = "{}: oracle={:d} standard={:d} forward={:d} backward={:d}"
                diff.fail(template, date, o, s, f, b)
        for sys_k in checked:
            if sys_k.weekday(date) != o:
                anchored.fail("k={} {}: system weekday != oracle", sys_k.k, date)
    if routes:
        diff.cases = dates
    anchored.cases = len(checked) * dates
    return [(rec.cases, rec.failures, rec.examples) for rec in (diff, anchored)]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count() -> int:
    """One walker per CPU.

    One where there is no ``os.fork``, or while other threads run: a
    forked child would hold a copy of every lock they hold. ``_thread``
    counts them without importing ``threading``.
    """
    if not hasattr(os, "fork") or _thread._count():
        return 1
    return _cpu_count()


def _per_date_checks(
    start_year: int, end_year: int, routes: bool, systems: bool
) -> tuple[_Recorder, _Recorder]:
    """Walk the range once; returns the differential and anchor-systems recorders.

    The systems walk the first 400 years, which hold every century class,
    year and month shape. Each span is cut into contiguous year shares,
    one per worker and each of at least ``MIN_SHARE_YEARS``, walked at
    once and merged in date order, so the result is one walk's.
    """
    _check_range(start_year, end_year)
    diff, anchored = _Recorder(), _Recorder()
    cycle_end = min(end_year, start_year + CYCLE_YEARS - 1)
    spans = [(start_year, cycle_end, systems)]
    if routes and cycle_end < end_year:
        spans.append((cycle_end + 1, end_year, False))
    if systems:
        _anchor_system_structure(anchored)
    workers = _worker_count()
    for first, last, span_systems in spans:
        shares = max(1, min(workers, (last - first + 1) // MIN_SHARE_YEARS))
        bounds = [first + (last - first + 1) * i // shares for i in range(shares + 1)]
        walks = [(a, b - 1, routes, span_systems) for a, b in zip(bounds, bounds[1:])]
        for states in _walk_shares(walks):
            for rec, state in zip((diff, anchored), states):
                rec.merge(state)
    return diff, anchored


def _walk_shares(shares: list[tuple]) -> list[list]:
    """Run ``_walk(first, last, routes, systems)`` per share; return their states in order.

    This process walks the first share; each other share runs in a forked
    child, which sends the state back marshalled over a pipe, or the
    exception it raised pickled. The first exception in share order is
    raised here, and no child outlives the call. A share whose child
    cannot be started is walked here.
    """
    children: list[tuple[int, int] | None] = []
    reaped = set()
    try:
        for share in shares[1:]:
            children.append(_fork_walk(share))
        walked = [_walk(*shares[0])]
        for share, child in zip(shares[1:], children):
            if child is None:
                walked.append(_walk(*share))
                continue
            pid, fd = child
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            worker = f"verify worker for years {share[0]}..{share[1]}"
            if code < 0:
                import signal

                name = next((s.name for s in signal.Signals if s == -code), str(-code))
                raise RuntimeError(f"{worker} killed by signal {name}")
            if not data:
                raise RuntimeError(f"{worker} sent no result")
            if code:
                import pickle

                raise pickle.loads(data)
            walked.append(marshal.loads(data))
        return walked
    finally:
        for pid, fd in filter(None, children):
            os.close(fd)
            if pid not in reaped:
                import signal

                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _fork_walk(share: tuple) -> tuple[int, int] | None:
    """Start ``_walk(*share)`` in a forked child; returns its pid and the read end of its pipe.

    Returns ``None`` when no pipe or child can be had. The child exits 0
    after sending the marshalled state, 1 after sending its exception
    pickled. It never returns: it ends with ``os._exit``, so it flushes
    none of the stdio buffers it inherited and runs none of its caller's
    cleanup.
    """
    fds: tuple[int, ...] = ()
    try:
        fds = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 0
    try:
        os.close(read_end)
        try:
            payload = marshal.dumps(_walk(*share))
        except BaseException as exc:  # raised again in the parent
            import pickle

            code = 1
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(code)


def differential_sweep(start_year: int, end_year: int) -> CheckResult:
    """Oracle, arithmetic, and both table directions must agree on every date.

    Kept beside ``verify_range``'s joint walk for perfbench's per-layer timing and the tests.
    """
    return _per_date_checks(start_year, end_year, True, False)[0].result("differential")


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
    """Structure of all seven systems, plus agreement with the oracle over the first 400 years.

    Kept beside ``verify_range``'s joint walk for perfbench's per-layer timing and the tests.
    """
    return _per_date_checks(start_year, end_year, False, True)[1].result("anchor-systems")


def verify_range(start_year: int, end_year: int) -> VerificationSummary:
    """Run every check over the year range; one walk feeds both per-date checks."""
    diff, anchored = _per_date_checks(start_year, end_year, True, True)
    tables = (month_code_check(), square_knot_check(), year_table_check(), year_offset_check())
    checks = (diff.result("differential"), *tables, anchored.result("anchor-systems"))
    return VerificationSummary(start_year, end_year, diff.cases, checks)
