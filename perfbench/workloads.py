"""Seeded inputs for the calamity benchmark and the references that check its outputs.

Nothing here imports calamity. Weekdays and date counts come from the
standard library's ``datetime``; the ``metrics`` totals are the constants
the README documents. The benchmark's set-up children import this module
to time input generation, so it stays cheap to import.
"""

from __future__ import annotations

import datetime
import json
import random
from typing import Iterator

#: The default range of ``calamity verify`` and ``calamity metrics``.
SWEEP_START = 1583
SWEEP_END = 2599

#: Query dates are drawn uniformly from every supported day.
FIRST_ORDINAL = datetime.date(1583, 1, 1).toordinal()
LAST_ORDINAL = datetime.date(9999, 12, 31).toordinal()

WEEKDAY_NAMES = ("Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday")

# Query mix, packed into one small int per query:
# bits 0-1 method, bits 2-3 direction, bit 4 --trace, bit 5 --json.
# Index 0 of METHODS and DIRECTIONS means "flag omitted".
METHODS = (None, "calamity", "standard", "oracle")
DIRECTIONS = (None, "forward", "backward", "auto")
_TRACE = 1 << 4
_JSON = 1 << 5


def reference_weekday(day: datetime.date) -> int:
    """Weekday with Sunday = 0, from ``datetime`` alone."""
    return day.isoweekday() % 7


def dates_in_range(start_year: int, end_year: int) -> int:
    """Number of days from Jan 1 of ``start_year`` through Dec 31 of ``end_year``."""
    first = datetime.date(start_year, 1, 1)
    last = datetime.date(end_year, 12, 31)
    return (last - first).days + 1


SWEEP_DATES = dates_in_range(SWEEP_START, SWEEP_END)


def query_stream(seed: int) -> Iterator[tuple[int, int]]:
    """Endless one-shot weekday queries: (date ordinal, packed flag mix).

    Drawn lazily, so a run never repeats the stream however fast the
    queries go. ``--direction`` and ``--trace`` go only with the lookup
    method, where the CLI accepts them, so no query is a usage error.
    """
    rng = random.Random(seed)
    while True:
        ordinal = rng.randint(FIRST_ORDINAL, LAST_ORDINAL)
        method = rng.randrange(len(METHODS))
        mix = method
        if METHODS[method] in (None, "calamity"):
            mix |= rng.randrange(len(DIRECTIONS)) << 2
            if rng.random() < 0.5:
                mix |= _TRACE
        if rng.random() < 0.5:
            mix |= _JSON
        yield ordinal, mix


def sweep_window(seed: int, count: int) -> list[datetime.date]:
    """``count`` consecutive days of the default range from a seeded first day, in sweep order."""
    first = datetime.date(SWEEP_START, 1, 1).toordinal()
    last = datetime.date(SWEEP_END, 12, 31).toordinal() - count + 1
    begin = random.Random(seed).randint(first, last)
    return [datetime.date.fromordinal(ordinal) for ordinal in range(begin, begin + count)]


def make_inputs(workload: str, seed: int) -> object:
    """What a workload needs before its timed loop: a query stream, or the sweep's date count."""
    if workload == "weekday-queries":
        return query_stream(seed)
    if workload in ("verify-sweep", "metrics-sweep"):
        return SWEEP_DATES
    raise ValueError(f"unknown workload {workload!r}")


def query_argv(ordinal: int, mix: int) -> list[str]:
    """The ``calamity`` argv for one packed query."""
    argv = ["weekday", datetime.date.fromordinal(ordinal).isoformat()]
    method = METHODS[mix & 3]
    if method is not None:
        argv += ["--method", method]
    direction = DIRECTIONS[(mix >> 2) & 3]
    if direction is not None:
        argv += ["--direction", direction]
    if mix & _TRACE:
        argv.append("--trace")
    if mix & _JSON:
        argv.append("--json")
    return argv


def check_query(ordinal: int, mix: int, code: int, out: str) -> bool:
    """Whether one ``weekday`` output names the weekday ``datetime`` gives."""
    if code != 0:
        return False
    day = datetime.date.fromordinal(ordinal)
    expected = reference_weekday(day)
    name = WEEKDAY_NAMES[expected]
    traced = bool(mix & _TRACE)
    direction = DIRECTIONS[(mix >> 2) & 3]
    if mix & _JSON:
        try:
            payload = json.loads(out)
        except ValueError:
            return False
        ok = (
            payload.get("date") == day.isoformat()
            and payload.get("method") == (METHODS[mix & 3] or "calamity")
            and payload.get("weekday") == expected
            and payload.get("name") == name
            and ("trace" in payload) == traced
        )
        if ok and traced:
            trace = payload["trace"]
            step = trace["month_step"]
            total = trace["century_anchor"] + trace["year"]["digit"] + step["offset"]
            ok = (
                trace["final"] == expected
                and total % 7 == expected
                and direction in (None, "auto", step["direction"])
            )
        return ok
    lines = out.splitlines()
    if not lines or lines[0] != f"{name} ({expected})":
        return False
    if traced:
        return len(lines) == 6 and lines[-1].endswith(f"= {expected}")
    return len(lines) == 1


def check_verify(code: int, out: str) -> bool:
    """Whether a default-range ``verify --json`` passed and tested every date."""
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    return (
        code == 0
        and payload.get("ok") is True
        and payload.get("start_year") == SWEEP_START
        and payload.get("end_year") == SWEEP_END
        and payload.get("dates_tested") == SWEEP_DATES
        and all(check["failures"] == 0 for check in payload.get("checks", ()))
    )


#: (standard, calamity) values documented for ``calamity metrics``.
METRICS_CONSTANTS = {"total": (5, 4), "max_intermediate": (123, 6), "divisions": (1, 0)}


def check_metrics_profiles(dates_scanned: int, standard: dict, calamity: dict) -> bool:
    """Whether a default-range metrics report scanned every date and matches the constants."""
    return dates_scanned == SWEEP_DATES and all(
        (standard[key], calamity[key]) == pair for key, pair in METRICS_CONSTANTS.items()
    )


def check_metrics(code: int, out: str) -> bool:
    """Whether a default-range ``metrics --json`` reports the documented constants."""
    try:
        payload = json.loads(out)
        return code == 0 and check_metrics_profiles(
            payload["dates_scanned"], payload["standard"], payload["calamity"]
        )
    except (ValueError, KeyError, TypeError):
        return False
