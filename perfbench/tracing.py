"""The traced run: per-layer timings for the calamity benchmark.

Spans are recorded here, around calls into each calamity module; the
package itself is not instrumented. A span has a name, a start, an end
and the span that caused it. Spans stay in flat arrays in memory and are
written out once, when the run ends.

The run has three parts:

* date replay: the workload's dates through every per-date public call,
  one parent span per date;
* query replay: ``weekday`` queries through ``cli.main`` and, separately,
  through the parser and the computation it wraps, one parent span per
  query;
* range calls: ``iter_dates``, each ``verify`` check and ``compare`` over
  the default range, as ``calamity verify`` and ``calamity metrics`` run.

Both replays run once untraced and once traced; the difference in wall
time is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import datetime
import gzip
import io
import itertools
import statistics
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import workloads

_now = time.perf_counter_ns

#: Dates sent through the date replay.
DATE_REPLAY = 15_000
#: Queries sent through the query replay.
QUERY_REPLAY = 2_000
#: Empty spans timed to find the cost the timer adds to each span.
FLOOR_SPANS = 20_000


class Tracer:
    """Spans in flat arrays: name index, parent index, start and end in ns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")

    def id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: int, parent: int) -> int:
        """Open a parent span; returns its index for ``finish`` and for children."""
        self.name.append(name)
        self.parent.append(parent)
        self.start.append(_now())
        self.end.append(0)
        return len(self.end) - 1

    def finish(self, span: int) -> None:
        self.end[span] = _now()

    def call(self, name, parent, fn, *args):
        """Call ``fn(*args)`` inside a span and return its result."""
        t0 = _now()
        result = fn(*args)
        t1 = _now()
        self.name.append(name)
        self.parent.append(parent)
        self.start.append(t0)
        self.end.append(t1)
        return result

    def totals(self) -> dict[str, tuple[int, int]]:
        """Span count and summed duration in ns, per name."""
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        for name, t0, t1 in zip(self.name, self.start, self.end):
            count[name] += 1
            total[name] += t1 - t0
        return {n: (count[i], total[i]) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> list[int]:
        target = self._ids[name]
        return [t1 - t0 for n, t0, t1 in zip(self.name, self.start, self.end) if n == target]

    def write(self, path: Path) -> None:
        """Spans as gzip'd TSV: index, name, parent index (-1 for none), start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for i, (n, p, t0, t1) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                out.write(f"{i}\t{names[n]}\t{p}\t{t0}\t{t1}\n")


class NullTracer(Tracer):
    """Same calls, no spans: the untraced side of the overhead measurement."""

    def begin(self, name: int, parent: int) -> int:
        return -1

    def finish(self, span: int) -> None:
        pass

    def call(self, name, parent, fn, *args):
        return fn(*args)


def _noop(_arg):
    return None


def span_floor_ns() -> float:
    """Median duration of a span around a call that does nothing."""
    probe = Tracer()
    nid = probe.id("floor")
    for _ in range(FLOOR_SPANS):
        probe.call(nid, -1, _noop, None)
    return statistics.median(probe.durations("floor"))


class Checks:
    """Counts replayed outputs and the ones that disagree with a reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


#: Per-date calls of the date replay; each gives the ``<name>_us`` metric.
_DATE_CALLS = (
    "core.oracle_weekday",
    "conway.weekday_standard",
    "method.weekday_calamity",
    "method.traced_backward",
    "method.traced_auto",
    "systems.weekday",
    "doomyears.nearest_anchor",
    "doomyears.year_offset_doomyear",
    "vector.square_knot_forward",
    "metrics.trace_standard",
    "metrics.trace_calamity",
)


def replay_dates(tracer: Tracer, lib: SimpleNamespace, dates: list[datetime.date], checks: Checks) -> None:
    """Every per-date public call on each date, one parent span per date and pass.

    The passes group the calls the way the commands make them, so each
    call runs beside the ones it runs beside in a sweep: the four routes
    of the differential check, the seven anchor systems, the two
    ``metrics`` traces, then the lookup steps on their own.
    """
    t = tracer
    ids = {name: t.id(name) for name in _DATE_CALLS}
    pass_ids = [t.id(f"replay.{name}") for name in ("differential", "systems", "metrics", "lookup")]
    systems = [lib.systems.system(k) for k in range(7)]
    backward = lib.core.Direction.BACKWARD
    auto = lib.method.AUTO
    days = [lib.core.Date(day.year, day.month, day.day) for day in dates]
    expected = [workloads.reference_weekday(day) for day in dates]

    for d, want in zip(days, expected):
        p = t.begin(pass_ids[0], -1)
        o = t.call(ids["core.oracle_weekday"], p, lib.core.oracle_weekday, d)
        s = t.call(ids["conway.weekday_standard"], p, lib.conway.weekday_standard, d)
        f = t.call(ids["method.weekday_calamity"], p, lib.method.weekday_calamity, d)
        b = t.call(ids["method.traced_backward"], p, lib.method.weekday_calamity_traced, d, backward)
        t.finish(p)
        checks.add(o == s == f == b[0] == want)

    weekday_id = ids["systems.weekday"]
    for d, want in zip(days, expected):
        p = t.begin(pass_ids[1], -1)
        checks.add(all(t.call(weekday_id, p, sys_k.weekday, d) == want for sys_k in systems))
        t.finish(p)

    for d, want in zip(days, expected):
        p = t.begin(pass_ids[2], -1)
        std = t.call(ids["metrics.trace_standard"], p, lib.metrics.trace_standard, d)
        cal = t.call(ids["metrics.trace_calamity"], p, lib.metrics.trace_calamity, d)
        t.finish(p)
        checks.add(std[-1].result_magnitude == want and len(std) == 5 and len(cal) == 4)

    for d, want in zip(days, expected):
        yy = d.year % 100
        code = lib.vector.vector_code(d.month, lib.core.is_leap(d.year))
        p = t.begin(pass_ids[3], -1)
        nav = t.call(ids["doomyears.nearest_anchor"], p, lib.doomyears.nearest_anchor, yy)
        y = t.call(ids["doomyears.year_offset_doomyear"], p, lib.doomyears.year_offset_doomyear, yy)
        m = t.call(ids["vector.square_knot_forward"], p, lib.vector.square_knot_forward, d.day, code)
        a = t.call(ids["method.traced_auto"], p, lib.method.weekday_calamity_traced, d, auto)
        t.finish(p)
        checks.add(
            nav.distance <= 15
            and y == (yy + yy // 4) % 7
            and (lib.conway.century_anchor(d.year) + y + m) % 7 == want
            and a[0] == want
        )


def replay_queries(
    tracer: Tracer, lib: SimpleNamespace, queries: list[tuple[int, int]], checks: Checks
) -> None:
    """Each query through ``cli.main``, then through its parts one by one.

    The parts are a fresh parser, ``parse_args`` (which parses the date),
    a bare ``Date.fromisoformat`` and the route the query selects.
    """
    t = tracer
    cli = lib.cli
    query_id = t.id("replay.query")
    main_id = t.id("cli.main")
    build_id = t.id("cli.build_parser")
    parse_id = t.id("cli.parse_args")
    iso_id = t.id("core.fromisoformat")
    compute_id = t.id("cli.weekday_compute")
    routes = {
        "oracle": lib.core.oracle_weekday,
        "standard": lib.conway.weekday_standard,
    }
    for ordinal, mix in queries:
        argv = workloads.query_argv(ordinal, mix)
        out, err = io.StringIO(), io.StringIO()
        p = t.begin(query_id, -1)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = t.call(main_id, p, cli.main, argv)
        parser = t.call(build_id, p, cli.build_parser)
        args = t.call(parse_id, p, parser.parse_args, argv)
        date = t.call(iso_id, p, lib.core.Date.fromisoformat, argv[1])
        route = routes.get(args.method)
        if route is None:
            direction = args.direction if args.direction is not None else lib.method.AUTO
            day = t.call(compute_id, p, lib.method.weekday_calamity_traced, date, direction)[0]
        else:
            day = t.call(compute_id, p, route, date)
        t.finish(p)
        expected = workloads.reference_weekday(datetime.date.fromordinal(ordinal))
        checks.add(
            workloads.check_query(ordinal, mix, code, out.getvalue())
            and args.date == date
            and day == expected
        )


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def range_calls(tracer: Tracer, lib: SimpleNamespace, checks: Checks) -> dict[str, float]:
    """``iter_dates``, every ``verify`` check and ``compare`` over the default range."""
    t = tracer
    start, end = workloads.SWEEP_START, workloads.SWEEP_END
    counts: dict[str, float] = {}

    # iter_dates: one span per date yielded.
    next_id = t.id("core.iter_dates")
    p = t.begin(t.id("range.iter_dates"), -1)
    it = lib.core.iter_dates(start, end)
    yielded = 0
    while True:
        t0 = _now()
        d = next(it, None)
        t1 = _now()
        if d is None:
            break
        t.name.append(next_id)
        t.parent.append(p)
        t.start.append(t0)
        t.end.append(t1)
        yielded += 1
    t.finish(p)
    checks.add(yielded == workloads.SWEEP_DATES)

    # verify: the checks verify_range runs, in its order.
    verify = lib.verify
    p = t.begin(t.id("range.verify"), -1)
    results = [
        t.call(t.id("verify.differential_sweep"), p, verify.differential_sweep, start, end),
        t.call(t.id("verify.table_checks"), p, verify.month_code_check),
        t.call(t.id("verify.table_checks"), p, verify.square_knot_check),
        t.call(t.id("verify.table_checks"), p, verify.year_table_check),
        t.call(t.id("verify.table_checks"), p, verify.year_offset_check),
        t.call(t.id("verify.anchor_system_check"), p, verify.anchor_system_check, start, end),
    ]
    t.finish(p)
    for result in results:
        checks.add(result.ok and result.cases > 0)
        counts[f"verify.cases.{result.name}"] = result.cases
    checks.add(results[0].cases == workloads.SWEEP_DATES)
    counts["verify.cases"] = sum(result.cases for result in results)

    # compare: count the dates it traces and their distinct
    # (year mod 400, month, day) keys at its call into trace_standard.
    metrics = lib.metrics
    original = metrics.trace_standard
    keys: set[tuple[int, int, int]] = set()
    traced = 0

    def counting_trace_standard(date):
        nonlocal traced
        traced += 1
        keys.add((date.year % 400, date.month, date.day))
        return original(date)

    metrics.trace_standard = counting_trace_standard
    try:
        report = t.call(t.id("metrics.compare"), -1, metrics.compare, start, end)
    finally:
        metrics.trace_standard = original
    profile = {
        side: {key: getattr(getattr(report, side), key) for key in workloads.METRICS_CONSTANTS}
        for side in ("standard", "calamity")
    }
    checks.add(workloads.check_metrics_profiles(report.dates_scanned, **profile))
    counts["metrics.dates_traced"] = traced
    counts["metrics.distinct_keys"] = len(keys)
    counts["metrics.useful_ratio"] = len(keys) / traced if traced else 0.0
    return counts


def traced_run(lib: SimpleNamespace, workload: str, seed: int, out_dir: Path) -> tuple[dict, Checks]:
    """Every per-layer metric; returns (metrics by name, checks)."""
    checks = Checks()
    # The head of the workload's own query stream, for every workload.
    queries = list(itertools.islice(workloads.query_stream(seed), max(DATE_REPLAY, QUERY_REPLAY)))
    if workload == "weekday-queries":
        dates = [datetime.date.fromordinal(ordinal) for ordinal, _ in queries[:DATE_REPLAY]]
    else:
        dates = workloads.sweep_window(seed, DATE_REPLAY)
    query_replay = queries[:QUERY_REPLAY]

    tracer = Tracer()
    floor_ns = span_floor_ns()
    untraced = Checks()
    plain_s = _timed(replay_dates, NullTracer(), lib, dates, untraced)
    plain_s += _timed(replay_queries, NullTracer(), lib, query_replay, untraced)
    traced_s = _timed(replay_dates, tracer, lib, dates, checks)
    traced_s += _timed(replay_queries, tracer, lib, query_replay, checks)
    checks.attempted += untraced.attempted
    checks.failed += untraced.failed
    counts = range_calls(tracer, lib, checks)

    totals = tracer.totals()

    def per_call_us(name: str) -> float:
        count, total = totals[name]
        return (total / count - floor_ns) / 1e3

    def seconds(name: str) -> float:
        return totals[name][1] / 1e9

    per_query = {
        name: per_call_us(name)
        for name in ("cli.main", "cli.build_parser", "cli.parse_args", "cli.weekday_compute")
    }
    differential_per_date_us = seconds("verify.differential_sweep") * 1e6 / workloads.SWEEP_DATES
    metrics = {
        "core.iter_dates_us": per_call_us("core.iter_dates"),
        "core.fromisoformat_us": per_call_us("core.fromisoformat"),
        **{f"{name}_us": per_call_us(name) for name in _DATE_CALLS},
        "metrics.compare_s": seconds("metrics.compare"),
        "verify.differential_sweep_s": seconds("verify.differential_sweep"),
        "verify.anchor_system_check_s": seconds("verify.anchor_system_check"),
        "verify.table_checks_s": seconds("verify.table_checks"),
        # What the sweep spends per date beyond the calls it is made of:
        # the recorder, and the counterexample text built for every case.
        "verify.differential_self_us": differential_per_date_us
        - sum(
            per_call_us(name)
            for name in (
                "core.iter_dates",
                "core.oracle_weekday",
                "conway.weekday_standard",
                "method.weekday_calamity",
                "method.traced_backward",
            )
        ),
        "cli.build_parser_us": per_query["cli.build_parser"],
        "cli.weekday_self_us": per_query["cli.main"]
        - per_query["cli.build_parser"]
        - per_query["cli.parse_args"]
        - per_query["cli.weekday_compute"],
        "trace.overhead_s": traced_s - plain_s,
        **counts,
    }
    tracer.write(out_dir / f"spans-{workload}.tsv.gz")
    return metrics, checks
