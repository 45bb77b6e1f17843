"""Benchmark for calamity: end-to-end runs of its CLI and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one caller, closed loop: the next call starts when the last
returns):

* ``verify-sweep``: ``cli.main(["verify", "--json"])`` over the default
  1583..2599 range, repeated until ``--seconds`` have passed.
* ``metrics-sweep``: ``cli.main(["metrics", "--json"])``, the same way.
* ``weekday-queries``: a seeded stream of one-date
  ``cli.main(["weekday", ...])`` queries with a seeded flag mix.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced replay in ``tracing.py`` and prints the per-layer metrics. Every
output is checked against ``datetime`` or the documented ``metrics``
constants; any mismatch makes the run exit 1. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Result lines and span files; listed in the repository's .gitignore.
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("verify-sweep", "metrics-sweep", "weekday-queries")
SWEEP_ARGV = {"verify-sweep": ["verify", "--json"], "metrics-sweep": ["metrics", "--json"]}
SWEEP_CHECK = {"verify-sweep": workloads.check_verify, "metrics-sweep": workloads.check_metrics}

#: Fresh interpreters timed for set-up; the median is reported.
SETUP_REPEATS = 21
#: Queries run before timing starts, so first-call costs stay out.
QUERY_WARMUP = 200
#: Calls per p99 window: ten of them lie beyond the window's 99th percentile.
P99_WINDOW = 1000

# Runs in a fresh interpreter: times ``import calamity.cli`` and then
# the workload's input generation, from inside the process.
_SETUP_CHILD = """\
import sys, time
src, bench, workload, seed = sys.argv[1:]
sys.path[:0] = [src, bench]
t0 = time.perf_counter()
import calamity.cli
t1 = time.perf_counter()
import workloads
workloads.make_inputs(workload, int(seed))
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_calamity() -> SimpleNamespace:
    """Import calamity from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import calamity  # noqa: F401
        from calamity import cli, conway, core, doomyears, method, metrics, systems, vector, verify
    except ImportError as exc:
        raise BenchError(f"cannot import calamity from {SRC}: {exc}") from None
    if Path(calamity.__file__).resolve().parent != SRC / "calamity":
        raise BenchError(f"calamity imported from {calamity.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=cli, conway=conway, core=core, doomyears=doomyears, method=method,
        metrics=metrics, systems=systems, vector=vector, verify=verify,
    )


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up seconds and median ``import calamity.cli`` ms over fresh interpreters."""
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-s", "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up child failed: {done.stderr.strip()}")
        import_s, setup_s = map(float, done.stdout.split())
        imports.append(import_s * 1e3)
        setups.append(setup_s)
    return statistics.median(setups), statistics.median(imports)


def _call(cli, argv: list[str]) -> tuple[int, str, float]:
    """One ``cli.main`` call with its output captured; returns (code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


def run_sweep(cli, workload: str, seconds: float) -> tuple[list[float], int]:
    """Repeat the sweep until ``seconds`` have passed; returns (call times, failures)."""
    argv, check = SWEEP_ARGV[workload], SWEEP_CHECK[workload]
    times: list[float] = []
    failed = 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        code, out, elapsed = _call(cli, argv)
        times.append(elapsed)
        failed += not check(code, out)
    return times, failed


def run_queries(cli, queries: Iterator[tuple[int, int]], seconds: float) -> tuple[list[float], int]:
    """Send queries one at a time until ``seconds`` have passed; returns (latencies, failures)."""
    for ordinal, mix in itertools.islice(queries, QUERY_WARMUP):
        _call(cli, workloads.query_argv(ordinal, mix))
    latencies: list[float] = []
    failed = 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        ordinal, mix = next(queries)
        code, out, elapsed = _call(cli, workloads.query_argv(ordinal, mix))
        latencies.append(elapsed)
        failed += not workloads.check_query(ordinal, mix, code, out)
    return latencies, failed


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def windowed_p99(times: list[float]) -> float:
    """Median over consecutive windows of ``P99_WINDOW`` calls of each window's 99th percentile.

    A burst of interference from outside the process then moves the p99
    of the windows it falls in, not the reported value. With fewer calls
    than one window (a sweep run) it is the 99th percentile of them all.
    """
    windows = [times[i : i + P99_WINDOW] for i in range(0, len(times) - P99_WINDOW + 1, P99_WINDOW)]
    if not windows:
        return percentile(times, 0.99)
    return statistics.median(percentile(window, 0.99) for window in windows)


def end_to_end(lib, workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics; returns (metrics, attempted, failed)."""
    setup_s, _ = measure_setup(workload, seed)
    if workload == "weekday-queries":
        times, failed = run_queries(lib.cli, workloads.query_stream(seed), seconds)
    else:
        times, failed = run_sweep(lib.cli, workload, seconds)
    median = statistics.median(times)
    queries_per_s = len(times) / sum(times)
    metrics = {
        # A query answers one date; a sweep call answers the whole range.
        "dates_per_s": queries_per_s if workload == "weekday-queries" else workloads.SWEEP_DATES / median,
        "queries_per_s": queries_per_s,
        "query_p50_us": median * 1e6,
        "query_p99_us": windowed_p99(times) * 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(times), failed


def traced(lib, workload: str, seed: int) -> tuple[dict, int, int]:
    """Per-layer metrics from the traced replay; returns (metrics, attempted, failed)."""
    _, import_ms = measure_setup(workload, seed)
    metrics, checks = tracing.traced_run(lib, workload, seed, OUT_DIR)
    metrics["cli.import_ms"] = import_ms
    return metrics, checks.attempted, checks.failed


def git_head() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


UNITS = (("_us", "us"), ("_ms", "ms"), ("_mb", "MB"), ("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = load_calamity()
        if args.trace:
            metrics, attempted, failed = traced(lib, args.workload, args.seed)
        else:
            metrics, attempted, failed = end_to_end(lib, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": git_head(),
    }
    # error_rate is 0 on correct code, so it is not a gated metric; it is
    # failed / attempted in the result line and printed here.
    print(f"# {json.dumps(stamp, sort_keys=True)}")
    print(f"# error_rate {failed / attempted} ({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"# {name} {value} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {**stamp, **result, "error_rate": failed / attempted}
    with open(OUT_DIR / "results.jsonl", "a") as log:
        log.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
