"""Command-line entry points.

Five commands: weekday, tables, classify, verify, metrics. Every
command takes ``--json`` for machine-readable output; the JSON is
emitted with sorted keys and two-space indentation so that parsing and
re-dumping it reproduces the bytes exactly. Each handler returns its
exit code with that JSON payload, which is all the command's text
renderer reads, or raises ``_UsageError`` for ``main`` to report.

Exit codes: 0 on success, 1 when a verification or classification
fails or the output cannot be written, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from typing import Any, Iterable, Sequence

from .conway import doomsday_date, weekday_standard
from .core import MIN_YEAR, Date, _check_year, oracle_weekday
from .doomyears import MAX_DISTANCE, doomyear
from .method import AUTO, StepTrace, weekday_calamity_traced
from .metrics import compare
from .systems import NotUniformError, classify, system
from .verify import verify_range

MONTH_NAMES = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

#: Century classes rendered by the tables command, one per anchor slot.
CENTURY_LABELS = ((1700, "1700s"), (1800, "1800s"), (1900, "1900s"), (2000, "2000s"))

_DEFAULT_VERIFY_END = 2599

#: What ``--json`` prints for a command, and all its text renderer reads.
Payload = dict[str, Any]

# [0-9], not \d: \d also matches non-ASCII digits such as "١".
_TOKEN_PATTERN = re.compile(r"([0-9]{1,2})/([0-9]{1,2})")


class _UsageError(Exception):
    """A handler's usage error: ``main`` prints it and exits 2."""


def _render_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _date_argument(text: str) -> Date:
    try:
        return Date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ascii_number(text: str, noun: str) -> int:
    # str.isdigit alone also accepts non-ASCII digits such as "٥".
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
    return int(text)


def _year_argument(text: str) -> int:
    year = _ascii_number(text, "a year")
    try:
        _check_year(year)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return year


def _system_argument(text: str) -> int:
    return _ascii_number(text, "a system number")


def _month_day_argument(text: str) -> tuple[int, int]:
    match = _TOKEN_PATTERN.fullmatch(text)
    if match is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a month/day token")
    return int(match.group(1)), int(match.group(2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calamity",
        description="Weekday computation by table lookup, with checking tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_weekday = sub.add_parser("weekday", help="compute the weekday of a date")
    p_weekday.add_argument("date", type=_date_argument, help="ISO date, e.g. 2025-03-14")
    p_weekday.add_argument(
        "--method",
        choices=("calamity", "standard", "oracle"),
        default="calamity",
        help="computation route (default: calamity)",
    )
    p_weekday.add_argument(
        "--direction",
        choices=("forward", "backward", "auto"),
        default=None,
        help="month-step direction, calamity only (default: auto)",
    )
    p_weekday.add_argument(
        "--trace",
        action="store_true",
        help="show every component of the computation, calamity only",
    )

    p_tables = sub.add_parser("tables", help="print the lookup tables")
    p_tables.add_argument(
        "--system",
        type=_system_argument,
        default=0,
        metavar="K",
        help="anchor system 0..6 (default: 0)",
    )
    p_tables.add_argument("--leap", action="store_true", help="leap-year month codes")

    p_classify = sub.add_parser(
        "classify", help="identify the anchor system behind 12 month/day pairs"
    )
    p_classify.add_argument(
        "dates",
        type=_month_day_argument,
        nargs=12,
        metavar="M/D",
        help="one token per month, e.g. 3/7",
    )

    for name, help_text in (
        ("verify", "run the self-verification sweeps"),
        ("metrics", "compare per-date operation profiles of the two methods"),
    ):
        p_range = sub.add_parser(name, help=help_text)
        p_range.add_argument("start", type=_year_argument, nargs="?", default=MIN_YEAR)
        p_range.add_argument("end", type=_year_argument, nargs="?", default=_DEFAULT_VERIFY_END)

    for p_command in sub.choices.values():
        p_command.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _trace_payload(trace: StepTrace) -> dict[str, object]:
    return {
        "century_anchor": trace.century_anchor,
        "year": trace.year_navigation._asdict(),
        "month_code": str(trace.month_code),
        "month_step": {**trace.target_gap._asdict(), "offset": trace.month_offset},
        "final": int(trace.final),
    }


def _cmd_weekday(args: argparse.Namespace) -> tuple[int, Payload]:
    if args.method != "calamity" and (args.trace or args.direction is not None):
        raise _UsageError("--trace and --direction apply to --method calamity only")
    payload: Payload = {"date": str(args.date), "method": args.method}
    if args.method == "oracle":
        day = oracle_weekday(args.date)
    elif args.method == "standard":
        day = weekday_standard(args.date)
    else:
        direction = args.direction if args.direction is not None else AUTO
        day, trace = weekday_calamity_traced(args.date, direction)
        if args.trace:
            payload["trace"] = _trace_payload(trace)
    payload["weekday"] = int(day)
    payload["name"] = day.name
    return 0, payload


def _weekday_lines(payload: Payload) -> list[str]:
    lines = [f"{payload['name']} ({payload['weekday']})"]
    if "trace" not in payload:
        return lines
    trace = payload["trace"]
    nav = trace["year"]
    nav_sign = "+" if nav["direction"] == "forward" else "-"
    step = trace["month_step"]
    offset = step["offset"]
    offset_sign = "+" if offset >= 0 else "-"
    return lines + [
        f"  century anchor  {trace['century_anchor']}",
        f"  year            {nav['anchor']:02d} {nav_sign} {nav['distance']} -> digit {nav['digit']}",
        f"  month code      {trace['month_code']}",
        f"  month step      {step['direction']}: gap {step['gap']} + digit {step['digit']} -> {offset_sign}{abs(offset)}",
        f"  total           ({trace['century_anchor']} + {nav['digit']} {offset_sign} {abs(offset)}) mod 7 = {trace['final']}",
    ]


def _month_row(label: str, cells: Iterable[object]) -> str:
    return "  " + label.ljust(8) + "".join(str(cell).rjust(5) for cell in cells)


def _cmd_tables(args: argparse.Namespace) -> tuple[int, Payload]:
    if not 0 <= args.system <= 6:
        raise _UsageError(f"system {args.system} outside 0..6")
    sys_k = system(args.system)
    codes = [sys_k.code(month, args.leap) for month in range(1, 13)]
    anchors = {label: sys_k.century_anchor(rep) for rep, label in CENTURY_LABELS}
    return 0, {
        "system": args.system,
        "leap": args.leap,
        "months": [
            {"month": month, "code": str(code), "residue": code.units}
            for month, code in enumerate(codes, start=1)
        ],
        "years": [
            {"distance": row.distance, **row.packed._asdict()}
            for row in map(doomyear, range(MAX_DISTANCE + 1))
        ],
        "century_anchors": anchors,
    }


def _tables_lines(payload: Payload) -> list[str]:
    k, leap = payload["system"], payload["leap"]
    kind = "leap year" if leap else "common year"
    lines = [f"Month codes (system {k}, {kind})", _month_row("month", MONTH_NAMES)]
    if k == 0:
        # The one text row with no JSON twin: the classic anchor dates.
        lines.append(_month_row("day", [doomsday_date(m, leap) for m in range(1, 13)]))
    lines.append(_month_row("code", [row["code"] for row in payload["months"]]))
    lines += ["", "Year table", f"  {'d':>3} {'F':>4} {'B':>4} {'D':>5}"]
    for row in payload["years"]:
        lines.append(f"  {row['distance']:>3} {row['F']:>4} {row['B']:>4} {row['D']:>5}")
    anchors = payload["century_anchors"]
    lines += [
        "",
        f"Century anchors (system {k})",
        "  " + "   ".join(f"{label} {anchor}" for label, anchor in anchors.items()),
    ]
    return lines


def _cmd_classify(args: argparse.Namespace) -> tuple[int, Payload]:
    try:
        k = classify(args.dates)
    except NotUniformError as exc:
        print(f"not uniform: {exc}", file=sys.stderr)
        return 1, {
            "majority": exc.majority,
            "offending": exc.offending,
            "offsets": {str(month): offset for month, offset in exc.offsets.items()},
        }
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    codes = [str(code) for code in system(k).codes]
    return 0, {"k": k, "codes": codes}


def _classify_lines(payload: Payload) -> list[str]:
    if "k" not in payload:
        # Not uniform: the stderr line is the whole text output.
        return []
    return [
        f"k = {payload['k']}",
        _month_row("month", MONTH_NAMES),
        _month_row("code", payload["codes"]),
    ]


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Payload]:
    if args.start > args.end:
        raise _UsageError(f"reversed year range {args.start}..{args.end}")
    summary = verify_range(args.start, args.end)
    return 0 if summary.ok else 1, {**asdict(summary), "ok": summary.ok}


def _verify_lines(payload: Payload) -> list[str]:
    checks = payload["checks"]
    lines = [f"verify {payload['start_year']}..{payload['end_year']}"]
    width = max(len(check["name"]) for check in checks)
    for check in checks:
        status = "ok" if check["failures"] == 0 else f"{check['failures']} FAILED"
        lines.append(f"  {check['name'].ljust(width)}  {check['cases']:>8} cases  {status}")
        lines += [f"    {example}" for example in check["examples"]]
    lines.append(f"dates tested: {payload['dates_tested']}")
    failures = sum(check["failures"] for check in checks)
    lines.append("all checks passed" if payload["ok"] else f"failures: {failures}")
    return lines


def _cmd_metrics(args: argparse.Namespace) -> tuple[int, Payload]:
    if args.start > args.end:
        raise _UsageError(f"reversed year range {args.start}..{args.end}")
    return 0, asdict(compare(args.start, args.end))


def _metrics_lines(payload: Payload) -> list[str]:
    std, cal = payload["standard"], payload["calamity"]
    rows = [(kind, count, cal["counts"][kind]) for kind, count in std["counts"].items()]
    rows += [(key.replace("_", " "), std[key], cal[key]) for key in std if key != "counts"]
    label_width = max(len(label) for label, _, _ in rows)
    lines = [
        f"metrics {payload['start_year']}..{payload['end_year']} ({payload['dates_scanned']} dates)",
        f"  {'per date'.ljust(label_width)}  {'standard':>11}  {'calamity':>11}",
    ]
    for label, std_value, cal_value in rows:
        lines.append(f"  {label.ljust(label_width)}  {str(std_value):>11}  {str(cal_value):>11}")
    return lines


_HANDLERS = {
    "weekday": (_cmd_weekday, _weekday_lines),
    "tables": (_cmd_tables, _tables_lines),
    "classify": (_cmd_classify, _classify_lines),
    "verify": (_cmd_verify, _verify_lines),
    "metrics": (_cmd_metrics, _metrics_lines),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    handler, render = _HANDLERS[args.command]
    try:
        code, payload = handler(args)
    except _UsageError as exc:
        print(f"calamity: error: {exc}", file=sys.stderr)
        return 2
    text = _render_json(payload) if args.as_json else "\n".join(render(payload))
    if text:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        print(text, flush=True)
    return code


def run() -> None:
    if sys.stderr is None:
        # Started with fd 2 closed: drop diagnostics rather than print them on stdout.
        sys.stderr = open(os.devnull, "w")
    try:
        code = main()
    except OSError as exc:
        # Point fd 1 at devnull so the flush at interpreter exit cannot
        # raise again (Python docs, "Note on SIGPIPE" in the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if not isinstance(exc, BrokenPipeError):
            # A reader that closed the pipe wants no more output, not a message.
            print(f"calamity: error: cannot write output: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
