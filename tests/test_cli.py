"""Command-line behavior: rendering, exit codes, JSON stability."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from calamity import systems as systems_module, verify as verify_module
from calamity.cli import _cmd_weekday, _weekday_lines, main
from calamity.core import Weekday, iter_dates
from calamity.metrics import ComparisonReport, MethodProfile
from calamity.verify import CheckResult, VerificationSummary
from support import child_env

WANG_TOKENS = ["1/1", "2/12", "3/5", "4/2", "5/7", "6/4",
               "7/9", "8/6", "9/3", "10/8", "11/12", "12/10"]
CONWAY_TOKENS = ["1/3", "2/28", "3/7", "4/4", "5/9", "6/6",
                 "7/11", "8/8", "9/5", "10/10", "11/7", "12/12"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weekday_default_method(capsys):
    code, out, _ = run_cli(capsys, "weekday", "2000-04-04")
    assert code == 0
    assert out.strip() == "Tuesday (2)"


def test_weekday_standard_method(capsys):
    code, out, _ = run_cli(capsys, "weekday", "2025-03-14", "--method", "standard")
    assert code == 0
    assert out.strip() == "Friday (5)"


def test_weekday_oracle_method(capsys):
    code, out, _ = run_cli(capsys, "weekday", "2025-12-25", "--method", "oracle")
    assert code == 0
    assert out.strip() == "Thursday (4)"


def test_weekday_methods_agree(capsys):
    outputs = set()
    for method in ("calamity", "standard", "oracle"):
        _, out, _ = run_cli(capsys, "weekday", "1776-07-04", "--method", method)
        outputs.add(out)
    assert len(outputs) == 1


def test_weekday_trace(capsys):
    code, out, _ = run_cli(capsys, "weekday", "2025-12-25", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Thursday (4)"
    assert any("century anchor" in line for line in lines)
    assert any("month code      25" in line for line in lines)


def test_weekday_trace_direction(capsys):
    _, forward, _ = run_cli(
        capsys, "weekday", "2025-12-25", "--trace", "--direction", "forward"
    )
    _, backward, _ = run_cli(
        capsys, "weekday", "2025-12-25", "--trace", "--direction", "backward"
    )
    assert forward.splitlines()[0] == backward.splitlines()[0]
    assert "+ 6" in forward
    assert "- 1" in backward


_STEP_LINE = re.compile(r"  month step      (forward|backward): gap \d \+ digit \d -> ([+-])(\d)")
_TOTAL_LINE = re.compile(r"  total           \((\d) \+ (\d) ([+-]) (\d)\) mod 7 = (\d)")


@pytest.mark.parametrize("direction", ["forward", "backward", "auto"])
def test_a_traced_month_step_is_signed_by_its_direction(direction):
    # The handler and renderer alone: main would build a parser per date.
    for date in iter_dates(2000, 2001):
        args = argparse.Namespace(date=date, method="calamity", direction=direction, trace=True)
        _, payload = _cmd_weekday(args)
        step = payload["trace"]["month_step"]
        sign = "+" if step["direction"] == "forward" else "-"
        offset = str(abs(step["offset"]))
        lines = _weekday_lines(payload)
        assert _STEP_LINE.fullmatch(lines[4]).groups() == (step["direction"], sign, offset), date
        anchor, digit, *signed, final = _TOTAL_LINE.fullmatch(lines[5]).groups()
        assert signed == [sign, offset], date
        total = int(anchor) + int(digit) + int(sign + offset)
        assert total % 7 == int(final) == payload["weekday"], date


def test_weekday_parse_failure_exits_2(capsys):
    code, _, err = run_cli(capsys, "weekday", "2025-13-01")
    assert code == 2
    assert err


def test_weekday_out_of_range_exits_2(capsys):
    code, _, _ = run_cli(capsys, "weekday", "1500-01-01")
    assert code == 2


def test_weekday_trace_requires_calamity(capsys):
    code, _, err = run_cli(
        capsys, "weekday", "2025-03-14", "--method", "oracle", "--trace"
    )
    assert code == 2
    assert "calamity" in err


def test_tables_default_system(capsys):
    code, out, _ = run_cli(capsys, "tables")
    assert code == 0
    assert "43   00   00   34   52   16   34   61   25   43   00   25" in out
    assert "1700s 0" in out and "2000s 2" in out


def test_tables_leap_overrides(capsys):
    _, out, _ = run_cli(capsys, "tables", "--leap")
    code_row = next(line for line in out.splitlines() if line.startswith("  code"))
    cells = code_row.split()
    assert cells[1] == "34"
    assert cells[2] == "61"


def test_tables_wang_system(capsys):
    _, out, _ = run_cli(capsys, "tables", "--system", "5")
    assert "61   25   25   52   00   34   52   16   43   61   25   43" in out


def test_tables_year_rows(capsys):
    _, out, _ = run_cli(capsys, "tables")
    lines = out.splitlines()
    assert any(line.split() == ["5", "56", "50", "506"] for line in lines)
    assert any(line.split() == ["15", "154", "152", "1524"] for line in lines)


def test_tables_system_out_of_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "tables", "--system", "7")
    assert code == 2
    assert err == "calamity: error: system 7 outside 0..6\n"


def test_tables_json_residue_matches_code(capsys):
    for k in range(7):
        for leap_flag in ((), ("--leap",)):
            _, out, _ = run_cli(capsys, "tables", "--system", str(k), *leap_flag, "--json")
            for row in json.loads(out)["months"]:
                assert row["residue"] == int(row["code"][1]), (k, leap_flag, row)


def test_classify_wang(capsys):
    code, out, _ = run_cli(capsys, "classify", *WANG_TOKENS)
    assert code == 0
    assert out.splitlines()[0] == "k = 5"


def test_classify_conway(capsys):
    code, out, _ = run_cli(capsys, "classify", *CONWAY_TOKENS)
    assert code == 0
    assert out.splitlines()[0] == "k = 0"


def test_classify_not_uniform_exits_1(capsys):
    tokens = ["1/5"] + CONWAY_TOKENS[1:]
    code, _, err = run_cli(capsys, "classify", *tokens)
    assert code == 1
    assert "1" in err


def test_classify_not_uniform_json(capsys):
    # The two strays of test_systems.py's majority-vote test.
    tokens = list(CONWAY_TOKENS)
    tokens[3], tokens[8] = "4/5", "9/7"
    message = "not uniform: months 4, 9 disagree with the majority day shift 0\n"
    assert run_cli(capsys, "classify", *tokens) == (1, "", message)
    code, out, err = run_cli(capsys, "classify", *tokens, "--json")
    assert (code, err) == (1, message)
    offsets = {str(month): 0 for month in range(1, 13)} | {"4": 1, "9": 2}
    assert json.loads(out) == {"majority": 0, "offending": [4, 9], "offsets": offsets}
    assert _round_trips(out)


def test_classify_one_offender_is_singular(capsys):
    tokens = ["1/5"] + CONWAY_TOKENS[1:]
    message = "not uniform: month 1 disagrees with the majority day shift 0\n"
    assert run_cli(capsys, "classify", *tokens) == (1, "", message)
    code, out, err = run_cli(capsys, "classify", *tokens, "--json")
    assert (code, err) == (1, message)
    offsets = {str(month): 0 for month in range(1, 13)} | {"1": 2}
    assert json.loads(out) == {"majority": 0, "offending": [1], "offsets": offsets}


def test_classify_bad_token_exits_2(capsys):
    code, _, _ = run_cli(capsys, "classify", "January/3", *CONWAY_TOKENS[1:])
    assert code == 2


def test_classify_wrong_count_exits_2(capsys):
    code, _, _ = run_cli(capsys, "classify", *CONWAY_TOKENS[:11])
    assert code == 2


def test_verify_single_year(capsys):
    code, out, _ = run_cli(capsys, "verify", "2000", "2000")
    assert code == 0
    assert "dates tested: 366" in out
    assert "all checks passed" in out


FAULT_EXAMPLES = [
    "2000-01-13: oracle=4 standard=4 forward=5 backward=4",
    "2000-02-13: oracle=0 standard=0 forward=1 backward=0",
    "2000-03-13: oracle=1 standard=1 forward=2 backward=1",
    "2000-04-13: oracle=4 standard=4 forward=5 backward=4",
    "2000-05-13: oracle=6 standard=6 forward=0 backward=6",
]


BACKWARD_FAULT_EXAMPLES = [
    "2000-01-13: oracle=4 standard=4 forward=4 backward=5",
    "2000-02-13: oracle=0 standard=0 forward=0 backward=1",
    "2000-03-13: oracle=1 standard=1 forward=1 backward=2",
    "2000-04-13: oracle=4 standard=4 forward=4 backward=5",
    "2000-05-13: oracle=6 standard=6 forward=6 backward=0",
]


def _off_on_13th(monkeypatch, route):
    """Make the verifier's ``route`` answer one day late on the 13th of every month."""
    real = getattr(verify_module, route)

    def faulty(date):
        day = real(date)
        return Weekday((day + 1) % 7) if date.day == 13 else day

    monkeypatch.setattr(verify_module, route, faulty)


@pytest.fixture
def forward_off_on_13th(monkeypatch):
    _off_on_13th(monkeypatch, "weekday_calamity")


@pytest.fixture
def backward_off_on_13th(monkeypatch):
    _off_on_13th(monkeypatch, "weekday_calamity_backward")


def _assert_verify_fails_text(capsys, examples):
    code, out, _ = run_cli(capsys, "verify", "2000", "2000")
    assert code == 1
    lines = out.splitlines()
    row = lines.index("  differential         366 cases  12 FAILED")
    assert lines[row + 1:row + 6] == [f"    {example}" for example in examples]
    assert lines[row + 6].startswith("  month-codes ")
    assert lines[-1] == "failures: 12"


def _assert_verify_fails_json(capsys, examples):
    code, out, _ = run_cli(capsys, "verify", "2000", "2000", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    differential = payload["checks"][0]
    assert differential["name"] == "differential"
    assert differential["failures"] == 12
    assert differential["examples"] == examples
    assert all(check["failures"] == 0 for check in payload["checks"][1:])
    assert _round_trips(out)


def test_verify_failure_text(capsys, forward_off_on_13th):
    _assert_verify_fails_text(capsys, FAULT_EXAMPLES)


def test_verify_failure_json(capsys, forward_off_on_13th):
    _assert_verify_fails_json(capsys, FAULT_EXAMPLES)


def test_verify_backward_failure_text(capsys, backward_off_on_13th):
    _assert_verify_fails_text(capsys, BACKWARD_FAULT_EXAMPLES)


def test_verify_backward_failure_json(capsys, backward_off_on_13th):
    _assert_verify_fails_json(capsys, BACKWARD_FAULT_EXAMPLES)


SYSTEM_FAULT_EXAMPLES = [f"k={k} 2000-01-13: system weekday != oracle" for k in range(5)]

SYSTEM_FAULT_TEXT = "\n".join([
    "verify 2000..2000",
    "  differential         366 cases  ok",
    "  month-codes           24 cases  ok",
    "  square-knot          731 cases  ok",
    "  year-table            16 cases  ok",
    "  year-offset          176 cases  ok",
    "  anchor-systems      2751 cases  84 FAILED",
    *(f"    {example}" for example in SYSTEM_FAULT_EXAMPLES),
    "  calendar             366 cases  ok",
    "dates tested: 366",
    "failures: 84",
]) + "\n"


@pytest.fixture
def system_off_on_13th(monkeypatch):
    """Make the square-knot step the anchor systems run one day late on the 13th."""
    real = systems_module.square_knot_forward

    def faulty(day, code):
        offset = real(day, code)
        return (offset + 1) % 7 if day == 13 else offset

    monkeypatch.setattr(systems_module, "square_knot_forward", faulty)


def test_verify_system_failure_text(capsys, system_off_on_13th):
    assert run_cli(capsys, "verify", "2000", "2000") == (1, SYSTEM_FAULT_TEXT, "")


def _verify_2000_json(differential, anchor_systems):
    """``verify 2000 2000 --json`` with the (failures, examples) of the two per-date checks."""
    checks = [
        {"name": name, "cases": cases, "failures": failures, "examples": examples}
        for name, cases, (failures, examples) in (
            ("differential", 366, differential),
            ("month-codes", 24, (0, [])),
            ("square-knot", 731, (0, [])),
            ("year-table", 16, (0, [])),
            ("year-offset", 176, (0, [])),
            ("anchor-systems", 2751, anchor_systems),
            ("calendar", 366, (0, [])),
        )
    ]
    payload = {
        "checks": checks,
        "dates_tested": 366,
        "end_year": 2000,
        "ok": False,
        "start_year": 2000,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_verify_system_failure_json(capsys, system_off_on_13th):
    expected = _verify_2000_json((0, []), (84, SYSTEM_FAULT_EXAMPLES))
    assert run_cli(capsys, "verify", "2000", "2000", "--json") == (1, expected, "")


BOTH_FAULTS_TEXT = "\n".join([
    "verify 2000..2000",
    "  differential         366 cases  12 FAILED",
    *(f"    {example}" for example in FAULT_EXAMPLES),
    "  month-codes           24 cases  ok",
    "  square-knot          731 cases  ok",
    "  year-table            16 cases  ok",
    "  year-offset          176 cases  ok",
    "  anchor-systems      2751 cases  84 FAILED",
    *(f"    {example}" for example in SYSTEM_FAULT_EXAMPLES),
    "  calendar             366 cases  ok",
    "dates tested: 366",
    "failures: 96",
]) + "\n"


def test_verify_reports_both_per_date_checks_failing_on_the_same_dates(
    capsys, forward_off_on_13th, system_off_on_13th
):
    # One walk feeds both checks; each keeps its own cases and example order.
    assert run_cli(capsys, "verify", "2000", "2000") == (1, BOTH_FAULTS_TEXT, "")
    expected = _verify_2000_json((12, FAULT_EXAMPLES), (84, SYSTEM_FAULT_EXAMPLES))
    assert run_cli(capsys, "verify", "2000", "2000", "--json") == (1, expected, "")


def test_verify_reversed_range_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "2100", "2000")
    assert code == 2


def test_metrics_structural_rows(capsys):
    code, out, _ = run_cli(capsys, "metrics", "2000", "2000")
    assert code == 0
    rows = {line.split("  ")[1].strip(): line.split() for line in out.splitlines()[2:]}
    assert rows["total"][-2:] == ["5", "4"]
    assert rows["divisions"][-2:] == ["1", "0"]
    assert rows["dependency"][-2:] == ["serial", "independent"]
    assert rows["max intermediate"][-1] == "6"


def test_metrics_reversed_range_exits_2(capsys):
    code, _, _ = run_cli(capsys, "metrics", "2001", "2000")
    assert code == 2


def _round_trips(out):
    payload = json.loads(out)
    return json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")


def test_weekday_json(capsys):
    code, out, _ = run_cli(capsys, "weekday", "2000-04-04", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weekday"] == 2
    assert payload["name"] == "Tuesday"
    assert "trace" not in payload
    assert _round_trips(out)


def test_weekday_trace_json(capsys):
    _, out, _ = run_cli(capsys, "weekday", "2025-12-25", "--trace", "--json")
    payload = json.loads(out)
    trace = payload["trace"]
    assert trace["month_code"] == "25"
    assert trace["month_step"]["offset"] == -1
    assert trace["year"] == {
        "anchor": 28, "distance": 3, "direction": "backward", "digit": 3,
    }
    assert _round_trips(out)


def test_tables_json(capsys):
    _, out, _ = run_cli(capsys, "tables", "--json")
    payload = json.loads(out)
    assert payload["months"][0] == {"month": 1, "code": "43", "residue": 3}
    assert payload["years"][5] == {"distance": 5, "F": 56, "B": 50, "D": 506}
    assert payload["century_anchors"]["2000s"] == 2
    assert _round_trips(out)


def test_tables_json_wang_century(capsys):
    _, out, _ = run_cli(capsys, "tables", "--system", "5", "--json")
    payload = json.loads(out)
    assert payload["century_anchors"]["2000s"] == 0
    assert payload["months"][4]["code"] == "00"
    assert _round_trips(out)


def test_classify_json(capsys):
    _, out, _ = run_cli(capsys, "classify", *WANG_TOKENS, "--json")
    payload = json.loads(out)
    assert payload["k"] == 5
    assert payload["codes"][0] == "61"
    assert _round_trips(out)


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "2000", "2000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["dates_tested"] == 366
    assert {c["name"] for c in payload["checks"]} >= {"differential", "square-knot"}
    assert _round_trips(out)


def test_metrics_json(capsys):
    code, out, _ = run_cli(capsys, "metrics", "2000", "2001", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["standard"]["total"] == 5
    assert payload["calamity"]["total"] == 4
    assert payload["calamity"]["max_intermediate"] == 6
    assert payload["standard"]["counts"]["int_division"] == 1
    assert _round_trips(out)


def test_json_keys_are_the_record_fields(capsys):
    def names(record):
        return {field.name for field in dataclasses.fields(record)}

    metrics = json.loads(run_cli(capsys, "metrics", "2000", "2000", "--json")[1])
    assert set(metrics) == names(ComparisonReport)
    assert set(metrics["standard"]) == set(metrics["calamity"]) == names(MethodProfile)
    verify = json.loads(run_cli(capsys, "verify", "2000", "2000", "--json")[1])
    assert set(verify) == names(VerificationSummary) | {"ok"}
    for check in verify["checks"]:
        assert set(check) == names(CheckResult)


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_help_exits_0_with_usage_on_stdout(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: calamity ")


ARABIC_ONE = "\u0661"
ARABIC_1600 = "\u0661\u0666\u0660\u0660"


@pytest.mark.parametrize("argv", [
    ("weekday", "20251225"),
    ("weekday", "2025-W52-4"),
    ("weekday", "\u0662\u0660\u0662\u0665-\u0661\u0662-\u0662\u0665"),
    ("verify", ARABIC_1600, ARABIC_1600),
    ("metrics", ARABIC_1600, ARABIC_1600),
    ("verify", "+2000", "2000"),
    ("classify", f"{ARABIC_ONE}/{ARABIC_ONE}", *WANG_TOKENS[1:]),
    ("classify", "1/1\n", *WANG_TOKENS[1:]),
    ("tables", "--system", "\u0665"),
    ("tables", "--system", "+3"),
    ("tables", "--system", " 3"),
    ("tables", "--system", "3\n"),
])
def test_non_ascii_or_malformed_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
@pytest.mark.parametrize("argv, err", [
    (("weekday", "2025-12-25", "--method", "standard", "--trace"),
     "calamity: error: --trace and --direction apply to --method calamity only\n"),
    (("classify", "1/3", "1/4", *CONWAY_TOKENS[2:]), "calamity: error: month 1 given twice\n"),
    (("classify", "1/32", *CONWAY_TOKENS[1:]),
     "calamity: error: day 32 outside 1..31 for month 1\n"),
    (("verify", "2001", "2000"), "calamity: error: reversed year range 2001..2000\n"),
    (("metrics", "2001", "2000"), "calamity: error: reversed year range 2001..2000\n"),
    (("verify", "1582", "2000"),
     "usage: calamity verify [-h] [--json] [start] [end]\n"
     "calamity verify: error: argument start: year 1582 outside supported range 1583..9999\n"),
    (("classify", "13/1", *CONWAY_TOKENS[1:]), "calamity: error: month 13 outside 1..12\n"),
])
def test_usage_error_bytes(capsys, monkeypatch, argv, err, json_flag):
    # argparse wraps its usage line to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv, *json_flag) == (2, "", err)


@pytest.mark.parametrize("stdout, argv, code, err_tail", [
    # The read end closes before the child prints anything: no message.
    ("pipe", ["verify", "2000", "2000"], 1, []),
    ("closed", ["weekday", "2000-01-01"], 1,
     ["calamity: error: cannot write output: stdout is closed"]),
    # Nothing was to be written, so the usage error keeps its exit code.
    ("closed", ["weekday", "nope"], 2,
     ["calamity weekday: error: argument date: Invalid isoformat string: 'nope'"]),
    ("/dev/full", ["weekday", "2000-01-01"], 1,
     ["calamity: error: cannot write output: [Errno 28] No space left on device"]),
], ids=["closed-pipe", "no-stdout", "no-stdout-usage-error", "full-device"])
def test_unwritable_stdout_exits_without_traceback(stdout, argv, code, err_tail):
    with open("/dev/full", "w") as full:
        proc = subprocess.Popen(
            [sys.executable, "-m", "calamity.cli", *argv],
            stdout={"pipe": subprocess.PIPE, "closed": None, "/dev/full": full}[stdout],
            stderr=subprocess.PIPE,
            env=child_env(),
            # Started with fd 1 closed, the child has no sys.stdout at all.
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None,
        )
    if proc.stdout is not None:
        proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert "Traceback" not in err
    assert err.count("error:") == len(err_tail)
    assert err.splitlines()[-1:] == err_tail


@pytest.mark.parametrize("argv", [
    ["classify", "1/5", *CONWAY_TOKENS[1:], "--json"],
    ["classify", "1/5", *CONWAY_TOKENS[1:]],
    ["tables", "--system", "9"],
    ["weekday", "nope"],
    ["weekday", "2000-01-01"],
], ids=["not-uniform-json", "not-uniform", "usage-error", "argparse-error", "answer"])
def test_closed_stderr_drops_diagnostics_and_keeps_stdout(argv):
    def child(**streams):
        return subprocess.run(
            [sys.executable, "-m", "calamity.cli", *argv],
            stdout=subprocess.PIPE, env=child_env(), timeout=60, **streams,
        )

    opened = child(stderr=subprocess.PIPE)
    # Started with fd 2 closed, the child has no sys.stderr at all.
    closed = child(preexec_fn=lambda: os.close(2))
    assert (closed.returncode, closed.stdout) == (opened.returncode, opened.stdout)


# Tokens for the argv fuzz below.
MALFORMED = ["\u0665", "+3", " 3", "3\n", "0000-01-01", "2023-02-29", "10000", "1582", "13/1"]
BAD_TOKENS = MALFORMED + ["--bogus", "-x", "--leap", "--trace", "--system"]
FLAG_GROUPS = {
    "weekday": [
        ["--json"], ["--trace"], ["--method", "standard"], ["--method", "oracle"],
        ["--method", "calamity"], ["--direction", "forward"], ["--direction", "backward"],
        ["--direction", "auto"],
    ],
    "tables": [
        ["--json"], ["--leap"], ["--system", "0"], ["--system", "5"], ["--system", "6"],
        ["--system", "7"], ["--system", "-1"],
    ],
    "classify": [["--json"]],
    "verify": [["--json"]],
    "metrics": [["--json"]],
}


def _slot(valid):
    """A valid token two times in three, else a malformed one."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), st.sampled_from(MALFORMED))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FLAG_GROUPS)))
    if command == "weekday":
        head = [draw(_slot(["2025-12-25", "1583-01-01", "9999-12-31", "2000-02-29"]))]
    elif command == "classify":
        head = list(draw(st.sampled_from([WANG_TOKENS, CONWAY_TOKENS])))
        for index in draw(st.lists(st.integers(0, 11), max_size=2)):
            head[index] = draw(_slot(["1/3", "2/28", "2/29", "2/30", "12/12", "1/1\n"]))
        head = head[:draw(st.sampled_from([12, 12, 12, 11]))]
    elif command == "tables":
        head = []
    else:
        # Both years always come first, so neither falls back to a default
        # and a run spans at most 2000..2001. Reversed pairs are drawn too.
        head = [draw(_slot(["2000", "2001"])), draw(_slot(["2000", "2001"]))]
    groups = draw(st.lists(st.sampled_from(FLAG_GROUPS[command]), max_size=3))
    tail = [token for group in groups for token in group]
    for bad in draw(st.lists(st.sampled_from(BAD_TOKENS), max_size=1)):
        tail.insert(draw(st.integers(0, len(tail))), bad)
    return [command, *head, *tail]


@settings(deadline=None, max_examples=300)
@given(cli_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and "error:" in err
    elif argv[0] == "classify" and code == 1 and "--json" not in argv:
        assert out == "" and err.startswith("not uniform: ")
    elif "--json" in argv:
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    else:
        assert out.endswith("\n") and err == ""
