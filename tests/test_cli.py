"""Command-line behavior: rendering, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from calamity.cli import main

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


def test_unknown_command_exits_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


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


def test_closed_pipe_exits_without_traceback():
    # The read end closes before the child prints anything.
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.Popen(
        [sys.executable, "-m", "calamity.cli", "verify", "2000", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
