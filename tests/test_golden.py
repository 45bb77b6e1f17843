"""Golden CLI transcripts: stdout and exit code of ``cli.main``, byte for byte.

Each file under ``tests/golden/`` holds the command line, the exit code
and the exact stdout of one command. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import sys

import pytest

from transcripts import GOLDEN_DIR, transcript

WANG_TOKENS = ("1/1", "2/12", "3/5", "4/2", "5/7", "6/4",
               "7/9", "8/6", "9/3", "10/8", "11/12", "12/10")


def _commands() -> dict[str, tuple[str, ...]]:
    commands: dict[str, tuple[str, ...]] = {}
    for json_flag, suffix in (((), "txt"), (("--json",), "json")):
        for direction in (None, "forward", "backward", "auto"):
            argv = ("weekday", "2025-12-25", "--trace")
            if direction is not None:
                argv += ("--direction", direction)
            commands[f"weekday-trace-{direction or 'default'}.{suffix}"] = argv + json_flag
        for method in ("standard", "oracle"):
            argv = ("weekday", "2025-12-25", "--method", method)
            commands[f"weekday-{method}.{suffix}"] = argv + json_flag
        for k in (0, 5):
            for leap in (False, True):
                argv = ("tables", "--system", str(k)) + (("--leap",) if leap else ())
                name = f"tables-{k}{'-leap' if leap else ''}.{suffix}"
                commands[name] = argv + json_flag
        commands[f"classify-wang.{suffix}"] = ("classify",) + WANG_TOKENS + json_flag
        commands[f"verify-2000-2001.{suffix}"] = ("verify", "2000", "2001") + json_flag
        commands[f"metrics-2000-2005.{suffix}"] = ("metrics", "2000", "2005") + json_flag
    commands["verify-reversed.txt"] = ("verify", "2001", "2000")
    return commands


COMMANDS = _commands()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden(name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert transcript(COMMANDS[name]) == expected


def test_golden_files_all_covered():
    assert {path.name for path in GOLDEN_DIR.iterdir()} == set(COMMANDS)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN_DIR / name).write_text(transcript(argv), encoding="utf-8")
    print(f"wrote {len(COMMANDS)} files to {GOLDEN_DIR}", file=sys.stderr)
