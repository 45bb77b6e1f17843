"""Replay the golden CLI transcripts with the standard library alone.

Run it with ``PYTHONPATH=src python tests/replay_goldens.py``. It needs
no third-party package, so it shows on any supported Python, before
pytest is installed, that the package and its input contract need none.
It checks:

* every ``tests/golden/*`` file against a fresh run of the command on
  its own first line, the one place a golden's command is written (to
  add one, write a file holding only its ``$ calamity …`` line, run
  ``PYTHONPATH=src python tests/test_golden.py`` and review the diff),
* that ``calamity weekday`` rejects non-ISO dates with exit code 2,
* that all four weekday routes agree on every date of 2000.

It prints one line per mismatch and exits 1 if there is any.
"""

import contextlib
import io
import sys

from calamity.cli import main
from calamity.verify import differential_sweep

from transcripts import GOLDEN_DIR, golden_argv, transcript

#: Basic format, ISO week date, a time part, and Arabic-Indic digits.
REJECTED_DATES = ("20251225", "2025-W52-4", "2025-12-25T00", "٢٠٢٥-١٢-٢٥")


def golden_mismatches() -> list[str]:
    mismatches = []
    for path in sorted(GOLDEN_DIR.iterdir()):
        if transcript(golden_argv(path)) != path.read_text(encoding="utf-8"):
            mismatches.append(f"{path.name}: output differs from the golden file")
    return mismatches


def contract_mismatches() -> list[str]:
    mismatches = []
    for text in REJECTED_DATES:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["weekday", text])
        if code != 2:
            mismatches.append(f"weekday {text!r}: exit {code}, expected 2")
    return mismatches


def differential_mismatches() -> list[str]:
    result = differential_sweep(2000, 2000)
    if result.cases == 366 and result.ok:
        return []
    return [f"differential 2000..2000: {result.cases} cases, {result.failures} failures"]


def replay() -> int:
    mismatches = golden_mismatches() + contract_mismatches() + differential_mismatches()
    for line in mismatches:
        print(line)
    goldens = len(list(GOLDEN_DIR.iterdir()))
    print(f"{goldens} goldens, {len(REJECTED_DATES)} rejected dates, 366 dates: "
          f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(replay())
