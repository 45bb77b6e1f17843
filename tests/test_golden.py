"""Golden CLI transcripts: stdout and exit code of ``cli.main``, byte for byte.

Each file under ``tests/golden/`` holds the command line, the exit code
and the exact stdout of one command. Its first line, ``$ calamity …``,
is the one place that command is written, so the files are the command
list. To add a golden, write a file holding only that line, regenerate
every file with ``PYTHONPATH=src python tests/test_golden.py``, and
review the diff.
"""

import sys

import pytest

from transcripts import GOLDEN_DIR, golden_argv, transcript

GOLDENS = sorted(GOLDEN_DIR.iterdir())


@pytest.mark.parametrize("path", GOLDENS, ids=lambda path: path.name)
def test_golden(path):
    assert transcript(golden_argv(path)) == path.read_text(encoding="utf-8")


if __name__ == "__main__":
    for path in GOLDENS:
        path.write_text(transcript(golden_argv(path)), encoding="utf-8")
    print(f"wrote {len(GOLDENS)} files to {GOLDEN_DIR}", file=sys.stderr)
