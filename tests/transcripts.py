"""Golden CLI transcripts, shared by ``test_golden.py`` and ``replay_goldens.py``.

Imports nothing outside the standard library and the package, so the
replay script runs on a Python without pytest.
"""

import contextlib
import io
from pathlib import Path

from calamity.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
PROMPT = "$ calamity "


def golden_argv(path: Path) -> tuple[str, ...]:
    """The command on a golden file's first line, the one place it is written."""
    line = path.read_text(encoding="utf-8").split("\n", 1)[0]
    if not line.startswith(PROMPT):
        raise ValueError(f"{path.name}: first line does not start with {PROMPT!r}")
    return tuple(line.removeprefix(PROMPT).split(" "))


def transcript(argv: tuple[str, ...]) -> str:
    """Command line, exit code and stdout of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"{PROMPT}{' '.join(argv)}\n[exit {code}]\n{out.getvalue()}"
