"""Golden CLI transcripts, shared by ``test_golden.py`` and ``replay_goldens.py``.

Imports nothing outside the standard library and the package, so the
replay script runs on a Python without pytest.
"""

import contextlib
import io
from pathlib import Path

from calamity.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def transcript(argv: tuple[str, ...]) -> str:
    """Command line, exit code and stdout of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"$ calamity {' '.join(argv)}\n[exit {code}]\n{out.getvalue()}"
