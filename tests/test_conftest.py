"""The suite's own set-up in ``tests/conftest.py``."""

import os
import subprocess
import sys
from pathlib import Path

from support import child_env

TESTS = Path(__file__).resolve().parent

FAILING_THEN_PASSING = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n > n


def test_after():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    """A falsified ``@given`` test reports its example; later tests still run.

    On a failure, hypothesis's plugin imports libcst, which warns as it
    is imported, and ``filterwarnings = ["error"]`` would turn that into
    an INTERNALERROR that ends the session. Where libcst is absent there
    is no such warning, and this test cannot fail.
    """
    (tmp_path / "test_throwaway.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS), env["PYTHONPATH"]])
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
            # The suite's settings and its conftest, for a file outside tests/.
            "-c", str(TESTS.parent / "pyproject.toml"), "-p", "conftest",
            "--rootdir", str(tmp_path), "test_throwaway.py",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "test_throwaway.py::test_after PASSED" in done.stdout
