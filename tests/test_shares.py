"""The engine that cuts a sweep's years into shares and runs them in forked workers."""

import errno
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from calamity import _shares
from support import assert_nothing_left, child_env, open_fds, probe_share, refuse


def _years_and_pid(first, last, tag):
    return [first, last, tag, os.getpid()]


def test_each_share_runs_once_and_its_result_comes_back_in_order(monkeypatch, deadline):
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 3)
    fds = open_fds()
    results = _shares.run("probe", _years_and_pid, 1, 6, 2, "tag")
    assert [result[:3] for result in results] == [[1, 2, "tag"], [3, 4, "tag"], [5, 6, "tag"]]
    pids = [result[3] for result in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert_nothing_left(fds)


@given(
    first=st.integers(0, 10_000),
    years=st.integers(1, 3_000),
    min_years=st.integers(1, 500),
    workers=st.integers(1, 16),
)
def test_the_cut_is_contiguous_covers_the_range_and_keeps_the_floor(
    first, years, min_years, workers
):
    # With os.fork refused every share runs here, so the results are the shares.
    last = first + years - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", refuse(errno.EAGAIN))
        patch.setattr(_shares, "_cpu_count", lambda: workers)
        shares = _shares.run("probe", lambda a, b: (a, b), first, last, min_years)
    assert len(shares) == max(1, min(workers, years // min_years))
    assert shares[0][0] == first and shares[-1][1] == last
    assert all(b + 1 == a for (_, b), (a, _) in zip(shares, shares[1:]))
    if len(shares) > 1:
        assert all(b - a + 1 >= min_years for a, b in shares)


def test_a_killed_worker_names_its_label_and_years(monkeypatch, deadline):
    here = os.getpid()

    def dies_in_a_worker(first, last):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    with pytest.raises(RuntimeError) as raised:
        _shares.run("probe", probe_share, 2000, 2399, 100, dies_in_a_worker)
    assert str(raised.value) == "probe worker for years 2200..2399 killed by signal SIGKILL"
    assert_nothing_left(fds)


def test_where_there_is_no_fork_one_share_runs_here(monkeypatch):
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 8)
    monkeypatch.delattr(os, "fork")
    assert _shares._worker_count() == 1
    assert _shares.run("probe", probe_share, 2000, 2399, 50) == [[2000, 2399, os.getpid()]]


@pytest.mark.parametrize("cpus, expected", [(5, 5), (None, 1)], ids=["counted", "unknown"])
def test_cpu_count_without_affinity_reads_os_cpu_count(monkeypatch, cpus, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _shares._cpu_count() == expected


def test_worker_count_follows_cpus_and_threads(monkeypatch):
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 8)
    assert _shares._worker_count() == 8
    # No fork while another thread runs.
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _shares._worker_count() == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 1)
    assert _shares._worker_count() == 1


# The engine's fault paths, driven with a probe share in place of a walk.


def test_a_forked_walk_that_succeeds_imports_neither_pickle_nor_signal():
    # A fresh interpreter: the test runner itself has both loaded.
    code = (
        "import os, sys; from calamity import _shares, metrics, verify; "
        "_shares._cpu_count = lambda: 2; "
        "shares = _shares.run('probe', lambda a, b: (a, b, os.getpid()), 2000, 2399, 100); "
        "print([share[:2] for share in shares], shares[0][2] != shares[1][2], "
        "sorted({'pickle', 'signal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[(2000, 2199), (2200, 2399)] True []\n"


def test_the_first_worker_error_in_date_order_is_raised_here(monkeypatch, deadline):
    # Three shares; the second and third raise different errors.
    def refuses(first, last):
        if first == 2100:
            raise ValueError(f"no result for years {first}..{last}")
        if first == 2200:
            raise TypeError(f"no result either for years {first}..{last}")

    monkeypatch.setattr(_shares, "_cpu_count", lambda: 3)
    fds = open_fds()
    with pytest.raises(ValueError) as raised:
        _shares.run("probe", probe_share, 2000, 2299, 100, refuses)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "no result for years 2100..2199"
    assert_nothing_left(fds)


def test_a_worker_error_that_cannot_be_pickled_keeps_its_type_name_and_text(monkeypatch, deadline):
    class LocalError(Exception):
        pass

    def refuses(first, last):
        if first == 2200:
            raise LocalError(f"no result for years {first}..{last}")

    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    with pytest.raises(RuntimeError) as raised:
        _shares.run("probe", probe_share, 2000, 2399, 100, refuses)
    assert str(raised.value) == "LocalError: no result for years 2200..2399"
    assert_nothing_left(fds)


def test_a_worker_killed_by_a_signal_without_a_name_reports_its_number(monkeypatch, deadline):
    # A real-time signal above SIGRTMIN is no member of signal.Signals.
    here, number = os.getpid(), signal.SIGRTMIN + 1

    def dies_in_a_worker(first, last):
        if os.getpid() != here:
            os.kill(os.getpid(), number)

    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    with pytest.raises(RuntimeError) as raised:
        _shares.run("probe", probe_share, 2000, 2399, 100, dies_in_a_worker)
    assert str(raised.value) == f"probe worker for years 2200..2399 killed by signal {number}"
    assert_nothing_left(fds)


def test_a_worker_that_exits_without_a_result_raises_runtime_error(monkeypatch, deadline):
    here = os.getpid()

    def exits_in_a_worker(first, last):
        if os.getpid() != here:
            os._exit(0)

    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    with pytest.raises(RuntimeError) as raised:
        _shares.run("probe", probe_share, 2000, 2399, 100, exits_in_a_worker)
    assert str(raised.value) == "probe worker for years 2200..2399 sent no result"
    assert_nothing_left(fds)


def test_an_interrupt_here_kills_every_worker(monkeypatch, deadline, tmp_path):
    # The interrupt comes at once here; the worker would leave a mark only
    # after ten seconds, long after it should have been killed.
    here = os.getpid()
    mark = tmp_path / "worker-finished"

    def interrupted_here(first, last):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(10)
        mark.touch()

    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    with pytest.raises(KeyboardInterrupt):
        _shares.run("probe", probe_share, 2000, 2399, 100, interrupted_here)
    assert_nothing_left(fds)
    assert not mark.exists()


@pytest.mark.parametrize(
    "call, error", [("pipe", errno.EMFILE), ("fork", errno.EAGAIN)], ids=["pipe", "fork"]
)
def test_a_share_whose_fork_fails_is_walked_here(monkeypatch, deadline, call, error):
    monkeypatch.setattr(os, call, refuse(error))
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 2)
    fds = open_fds()
    here = os.getpid()
    assert _shares.run("probe", probe_share, 2000, 2399, 100) == [
        [2000, 2199, here],
        [2200, 2399, here],
    ]
    assert_nothing_left(fds)


def test_a_share_after_one_walked_here_is_still_merged(monkeypatch, deadline):
    # Of three shares, the second cannot fork and the third can: the
    # third's result must still be read and returned.
    real_fork, forks = os.fork, []

    def first_fork_fails():
        forks.append(len(forks))
        if len(forks) == 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", first_fork_fails)
    monkeypatch.setattr(_shares, "_cpu_count", lambda: 3)
    fds = open_fds()
    here = os.getpid()
    results = _shares.run("probe", probe_share, 2000, 2299, 100)
    assert [result[:2] for result in results] == [[2000, 2099], [2100, 2199], [2200, 2299]]
    assert [result[2] == here for result in results] == [True, True, False]
    assert forks == [0, 1]
    assert_nothing_left(fds)
