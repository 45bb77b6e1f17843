"""The engine that cuts a sweep's years into shares and runs them in forked workers."""

import errno
import os
import signal

import pytest
from hypothesis import given, strategies as st

from calamity import _shares
from support import assert_nothing_left, open_fds, probe_share, refuse


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
