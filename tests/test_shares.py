"""The engine that runs a sweep's year shares in forked workers."""

import os

from calamity import _shares
from support import assert_nothing_left, open_fds


def _years_and_pid(first, last, tag):
    return [first, last, tag, os.getpid()]


def test_each_share_runs_once_and_its_result_comes_back_in_order(deadline):
    fds = open_fds()
    shares = [(1, 2, "a"), (3, 4, "b"), (5, 6, "c")]
    results = _shares.run("probe", _years_and_pid, shares)
    assert [tuple(result[:3]) for result in results] == shares
    pids = [result[3] for result in results]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 3
    assert_nothing_left(fds)

