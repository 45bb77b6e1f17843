"""The verification sweeps over the whole supported range."""

import errno
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from calamity import conway, method, systems, verify
from calamity.core import MAX_YEAR, MIN_YEAR, WEEKDAYS
from calamity.verify import MAX_EXAMPLES, _Recorder, differential_sweep


def test_differential_sweep_full_range():
    # Every date from 1583-01-01 through 9999-12-31 through all four routes.
    result = differential_sweep(MIN_YEAR, MAX_YEAR)
    assert result.cases == 3_074_246
    assert result.failures == 0
    assert result.examples == ()


def test_recorder_formats_only_the_examples_it_keeps():
    formatted = []

    class Probe:
        def __format__(self, spec):
            formatted.append(spec)
            return f"probe:{spec}"

    rec = _Recorder()
    rec.case(True, "{}", Probe())
    for _ in range(MAX_EXAMPLES + 3):
        rec.case(False, "case {:d}", Probe())
    result = rec.result("probe")
    assert (result.cases, result.failures) == (MAX_EXAMPLES + 4, MAX_EXAMPLES + 3)
    assert result.examples == ("case probe:d",) * MAX_EXAMPLES
    assert formatted == ["d"] * MAX_EXAMPLES


def test_verify_range_walks_each_date_once(monkeypatch):
    # One walk feeds the differential and the seven systems: the first
    # cycle is not walked a second time, and its oracle runs once per date.
    spans, oracle_calls = [], 0
    real_iter_dates, real_oracle = verify.iter_dates, verify.oracle_weekday

    def recording_iter_dates(start_year, end_year):
        spans.append((start_year, end_year))
        return real_iter_dates(start_year, end_year)

    def counting_oracle(date):
        nonlocal oracle_calls
        oracle_calls += 1
        return real_oracle(date)

    monkeypatch.setattr(verify, "iter_dates", recording_iter_dates)
    monkeypatch.setattr(verify, "oracle_weekday", counting_oracle)
    # A forked worker would count in its own memory.
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    summary = verify.verify_range(1600, 2100)
    assert summary.ok
    assert oracle_calls == summary.dates_tested == 182_987
    assert spans[0][0] == 1600 and spans[-1][1] == 2100
    assert all(end + 1 == start for (_, end), (start, _) in zip(spans, spans[1:]))


def test_verify_catches_a_leap_rule_without_the_century_exception(monkeypatch):
    # Only the leap rule the routes read is wrong; the oracle's stays right.
    # January and February of 1700, 1800, 1900, 2100, 2200, 2300 and 2500
    # then run a day late: 7 * 59 dates, and the systems see the first three.
    for module in (conway, method, systems):
        monkeypatch.setattr(module, "_is_leap", lambda year: year % 4 == 0)
    summary = verify.verify_range(1583, 2599)
    failed = {check.name: check.failures for check in summary.checks if not check.ok}
    assert failed == {"differential": 413, "anchor-systems": 1_239}
    examples = {check.name: check.examples[0] for check in summary.checks if not check.ok}
    assert examples == {
        "differential": "1700-01-01: oracle=5 standard=4 forward=4 backward=4",
        "anchor-systems": "k=0 1700-01-01: system weekday != oracle",
    }


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def deadline():
    """A walk that hangs fails the test after 60 s instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("the walk took more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_nothing_left(fds_before):
    # Every worker is reaped and every pipe closed, however the walk ended.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds_before


def test_each_span_gets_one_share_per_cpu_of_at_least_min_share_years(monkeypatch):
    # A share is (first, last, routes, systems): the systems walk only the
    # first cycle, and only the checks that ask for them.
    cut = []

    def record(walks):
        cut.append(walks)
        return [[(0, 0, []), (0, 0, [])] for _ in walks]

    monkeypatch.setattr(verify, "_walk_shares", record)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 8)
    assert verify.MIN_SHARE_YEARS == 50
    verify.verify_range(1583, 1681)
    verify.verify_range(1583, 1682)
    verify.verify_range(1600, 2000)
    assert cut == [
        [(1583, 1681, True, True)],
        [(1583, 1632, True, True), (1633, 1682, True, True)],
        [(year, year + 49, True, True) for year in range(1600, 2000, 50)],
        [(2000, 2000, True, False)],
    ]
    cut.clear()
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    verify.verify_range(1583, 2599)
    verify.differential_sweep(1583, 2599)
    verify.anchor_system_check(1583, 2599)
    assert cut == [
        [(1583, 1782, True, True), (1783, 1982, True, True)],
        [(1983, 2290, True, False), (2291, 2599, True, False)],
        [(1583, 1782, True, False), (1783, 1982, True, False)],
        [(1983, 2290, True, False), (2291, 2599, True, False)],
        [(1583, 1782, False, True), (1783, 1982, False, True)],
    ]


def test_worker_count_follows_cpus_and_threads(monkeypatch):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 8)
    assert verify._worker_count() == 8
    # No fork while another thread runs.
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert verify._worker_count() == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    assert verify._worker_count() == 1


def _late_weekday(real):
    return lambda date: WEEKDAYS[(real(date) + 1) % 7] if date.day == 13 else real(date)


def _late_knot(real):
    return lambda day, code: (real(day, code) + 1) % 7 if day == 13 else real(day, code)


@pytest.mark.parametrize(
    "sweep, module, route, late, cases, failures, last_example, calls",
    [
        pytest.param(
            verify.verify_range, verify, "weekday_calamity", _late_weekday,
            146_463, 401 * 12, "2000-05-13: oracle=6 standard=6 forward=0 backward=6",
            146_463, id="verify_range",
        ),
        pytest.param(
            verify.differential_sweep, verify, "weekday_calamity", _late_weekday,
            146_463, 401 * 12, "2000-05-13: oracle=6 standard=6 forward=0 backward=6",
            146_463, id="differential_sweep",
        ),
        # The systems walk 2000..2399 alone, in two shares at 2 CPUs, after
        # 27 structure cases per system.
        pytest.param(
            verify.anchor_system_check, systems, "square_knot_forward", _late_knot,
            7 * 27 + 7 * 146_097, 7 * 400 * 12, "k=4 2000-01-13: system weekday != oracle",
            7 * 146_097, id="anchor_system_check",
        ),
    ],
)
def test_a_forked_walk_reports_what_one_walk_reports(
    monkeypatch, deadline, sweep, module, route, late, cases, failures, last_example, calls
):
    # The route runs a day late on every 13th: twelve failures a year, far
    # more than MAX_EXAMPLES in each share of 2000..2400, so the examples
    # must come from the first share and the counts from all.
    faulty, here = late(getattr(module, route)), os.getpid()
    calls_here = 0

    def late_on_the_13th(*args):
        nonlocal calls_here
        calls_here += os.getpid() == here
        return faulty(*args)

    monkeypatch.setattr(module, route, late_on_the_13th)
    fds = _open_fds()
    results, walked_here = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
        calls_here = 0
        results[cpus] = sweep(2000, 2400)
        walked_here[cpus] = calls_here
    assert results[2] == results[1]
    check = results[1].checks[0] if sweep is verify.verify_range else results[1]
    assert (check.cases, check.failures) == (cases, failures)
    assert check.examples[-1] == last_example
    assert walked_here[2] < walked_here[1] == calls
    _assert_nothing_left(fds)


def test_a_forked_walk_that_succeeds_imports_neither_pickle_nor_signal():
    # A fresh interpreter: the test runner itself has both loaded.
    code = (
        "import sys; from calamity import verify; verify._cpu_count = lambda: 2; "
        "assert verify.verify_range(2000, 2199).ok; "
        "print(sorted({'pickle', 'signal'} & set(sys.modules)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_the_first_worker_error_in_date_order_is_raised_here(monkeypatch, deadline):
    # Three shares per span; the second and third raise different errors.
    real = verify.weekday_standard

    def refuses(date):
        if date.year == 2200:
            raise ValueError(f"no weekday for {date}")
        if date.year == 2300:
            raise TypeError(f"no weekday either for {date}")
        return real(date)

    monkeypatch.setattr(verify, "weekday_standard", refuses)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 3)
    fds = _open_fds()
    with pytest.raises(ValueError) as raised:
        verify.verify_range(2000, 2800)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "no weekday for 2200-01-01"
    _assert_nothing_left(fds)


def test_a_worker_error_that_cannot_be_pickled_keeps_its_type_name_and_text(monkeypatch, deadline):
    class LocalError(Exception):
        pass

    real = verify.weekday_standard

    def refuses(date):
        if date.year == 2300:
            raise LocalError(f"no weekday for {date}")
        return real(date)

    monkeypatch.setattr(verify, "weekday_standard", refuses)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    fds = _open_fds()
    with pytest.raises(RuntimeError) as raised:
        verify.verify_range(2000, 2400)
    assert str(raised.value) == "LocalError: no weekday for 2300-01-01"
    _assert_nothing_left(fds)


def test_a_killed_worker_raises_runtime_error(monkeypatch, deadline):
    real, here = verify.weekday_standard, os.getpid()

    def dies_in_a_worker(date):
        if os.getpid() != here:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(date)

    monkeypatch.setattr(verify, "weekday_standard", dies_in_a_worker)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    fds = _open_fds()
    with pytest.raises(RuntimeError) as raised:
        verify.verify_range(2000, 2400)
    assert str(raised.value) == "verify worker for years 2200..2399 killed by signal SIGKILL"
    _assert_nothing_left(fds)


def test_a_worker_killed_by_a_signal_without_a_name_reports_its_number(monkeypatch, deadline):
    # A real-time signal above SIGRTMIN is no member of signal.Signals.
    real, here, number = verify.weekday_standard, os.getpid(), signal.SIGRTMIN + 1

    def dies_in_a_worker(date):
        if os.getpid() != here:
            os.kill(os.getpid(), number)
        return real(date)

    monkeypatch.setattr(verify, "weekday_standard", dies_in_a_worker)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    fds = _open_fds()
    with pytest.raises(RuntimeError) as raised:
        verify.verify_range(2000, 2400)
    assert str(raised.value) == f"verify worker for years 2200..2399 killed by signal {number}"
    _assert_nothing_left(fds)


def test_a_worker_that_exits_without_a_result_raises_runtime_error(monkeypatch, deadline):
    real, here = verify.weekday_standard, os.getpid()

    def exits_in_a_worker(date):
        if os.getpid() != here:
            os._exit(0)
        return real(date)

    monkeypatch.setattr(verify, "weekday_standard", exits_in_a_worker)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    fds = _open_fds()
    with pytest.raises(RuntimeError) as raised:
        verify.verify_range(2000, 2400)
    assert str(raised.value) == "verify worker for years 2200..2399 sent no result"
    _assert_nothing_left(fds)


def test_an_interrupt_here_kills_every_worker(monkeypatch, deadline, tmp_path):
    # The interrupt comes on this process's first date, long before the
    # worker could reach the last date of its share and leave a mark.
    real, here = verify.weekday_standard, os.getpid()
    mark = tmp_path / "worker-finished"

    def interrupted_here(date):
        if os.getpid() == here:
            raise KeyboardInterrupt
        if (date.year, date.month, date.day) == (2399, 12, 31):
            mark.touch()
        return real(date)

    monkeypatch.setattr(verify, "weekday_standard", interrupted_here)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    fds = _open_fds()
    with pytest.raises(KeyboardInterrupt):
        verify.verify_range(2000, 2400)
    _assert_nothing_left(fds)
    assert not mark.exists()


@pytest.mark.parametrize(
    "call, error", [("pipe", errno.EMFILE), ("fork", errno.EAGAIN)], ids=["pipe", "fork"]
)
def test_a_share_whose_fork_fails_is_walked_here(monkeypatch, deadline, call, error):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    alone = verify.verify_range(2000, 2400)

    def fails():
        raise OSError(error, os.strerror(error))

    monkeypatch.setattr(os, call, fails)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    fds = _open_fds()
    assert verify.verify_range(2000, 2400) == alone
    _assert_nothing_left(fds)


def test_a_share_after_one_walked_here_is_still_merged(monkeypatch, deadline):
    # Of three shares, the second cannot fork and the third can: the
    # third's result must still be read and merged.
    monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
    alone = verify.verify_range(2000, 2400)
    real_fork, forks = os.fork, []

    def first_fork_fails():
        forks.append(len(forks))
        if len(forks) == 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", first_fork_fails)
    monkeypatch.setattr(verify, "_cpu_count", lambda: 3)
    fds = _open_fds()
    assert verify.verify_range(2000, 2400) == alone
    assert forks == [0, 1]
    _assert_nothing_left(fds)
