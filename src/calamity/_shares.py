"""Run one function over a sweep's year range, cut into shares, one forked process per share.

``verify`` walks its range and ``metrics`` traces its cycle through this
engine, one call per range. It knows nothing about weekdays: it cuts
the years it is given into shares, runs the given function on each
share's first and last year, and returns the functions' results in
share order.
"""

from __future__ import annotations

import _thread
import contextlib
import marshal
import os
from typing import Any, Callable


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count() -> int:
    """One worker per CPU.

    One where there is no ``os.fork``, or while other threads run: a
    forked child would hold a copy of every lock they hold. ``_thread``
    counts them without importing ``threading``.
    """
    if not hasattr(os, "fork") or _thread._count():
        return 1
    return _cpu_count()


def run(
    label: str, function: Callable[..., Any], first: int, last: int, min_years: int, *args: Any
) -> list:
    """Run ``function(a, b, *args)`` on each share ``a..b`` of ``first..last``; return the results.

    The years are cut into contiguous shares, one per worker, each of at
    least ``min_years`` unless there is only one: the sweep that owns the
    range measures where a fork starts to pay. Every share but the first
    is started in a forked child, which sends back its result marshalled
    over a pipe, or the exception it raised pickled. Then, in share order,
    a share with no child (the first, or one whose fork failed) runs here
    and each child's result is read. The first exception in share order
    is raised here, and no child outlives the call. A child that fails
    without an exception is named by ``label`` and its years.
    """
    count = max(1, min(_worker_count(), (last - first + 1) // min_years))
    bounds = [first + (last - first + 1) * i // count for i in range(count + 1)]
    shares = [(a, b - 1, *args) for a, b in zip(bounds, bounds[1:])]
    children: list[tuple[int, int] | None] = [None]
    reaped = set()
    try:
        for share in shares[1:]:
            children.append(_fork(function, share))
        results = []
        for share, child in zip(shares, children):
            if child is None:
                results.append(function(*share))
                continue
            pid, fd = child
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            worker = f"{label} worker for years {share[0]}..{share[1]}"
            if code < 0:
                import signal

                name = next((s.name for s in signal.Signals if s == -code), str(-code))
                raise RuntimeError(f"{worker} killed by signal {name}")
            if not data:
                raise RuntimeError(f"{worker} sent no result")
            if code:
                import pickle

                raise pickle.loads(data)
            results.append(marshal.loads(data))
        return results
    finally:
        for pid, fd in filter(None, children):
            os.close(fd)
            if pid not in reaped:
                import signal

                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _fork(function: Callable[..., Any], share: tuple) -> tuple[int, int] | None:
    """Start ``function(*share)`` in a forked child; returns its pid and the read end of its pipe.

    Returns ``None`` when no pipe or child can be had. The child exits 0
    after sending the marshalled result, 1 after sending its exception
    pickled. It never returns: it ends with ``os._exit``, so it flushes
    none of the stdio buffers it inherited and runs none of its caller's
    cleanup.
    """
    fds: tuple[int, ...] = ()
    try:
        fds = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 0
    try:
        os.close(read_end)
        try:
            payload = marshal.dumps(function(*share))
        except BaseException as exc:  # raised again in the parent
            import pickle

            code = 1
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(code)
