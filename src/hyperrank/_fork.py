"""Work split over forked child processes, each sending one buffer back.

Used by the seeded walk (``walk._split_walk``), the canonical JSON loader
(``ingest._sliced``) and the reaction text parser
(``ingest.parse_reactions_text``): each cuts its work into contiguous
parts, does the first part in the calling process and hands every later
part to a child, then reads the children's buffers in part order. A part whose child
failed, or was never forked, is done again in the calling process, so the
result never depends on how many children ran.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
from typing import BinaryIO, Callable


def worker_count(parts: int) -> int:
    """One process per available CPU, at most one per part. One alone where
    there is no fork; where a second thread is alive, since a child would
    hold a copy of any lock that thread held and no thread to release it;
    and where SIGCHLD is ignored, since no child's exit status is kept."""
    if parts < 2 or not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork") \
            or threading.active_count() > 1 \
            or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
        return 1
    return min(_cpu_count(), parts)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _cpu_now() -> int | None:
    """The CPU this process ran on last, where the system's /proc says."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        return None


def _leave(cpu: int | None) -> None:
    """Let the calling thread run on any CPU it may use but ``cpu``, where
    that leaves one."""
    if cpu is None:
        return
    cpus = os.sched_getaffinity(0) - {cpu}
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


class Children:
    """Forked children, one per part, each writing one buffer to its pipe.

    With ``apart``, each child starts by leaving the CPU this process ran
    on at the first fork: a scheduler may otherwise keep a new child beside
    its parent for longer than a short part takes. This process's own CPU
    set is never changed. Used as a context: on exit every child not yet
    collected is killed and reaped, also when the block raises, and a child
    that reaches the exit leaves through ``os._exit``.
    """

    def __init__(self, apart: bool = False):
        self._parent = os.getpid()
        self._open: dict[int, tuple[int, BinaryIO]] = {}  # part -> (pid, pipe)
        self._apart = apart
        self._cpu = None  # the CPU to leave, read at the first fork

    def __enter__(self) -> "Children":
        return self

    def fork(self, part: int, job: Callable[[int], None]) -> bool:
        """Run ``job(write)`` in a new child, where ``write`` is the pipe's
        write end; the child exits 0 once the job returns and 1 if it
        raises, writing nothing to stdout or stderr. False, with no child,
        where the fork fails."""
        if self._apart and self._cpu is None:
            self._cpu = _cpu_now()
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read)
            os.close(write)
            return False
        if pid == 0:
            code = 1
            try:
                os.close(read)
                if self._apart:
                    _leave(self._cpu)
                job(write)
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self._open[part] = (pid, open(read, "rb"))
        return True

    def collect(self, part: int) -> bytes | None:
        """The buffer the part's child wrote, once it exited 0; None where no
        child was forked for the part, it failed, or another waiter took its
        exit status."""
        if part not in self._open:
            return None
        pid, pipe = self._open[part]
        data = pipe.read()
        pipe.close()
        try:
            ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        except ChildProcessError:  # reaped elsewhere: its exit status is lost
            ok = False
        del self._open[part]
        return data if ok else None

    def __exit__(self, *exc) -> None:
        if os.getpid() != self._parent:  # a child that escaped its job
            os._exit(1)
        for pid, pipe in self._open.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._open.clear()
