"""Work split over forked child processes, each sending one buffer back.

``split`` is the only place ``src/`` forks. The canonical JSON loader
(``ingest._sliced``) and the reaction text parser
(``ingest.parse_reactions_text``) each cut their text into contiguous parts
and hand ``split`` the parts and a job for one part. The first part is done
in the calling process and every later one in a child, which sends its
result back through a pipe as one buffer; the buffers are read in part
order. A part whose child failed, or was never forked, is done again in
the calling process, so the result never depends on how many children ran.
A part that its child's job declines raises ``Declined`` in the caller.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import signal
import threading
from functools import partial
from itertools import chain
from typing import BinaryIO, Callable, Sequence

import numpy as np


class Declined(Exception):
    """A part is not what the fast path reads: the input is read again the
    slow way, which alone raises errors."""


# what a job raises where it does not take its part
DECLINED = (Declined, ValueError, KeyError, TypeError, RecursionError)


def split(parts: Sequence[tuple], job: Callable[..., tuple[object, list]], dtypes: tuple
          ) -> list[tuple[object, list]]:
    """Per part, in part order, what ``job(*part)`` gives: some strings and
    a list of slices, each a tuple of one column of each of the ``dtypes``.

    The first part is done here. A forked child does each later one as
    ``job(*part, fresh=False)``, since marshalling copies its strings
    anyway, and its slices come back joined into one (see ``_send``). A
    part whose child failed is done here, as is every part from the first
    that found no process to fork. Where a child's job raised one of
    ``DECLINED``, this raises ``Declined`` without doing that part here.
    """
    with Children() as children:
        for k in range(1, len(parts)):
            if not children.fork(k, partial(_send, partial(job, *parts[k], fresh=False), dtypes)):
                break  # no process to spare: the rest is done here
        done = [job(*parts[0])]
        for k in range(1, len(parts)):
            done.append(_received(children.collect(k), dtypes) or job(*parts[k]))
    return done


def _send(job: Callable[[], tuple[object, list]], dtypes: tuple, write: int) -> None:
    """In a forked child: write to the pipe ``write`` one buffer of what
    ``job()`` gives (see ``split``). That is the int64 word 0 and each
    column's length; each column's slices, one after another; and the
    strings, marshalled. Where the job declines its part, it is the word 1
    alone."""
    try:
        strings, slices = job()
        sizes = [sum(len(s[k]) for s in slices) for k in range(len(dtypes))]
        buffers = [np.array([0, *sizes], dtype=np.int64), *chain.from_iterable(zip(*slices)),
                   marshal.dumps(strings)]
    except DECLINED:
        buffers = [np.array([1], dtype=np.int64)]
    with open(write, "wb") as pipe:
        pipe.writelines(buffers)


def _received(data: bytes | None, dtypes: tuple) -> tuple[object, list] | None:
    """The strings and the one slice of columns of the buffer a child sent
    (see ``_send``); None where the child failed. Raises ``Declined`` where
    its job declined its part."""
    if data is None:
        return None
    if np.frombuffer(data, dtype=np.int64, count=1)[0]:
        raise Declined
    sizes = np.frombuffer(data, dtype=np.int64, count=len(dtypes), offset=8).tolist()
    columns, at = [], 8 * (len(dtypes) + 1)
    for size, dtype in zip(sizes, dtypes):
        columns.append(np.frombuffer(data, dtype=dtype, count=size, offset=at))
        at += size * np.dtype(dtype).itemsize
    return marshal.loads(memoryview(data)[at:]), [tuple(columns)]


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

    Each child starts by leaving the CPU this process ran on at the first
    fork: a scheduler may otherwise keep a new child beside its parent for
    longer than a short part takes. This process's own CPU set is never
    changed. Used as a context: on exit every child not yet collected is
    killed and reaped, also when the block raises, and a child that reaches
    the exit leaves through ``os._exit``.
    """

    def __init__(self):
        self._parent = os.getpid()
        self._open: dict[int, tuple[int, BinaryIO]] = {}  # part -> (pid, pipe)
        self._cpu = None  # the CPU to leave, read at the first fork

    def __enter__(self) -> "Children":
        return self

    def fork(self, part: int, job: Callable[[int], None]) -> bool:
        """Run ``job(write)`` in a new child, where ``write`` is the pipe's
        write end; the child exits 0 once the job returns and 1 if it
        raises, writing nothing to stdout or stderr. False, with no child,
        where the fork fails."""
        if self._cpu is None:
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
