"""Work split over forked child processes, each sending one buffer back.

``split`` is the only place ``src/`` forks. The canonical JSON loader
(``ingest._sliced``) and the reaction text parser
(``ingest.parse_reactions_text``) each cut their text into contiguous parts
and hand ``split`` the parts and a job for one part. The first part is done
in the calling process and every later one in a child, which sends its
result back through a pipe as one buffer that states its columns' lengths
and dtypes; the buffers are read in part order, and a child not yet read
when ``split`` raises is killed and reaped. A part whose child failed, or
was never forked, is done again in the calling process, so the result never
depends on how many children ran. A part that its child's job declines
raises ``Declined`` in the caller.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import signal
import threading
from functools import partial
from typing import BinaryIO, Callable, Sequence

import numpy as np


class Declined(Exception):
    """A part is not what the fast path reads: the input is read again the
    slow way, which alone raises errors."""


# what a job raises where it does not take its part
DECLINED = (Declined, ValueError, KeyError, TypeError, RecursionError)


def split(parts: Sequence[tuple], job: Callable[..., tuple[object, list]]
          ) -> list[tuple[object, list]]:
    """Per part, in part order, what ``job(*part)`` gives: some strings and
    a list of slices, each a tuple of columns of numbers or bools.

    The first part is done here. A forked child does each later one as
    ``job(*part, fresh=False)``, since marshalling copies its strings
    anyway, and its slices come back joined into one (see ``_send``). A
    part whose child failed is done here, as is every part from the first
    that found no process to fork. Where a child's job raised one of
    ``DECLINED``, this raises ``Declined`` without doing that part here.
    Every child not yet read when this returns or raises is killed and
    reaped.

    Each child starts by leaving the CPU this process ran on before the
    first fork: a scheduler may otherwise keep a new child beside its
    parent for longer than a short part takes. This process's own CPU set
    is never changed.
    """
    children = []  # (pid, pipe) of each part from the second not yet read
    try:
        cpu = _cpu_now() if len(parts) > 1 else None
        for part in parts[1:]:
            child = _forked(partial(_send, partial(job, *part, fresh=False)), cpu)
            if child is None:
                break  # no process to spare: the rest is done here
            children.append(child)
        done = [job(*parts[0])]
        for part in parts[1:]:
            data = _collected(*children[0]) if children else None
            del children[:1]
            done.append(_received(data) or job(*part))
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return done


def _forked(job: Callable[[int], None], cpu: int | None) -> tuple[int, BinaryIO] | None:
    """A new child that leaves ``cpu`` and runs ``job(write)``, ``write``
    being its pipe's write end: its pid and the pipe's read end. The child
    exits 0 once the job returns and 1 if it raises, writing nothing to
    stdout or stderr. None, with no child, where the fork fails."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            _leave(cpu)
            job(write)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _collected(pid: int, pipe: BinaryIO) -> bytes | None:
    """The buffer the child ``pid`` wrote to ``pipe``, once it exited 0;
    None where it failed or another waiter took its exit status."""
    data = pipe.read()
    pipe.close()
    try:
        ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    except ChildProcessError:  # reaped elsewhere: its exit status is lost
        ok = False
    return data if ok else None


def _send(job: Callable[[], tuple[object, list]], write: int) -> None:
    """In a forked child: write to the pipe ``write`` one buffer of what
    ``job()`` gives (see ``split``). That is the int64 words 0, the number
    of columns and each column's length; each column's dtype code
    (``dtype.str``, in 8 bytes); each column's slices, one after another,
    in the dtype that joining them gives; and the strings, marshalled.
    Where the job declines its part, the first word is 1 and no column
    follows. A column of other than numbers or bools fails the child."""
    declined, strings, slices = 0, None, []
    try:
        strings, slices = job()
    except DECLINED:
        declined = 1
    columns = list(zip(*slices))
    dtypes = [np.result_type(*{s.dtype for s in column}) for column in columns]
    # an object column's bytes are pointers, and a string's code may not fit
    if any(dtype.kind not in "biufc" for dtype in dtypes):
        raise NotImplementedError("a column of other than numbers")  # redone in the parent
    sizes = [sum(map(len, column)) for column in columns]
    with open(write, "wb") as pipe:
        pipe.writelines([np.array([declined, len(columns), *sizes], dtype=np.int64),
                         np.array([dtype.str for dtype in dtypes], dtype="S8"),
                         *(np.asarray(s, dtype) for column, dtype in zip(columns, dtypes)
                           for s in column), marshal.dumps(strings)])


def _received(data: bytes | None) -> tuple[object, list] | None:
    """The strings and the one slice of columns of the buffer a child sent
    (see ``_send``), no slice where it sent no column; None where the child
    failed. Raises ``Declined`` where its job declined its part."""
    if data is None:
        return None
    declined, count = np.frombuffer(data, dtype=np.int64, count=2).tolist()
    if declined:
        raise Declined
    sizes = np.frombuffer(data, dtype=np.int64, count=count, offset=16).tolist()
    codes = np.frombuffer(data, dtype="S8", count=count, offset=16 + 8 * count).tolist()
    columns, at = [], 16 + 16 * count
    for size, dtype in zip(sizes, map(np.dtype, codes)):
        columns.append(np.frombuffer(data, dtype=dtype, count=size, offset=at))
        at += size * dtype.itemsize
    return marshal.loads(memoryview(data)[at:]), [tuple(columns)] if columns else []


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
