"""``_fork.split``: parts done over forked children, read back in part order."""

import ast
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hyperrank import _fork

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperrank"
_DTYPES = (np.int64, np.float64, bool)


@contextmanager
def forks_reaped(fork=os.fork):
    """While the block runs, fork with ``fork``; yields the pids of the
    children forked, as the parent sees them. A block that ends without
    raising has reaped every child, left no file descriptor open and this
    process's CPU set as it was."""
    pids = []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []
    affinity = os.sched_getaffinity(0)
    saved, os.fork = os.fork, counted
    try:
        yield pids
    finally:
        os.fork = saved
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (sorted(os.listdir("/proc/self/fd")) if fds else []) == fds
    assert os.sched_getaffinity(0) == affinity


def _numbers(pos, end, fresh=True):
    """The numbers k from ``pos`` to ``end`` as strings, with the pid of the
    process that took them and ``fresh``; and in slices of up to three, the
    columns k, k / 2 and whether k is odd."""
    slices = [(np.arange(a, min(a + 3, end)), np.arange(a, min(a + 3, end)) / 2,
               np.arange(a, min(a + 3, end)) % 2 == 1) for a in range(pos, end, 3)]
    return (list(map(str, range(pos, end))), os.getpid(), fresh), slices


def _joined(slices):
    return [(column.dtype, column.tolist()) for column in map(np.concatenate, zip(*slices))]


_PARTS = [(0, 7), (10, 18), (20, 21), (30, 44)]


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_results_come_back_in_part_order(count):
    parent = os.getpid()
    with forks_reaped() as forks:
        done = _fork.split(_PARTS[:count], _numbers, _DTYPES)
    assert len(forks) == count - 1
    for k, ((names, pid, fresh), slices) in enumerate(done):
        (expected_names, _, _), expected = _numbers(*_PARTS[k])
        assert names == expected_names
        assert (pid == parent, fresh) == (k == 0, k == 0)  # a child copies no strings
        assert len(slices) == (len(expected) if k == 0 else 1)
        assert _joined(slices) == _joined(expected)


def test_parts_that_find_no_process_to_fork_are_done_here():
    def failing():
        raise OSError("no process to spare")
    parent = os.getpid()
    with forks_reaped(failing) as forks:
        done = _fork.split(_PARTS, _numbers, _DTYPES)
    assert forks == []
    assert [pid for (_, pid, _), _ in done] == [parent] * len(_PARTS)


def _declining(here, declines, error):
    """``_numbers``, with the part starting at ``declines`` raising ``error``
    in a child, and each part's start recorded where done in this process."""
    parent = os.getpid()

    def job(pos, end, fresh=True):
        if os.getpid() == parent:
            here.append(pos)
        elif pos == declines:
            raise error("declined")
        return _numbers(pos, end, fresh)
    return job


@pytest.mark.parametrize("error", _fork.DECLINED)
def test_a_part_its_child_declines_raises_here_and_is_not_done_again(error):
    here = []
    with forks_reaped() as forks:
        with pytest.raises(_fork.Declined):
            _fork.split(_PARTS, _declining(here, 20, error), _DTYPES)
    assert len(forks) == 3
    assert here == [0]


@pytest.mark.parametrize("error", [MemoryError, RuntimeError, KeyboardInterrupt])
def test_a_part_whose_child_fails_otherwise_is_done_again_here(error):
    here = []
    with forks_reaped() as forks:
        done = _fork.split(_PARTS, _declining(here, 20, error), _DTYPES)
    assert len(forks) == 3
    assert here == [0, 20]
    assert [names for (names, _, _), _ in done] == [_numbers(*part)[0][0] for part in _PARTS]
    assert [_joined(slices) for _, slices in done] == [_joined(_numbers(*part)[1])
                                                       for part in _PARTS]


_FORKING = {"marshal", "os.fork", "os.pipe"}


def _forking_names(path):
    """The names of ``_FORKING`` that the module at ``path`` imports or reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
    return found & _FORKING


def test_only_the_fork_module_forks_and_marshals():
    assert _forking_names(SRC / "_fork.py") == _FORKING
    for path in sorted(SRC.glob("*.py")):
        if path.name != "_fork.py":
            assert _forking_names(path) == set(), path.name
