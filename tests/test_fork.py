"""``_fork.split``: parts done over forked children, read back in part order;
and the checks that one module of ``src/`` forks and one class draws."""

import ast
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from hyperrank import _fork

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperrank"


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
    columns k (int64), k / 2 (float64), whether k is odd and k / 3 (float32,
    which neither reader sends)."""
    slices = [(k, k / 2, k % 2 == 1, (k / 3).astype(np.float32))
              for a in range(pos, end, 3) for k in [np.arange(a, min(a + 3, end))]]
    return (list(map(str, range(pos, end))), os.getpid(), fresh), slices


def _joined(slices):
    return [(column.dtype, column.tobytes()) for column in map(np.concatenate, zip(*slices))]


_PARTS = [(0, 7), (10, 18), (20, 21), (30, 44)]


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_results_come_back_in_part_order(count):
    parent = os.getpid()
    with forks_reaped() as forks:
        done = _fork.split(_PARTS[:count], _numbers)
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
        done = _fork.split(_PARTS, _numbers)
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
            _fork.split(_PARTS, _declining(here, 20, error))
    assert len(forks) == 3
    assert here == [0]


@pytest.mark.parametrize("error", [MemoryError, RuntimeError, KeyboardInterrupt])
def test_a_part_whose_child_fails_otherwise_is_done_again_here(error):
    here = []
    with forks_reaped() as forks:
        done = _fork.split(_PARTS, _declining(here, 20, error))
    assert len(forks) == 3
    assert here == [0, 20]
    assert [names for (names, _, _), _ in done] == [_numbers(*part)[0][0] for part in _PARTS]
    assert [_joined(slices) for _, slices in done] == [_joined(_numbers(*part)[1])
                                                       for part in _PARTS]


def _shapes(pos, end, fresh=True):
    """``_numbers``, but a part of no numbers gives one slice of empty
    columns, and a part that starts below 0 no slices at all."""
    strings, slices = _numbers(pos, end, fresh)
    if pos == end:
        slices = [tuple(column[:0] for column in _numbers(0, 1)[1][0])]
    return strings, [] if pos < 0 else slices


def test_a_childs_columns_come_back_as_done_here():
    parts = [(0, 7), (7, 7), (-3, 2), (10, 11)]
    with forks_reaped() as forks:
        done = _fork.split(parts, _shapes)
    assert len(forks) == 3
    for part, ((names, _, _), slices) in zip(parts, done):
        (expected_names, _, _), expected = _shapes(*part)
        assert names == expected_names
        assert _joined(slices) == _joined(expected)
    assert [len(slices) for _, slices in done[1:]] == [1, 0, 1]
    assert [column.dtype for column in done[1][1][0]] == [np.int64, np.float64, bool, np.float32]


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_children_are_killed_and_reaped_when_the_parents_part_raises(error):
    parent = os.getpid()

    def job(pos, end, fresh=True):
        if os.getpid() == parent:
            raise error("the parent's part")
        time.sleep(60)  # a child still running when its parent raises
        return _numbers(pos, end, fresh)
    began = time.monotonic()
    with forks_reaped() as forks:
        with pytest.raises(error):
            _fork.split(_PARTS, job)
    assert len(forks) == 3
    assert time.monotonic() - began < 30


def test_a_child_leaves_its_parents_cpu(monkeypatch):
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one CPU")
    left, cpu_now = [], _fork._cpu_now
    monkeypatch.setattr(_fork, "_cpu_now", lambda: left.append(cpu_now()) or left[-1])

    def mask(pos, end, fresh=True):
        return sorted(os.sched_getaffinity(0)), []
    with forks_reaped():
        done = _fork.split(_PARTS[:3], mask)
    assert len(left) == 1  # read once, before the first fork
    assert [strings for strings, _ in done] == [sorted(cpus)] + [sorted(cpus - {left[0]})] * 2
    assert left[0] in cpus or left[0] is None
    _fork.split(_PARTS[:1], mask)
    assert len(left) == 1  # nothing to fork, nothing read


# what reaps, exits or moves a child, sends its buffer or forks it
_FORKING = {"marshal", "os.fork", "os.pipe", "os.kill", "os.waitpid", "os._exit",
            "os.sched_setaffinity"}


def _names(tree):
    """The names that the syntax tree ``tree`` imports or reads."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {node.module} | {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def _forking_names(path):
    """The names of ``_FORKING`` that the module at ``path`` imports or reads."""
    return _names(ast.parse(path.read_text(encoding="utf-8"))) & _FORKING


def test_only_the_fork_module_forks_and_marshals():
    assert _forking_names(SRC / "_fork.py") == _FORKING
    for path in sorted(SRC.glob("*.py")):
        if path.name != "_fork.py":
            assert _forking_names(path) == set(), path.name


def _readers(*names):
    """The top-level definitions of ``src/hyperrank`` that import or read
    any of ``names``, each as module.definition ("module." for the
    module's own statements)."""
    return {f"{path.stem}.{getattr(top, 'name', '')}" for path in sorted(SRC.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body
            if _names(top) & set(names)}


def test_only_the_walks_draws_read_numpy_random():
    # one source of the walk's random numbers, so seeded walks agree
    # whichever stepper walks them
    assert _readers("np.random", "numpy.random") == {"walk._Draws"}


def test_one_slice_rule_and_one_part_rule_read_the_cut_sizes():
    # both readers cut their text through these two functions alone
    assert _readers("_SLICE_CHARS", "ingest._SLICE_CHARS") == {"ingest._slices"}
    assert _readers("_PART_CHARS", "ingest._PART_CHARS") == {"ingest._parts"}
