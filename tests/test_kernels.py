"""Kernel checks: the SpMV and the walk stepper against their loop oracles."""

import contextlib
import gc
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperrank
from hyperrank import _kernels, prune_to_core, simulate_walk, walk
from hyperrank.walk import _WALK_CHUNK, _walk_tables

import oracles
from randgen import hypergraphs, random_ergodic_hypergraph, random_pruned_hypergraph

def _random_csr_arrays(rng, rows, cols, density=0.4):
    dense = rng.random((rows, cols))
    dense[dense > density] = 0.0
    indptr = [0]
    indices = []
    data = []
    for i in range(rows):
        js = np.flatnonzero(dense[i])
        indices.extend(int(j) for j in js)
        data.extend(float(x) for x in dense[i, js])
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data), dense)


def test_csr_left_multiply_matches_loop_oracle_bitwise():
    rng = np.random.default_rng(61)
    for _ in range(30):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        indptr, indices, data, dense = _random_csr_arrays(rng, rows, cols)
        x = rng.random(rows)
        out = np.full(cols, np.nan)
        expected = np.zeros(cols)
        _kernels.csr_left_multiply(indptr, indices, data, x, out)
        oracles.csr_left_multiply(indptr, indices, data, x, expected)
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_allclose(out, x @ dense, rtol=0, atol=1e-13)


def test_python_walk_steps_match_the_loop_oracle_on_a_long_walk():
    rng = np.random.default_rng(67)
    hg = random_pruned_hypergraph(rng)
    t = _walk_tables(hg)
    tables = (t.arc_ptr, t.arc_cum, t.arc_of_slot, t.head_ptr, t.head_verts)
    n = 2 * (1 << 14) + 123
    draws = rng.random((2, n))
    draws[:, ::97] = 1.0  # past every cumulative bound, so both clamps run
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    expected = np.zeros(hg.n_vertices, dtype=np.int64)
    end = _kernels.walk_steps(*tables, 0, draws[0], draws[1], counts)
    assert end == oracles.walk_steps(*tables, 0, draws[0], draws[1], expected)
    assert counts.tolist() == expected.tolist()


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _tables(hg):
    t = _walk_tables(hg)
    return (t.arc_ptr, t.arc_cum, t.arc_of_slot, t.head_ptr, t.head_verts)


def _assert_steps_match_the_oracle(tables, start, r_arc, r_head):
    n = tables[0].size - 1
    expected = np.zeros(n, dtype=np.int64)
    end = oracles.walk_steps(*tables, start, r_arc, r_head, expected)
    counts = np.zeros(n, dtype=np.int64)
    assert _kernels.walk_steps(*tables, start, r_arc, r_head, counts) == end
    assert counts.tobytes() == expected.tobytes()


def test_walk_steps_handles_boundary_draws():
    # vertex 0 leaves through arcs of 1 to 5 heads; the weights make
    # cumulative totals such as 0.1 + 0.2 that are not what they print
    arcs = [(f"h{k}", [0], range(1, k + 1), w)
            for k, w in enumerate((0.1, 0.2, 0.3, 1 / 3, 0.7), start=1)]
    for v in range(1, 6):
        arcs += [(f"b{v}", [v], [0], 1.0), (f"s{v}", [v, (v % 5) + 1], [0, 6], 0.3)]
    arcs.append(("w", [6], range(5), 1.0))
    hg = oracles.hypergraph([f"v{i}" for i in range(7)], arcs)
    tables = _tables(hg)
    ptr, cum = tables[0].tolist(), tables[1].tolist()
    r_head = [0.0, _BELOW_ONE, 1.0] + [j / hn for hn in range(1, 6) for j in range(hn)]
    for u in range(hg.n_vertices):
        # the two ends of the range, and a tie with each of u's totals
        r_arc = [0.0, _BELOW_ONE, 1.0] + cum[ptr[u]:ptr[u + 1]]
        pairs = np.array([(ra, rh) for ra in r_arc for rh in r_head]).T
        for ra, rh in pairs.T:
            _assert_steps_match_the_oracle(tables, u, ra[None], rh[None])
        _assert_steps_match_the_oracle(tables, u, pairs[0], pairs[1])


_unit_draws = st.one_of(st.floats(0.0, 1.0),
                        st.sampled_from([0.0, _BELOW_ONE, 1.0]))


@settings(max_examples=300, deadline=None)
@given(hypergraphs(), st.data())
def test_walk_steps_match_the_loop_oracle_on_random_cores(hg, data):
    core, _ = prune_to_core(hg)
    assume(core.n_vertices)
    tables = _tables(core)
    # draws that tie a cumulative total come up as often as uniform ones
    arc_draws = st.one_of(_unit_draws, st.sampled_from(tables[1].tolist()))
    n = data.draw(st.integers(1, 60))
    r_arc = np.array(data.draw(st.lists(arc_draws, min_size=n, max_size=n)))
    r_head = np.array(data.draw(st.lists(_unit_draws, min_size=n, max_size=n)))
    start = data.draw(st.integers(0, core.n_vertices - 1))
    _assert_steps_match_the_oracle(tables, start, r_arc, r_head)


def test_simulate_walk_builds_the_view_once(monkeypatch):
    hg = random_pruned_hypergraph(np.random.default_rng(73), max_vertices=12,
                                  max_arcs=25)
    build = _kernels._vertex_view
    builds = []

    def counted(*tables):
        builds.append(tables)
        return build(*tables)

    monkeypatch.setattr(_kernels, "_vertex_view", counted)
    steps = 2 * _WALK_CHUNK + 1000
    freq = simulate_walk(hg, hg.vertices[0], steps, seed=5)
    assert len(builds) == 1

    # the loop oracle over the same chunks of draws
    tables = _tables(hg)
    rng = np.random.default_rng(5)
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    u = 0
    for a in range(0, steps, _WALK_CHUNK):
        draws = rng.random((2, min(_WALK_CHUNK, steps - a)))
        u = oracles.walk_steps(*tables, u, draws[0], draws[1], counts)
    assert freq == dict(zip(hg.vertices, (counts / float(steps)).tolist()))


def test_a_new_table_set_is_never_walked_on_a_stale_view():
    rng = np.random.default_rng(79)
    draws = rng.random((2, 3000))
    a, b = (random_ergodic_hypergraph(rng, min_vertices=8, max_vertices=8)
            for _ in range(2))
    assert a.layout != b.layout
    lists_a, lists_b = ([t.tolist() for t in _tables(hg)] for hg in (a, b))
    # B after A while A's tables live, then A again
    tables_a = tuple(np.array(x) for x in lists_a)
    for tables in (tables_a, tuple(np.array(x) for x in lists_b), tables_a):
        _assert_steps_match_the_oracle(tables, 0, draws[0], draws[1])
    del tables, tables_a
    # built right after A's arrays are freed, B's may take their addresses
    tables_b = tuple(np.array(x) for x in lists_b)
    _assert_steps_match_the_oracle(tables_b, 0, draws[0], draws[1])


def test_the_view_is_released_with_its_tables():
    hg = random_pruned_hypergraph(np.random.default_rng(83))
    tables = _tables(hg)
    draws = np.random.default_rng(89).random((2, 100))
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    _kernels.walk_steps(*tables, 0, draws[0], draws[1], counts)
    assert _kernels._last
    del tables
    gc.collect()
    assert _kernels._last == ()


def test_walk_tables_are_read_only():
    tables = _tables(random_pruned_hypergraph(np.random.default_rng(97)))
    assert not any(t.flags.writeable for t in tables)


def test_kernel_backend_is_python():
    assert hyperrank.KERNEL_BACKEND == "python"


# ------------------------------------------------- the walk split over processes

_CHUNK, _STRIDE = 256, 32  # the walk made small; graphs below keep 4·|V| ≤ _STRIDE


@pytest.fixture
def small_walk(monkeypatch):
    """Chunks and pieces small enough to cross many of them in a short walk;
    returns a setter for the number of CPUs the walk sees."""
    monkeypatch.setattr(walk, "_WALK_CHUNK", _CHUNK)
    monkeypatch.setattr(walk, "_WALK_STRIDE", _STRIDE)

    def cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    return cpus


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked, as the parent sees them."""
    fork, pids = os.fork, []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def parent_calls(monkeypatch):
    """(start, steps) of every stepper call made in this process."""
    step, calls = _kernels.walk_steps, []

    def recorded(*args):
        calls.append((int(args[5]), len(args[6])))
        return step(*args)
    monkeypatch.setattr(_kernels, "walk_steps", recorded)
    return calls


def _one_process_counts(hg, start, steps, seed):
    """The loop oracle over the draws of one process walking every chunk."""
    tables = _tables(hg)
    rng = np.random.default_rng(seed)
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    u = start
    for a in range(0, steps, walk._WALK_CHUNK):
        draws = rng.random((2, min(walk._WALK_CHUNK, steps - a)))
        u = oracles.walk_steps(*tables, u, draws[0], draws[1], counts)
    return counts


def _cycle(n, skip=False):
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0; with ``skip``, vertex 0
    may also jump to 2."""
    arcs = [(f"c{i}", [i], [(i + 1) % n], 1.0) for i in range(n)]
    if skip:
        arcs.append(("skip", [0], [2], 1.0))
    return oracles.hypergraph([f"v{i}" for i in range(n)], arcs)


def _assert_split_walk_matches(hg, start, steps, seed):
    counts = walk._split_walk(walk._walk_tables(hg), start, steps, seed)
    assert counts.tobytes() == _one_process_counts(hg, start, steps, seed).tobytes()
    freq = simulate_walk(hg, hg.vertices[start], steps, seed)
    assert freq == dict(zip(hg.vertices, (counts / float(steps)).tolist()))


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("steps", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
def test_split_walk_matches_one_process_bitwise(small_walk, forks, workers, steps):
    small_walk(workers)
    rng = np.random.default_rng(101 + steps)
    hg = random_ergodic_hypergraph(rng, min_vertices=3, max_vertices=_STRIDE // 4)
    chunks = -(-steps // _CHUNK)
    for seed in (0, 7, 2 ** 40 + 3):
        for start in {0, hg.n_vertices - 1}:
            _assert_split_walk_matches(hg, start, steps, seed)
    # two walks per seed and start, each forking a child per later segment
    runs = 2 * 3 * len({0, hg.n_vertices - 1})
    assert len(forks) == runs * (min(workers, chunks) - 1)


def test_split_walk_on_a_cycle_whose_paths_never_meet(small_walk, forks, parent_calls):
    # segments start at steps 256 and 512, neither a multiple of 3: there
    # the true path stands elsewhere than the child, which started at 0, and
    # no draw moves either off the cycle
    small_walk(3)
    steps = 3 * _CHUNK + 17
    _assert_split_walk_matches(_cycle(3), 0, steps, seed=5)
    assert len(forks) == 2 * 2
    # every step of the walk whose counts were checked was walked here
    walked = parent_calls[:len(parent_calls) // 2]
    assert sum(n for _, n in walked) == steps
    assert len(walked) == 1 + 2 * (_CHUNK // _STRIDE) + 1


def test_split_walk_on_a_chain_whose_paths_meet_partway(small_walk, forks, parent_calls):
    small_walk(2)
    hg = _cycle(7, skip=True)
    _assert_split_walk_matches(hg, 0, 2 * _CHUNK, seed=4)
    assert len(forks) == 2
    calls = parent_calls[:len(parent_calls) // 2]
    # segment 0 in one call, then the true path and the child's path over
    # the same pieces before they met: neither the first piece nor none
    assert calls[0] == (0, _CHUNK)
    met = (len(calls) - 1) // 2
    assert 0 < met < _CHUNK // _STRIDE
    assert len(calls) == 1 + 2 * met
    assert all(n == _STRIDE for _, n in calls[1:])
    assert calls[1 + met][0] == 0  # the child's first piece starts at its start


@pytest.mark.parametrize("chunk", [_CHUNK, walk._WALK_CHUNK])
def test_an_advanced_stream_reproduces_each_chunks_draws(monkeypatch, chunk):
    monkeypatch.setattr(walk, "_WALK_CHUNK", chunk)
    for seed in (0, 3, 12345):
        rng = np.random.default_rng(seed)
        for k in range(3):
            expected = rng.random((2, chunk))
            bits = np.random.PCG64(seed)
            bits.advance(2 * k * chunk)
            assert np.random.Generator(bits).random((2, chunk)).tobytes() == expected.tobytes()
            buffer = np.empty(2 * chunk)
            (r_arc, r_head), = walk._pieces(seed, k * chunk, (k + 1) * chunk, chunk,
                                            buffer)
            assert r_arc.tobytes() + r_head.tobytes() == expected.tobytes()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def test_split_walk_reaps_every_child_it_forks(small_walk, forks):
    small_walk(4)
    hg = random_ergodic_hypergraph(np.random.default_rng(103), max_vertices=8)
    fds = _open_fds()
    simulate_walk(hg, hg.vertices[0], 4 * _CHUNK, seed=1)
    assert len(forks) == 3
    _assert_no_child_left()
    assert _open_fds() == fds


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_split_walk_reaps_its_children_when_the_parent_raises(small_walk, forks,
                                                               monkeypatch, error):
    small_walk(4)
    parent, step = os.getpid(), _kernels.walk_steps

    def failing(*args):
        if os.getpid() == parent:
            raise error("stepper failed")
        return step(*args)
    monkeypatch.setattr(_kernels, "walk_steps", failing)
    hg = random_ergodic_hypergraph(np.random.default_rng(107), max_vertices=8)
    fds = _open_fds()
    with pytest.raises(error, match="stepper failed"):
        simulate_walk(hg, hg.vertices[0], 4 * _CHUNK, seed=1)
    assert len(forks) == 3
    _assert_no_child_left()
    assert _open_fds() == fds


def test_a_failed_child_is_walked_again_here(small_walk, forks, monkeypatch):
    small_walk(3)
    parent, step = os.getpid(), _kernels.walk_steps

    def failing(*args):
        if os.getpid() != parent:
            raise RuntimeError("child stepper failed")
        return step(*args)
    monkeypatch.setattr(_kernels, "walk_steps", failing)
    hg = random_ergodic_hypergraph(np.random.default_rng(109), max_vertices=8)
    _assert_split_walk_matches(hg, 0, 3 * _CHUNK + 17, seed=2)
    assert len(forks) == 4
    _assert_no_child_left()


def test_a_child_that_fails_after_writing_is_not_trusted(small_walk, monkeypatch,
                                                         parent_calls):
    # a payload that meets the true path at once, then a failed exit: as if
    # the child had been killed partway through a write
    small_walk(2)
    hg = _cycle(3)

    def failed(write, tables, start, seed, first, last, stride):
        pieces = -(-(last - first) // stride)
        payload = np.array([0] + [first % 3] * pieces + [0] * hg.n_vertices)
        os.write(write, payload.astype(np.int64).tobytes())
        os._exit(1)
    monkeypatch.setattr(walk, "_walk_segment", failed)
    steps = 2 * _CHUNK
    _assert_split_walk_matches(hg, 0, steps, seed=6)
    walked = parent_calls[:len(parent_calls) // 2]
    assert sum(n for _, n in walked) == steps
    _assert_no_child_left()


def test_an_ignored_sigchld_keeps_the_walk_in_one_process(small_walk, forks):
    small_walk(4)
    hg = random_ergodic_hypergraph(np.random.default_rng(127), max_vertices=8)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        _assert_split_walk_matches(hg, 0, 3 * _CHUNK + 17, seed=4)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert forks == []


def test_children_reaped_by_a_sigchld_handler_are_walked_again_here(small_walk, forks,
                                                                    monkeypatch):
    # the caller's handler may collect a child's exit status before the walk does
    small_walk(4)
    hg = random_ergodic_hypergraph(np.random.default_rng(131), max_vertices=8)
    reaped = []

    def reap(signum, frame):
        with contextlib.suppress(ChildProcessError):
            while pid := os.waitpid(-1, os.WNOHANG)[0]:
                reaped.append(pid)
    previous = signal.signal(signal.SIGCHLD, reap)
    try:
        for seed in range(5):
            _assert_split_walk_matches(hg, 0, 3 * _CHUNK + 17, seed)
        # and the parent fails once its children are gone
        parent, step = os.getpid(), _kernels.walk_steps

        def failing(*args):
            if os.getpid() != parent:
                return step(*args)
            for _ in range(1000):
                if set(forks[-3:]) <= set(reaped):
                    break
                time.sleep(0.01)
            raise RuntimeError("stepper failed")
        monkeypatch.setattr(_kernels, "walk_steps", failing)
        with pytest.raises(RuntimeError, match="stepper failed"):
            simulate_walk(hg, hg.vertices[0], 3 * _CHUNK + 17, seed=1)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 5 * 2 * 3 + 3
    assert set(forks[-3:]) <= set(reaped)
    _assert_no_child_left()


def test_a_second_thread_keeps_the_walk_in_one_process(small_walk, forks):
    small_walk(4)
    hg = random_ergodic_hypergraph(np.random.default_rng(113), max_vertices=8)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        _assert_split_walk_matches(hg, 0, 3 * _CHUNK + 17, seed=3)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
