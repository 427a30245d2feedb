"""Kernel checks: the SpMV and the walk stepper against their loop oracles."""

import gc
import os

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
    tables = tuple(_walk_tables(hg))
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
    return tuple(_walk_tables(hg))


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
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    u = 0
    for r_arc, r_head in oracles.walk_draws(5, steps, _WALK_CHUNK):
        u = oracles.walk_steps(*tables, u, r_arc, r_head, counts)
    assert freq == dict(zip(hg.vertices, (counts / float(steps)).tolist()))


def test_the_one_path_walk_steps_a_whole_chunk_a_call(parent_calls):
    # perfbench's kernels.walk_steps spans count the steps of each call
    hg = random_pruned_hypergraph(np.random.default_rng(73), max_vertices=12,
                                  max_arcs=25)
    counts = walk._one_walk(_walk_tables(hg), 0, 2 * _WALK_CHUNK + 1000, 5)
    assert [m for _, m in parent_calls] == [_WALK_CHUNK, _WALK_CHUNK, 1000]
    assert counts.sum() == 2 * _WALK_CHUNK + 1000


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


# ------------------------------------------------------- the lane stepper

def _oracle_path(tables, start, r_arc, r_head):
    """The loop oracle's vertex after each step of one path."""
    counts = np.zeros(tables[0].size - 1, dtype=np.int64)
    u, path = int(start), []
    for ra, rh in zip(r_arc, r_head):
        u = oracles.walk_steps(*tables, u, ra[None], rh[None], counts)
        path.append(u)
    return path


def _assert_lanes_match_the_oracle(tables, starts, r_arc, r_head):
    """Lane k walks from starts[k] on row k of the draws; each path and end
    vertex is the oracle's over that row."""
    lanes = _kernels.lane_tables(*tables)
    path = np.full((r_arc.shape[1], len(starts)), -1, dtype=np.intp)
    end = _kernels.walk_lanes(lanes, np.array(starts, dtype=np.intp), r_arc, r_head, path)
    for k, start in enumerate(starts):
        expected = _oracle_path(tables, start, r_arc[k], r_head[k])
        assert path[:, k].tolist() == expected
        assert end[k] == expected[-1]
    return lanes


def _totals_in_range(tables):
    return [t for t in tables[1].tolist() if t <= 1.0]


def _lane_draws(rng, tables, lanes, steps):
    """Uniform draws with every boundary case mixed in: 0.0, just below 1.0,
    1.0, and each cumulative total exactly (those not past 1.0, as draws
    never are)."""
    r_arc, r_head = rng.random((2, lanes, steps))
    special = np.array([0.0, _BELOW_ONE, 1.0] + _totals_in_range(tables))
    hit = rng.random((lanes, steps)) < 0.3
    r_arc[hit] = rng.choice(special, hit.sum())
    hit = rng.random((lanes, steps)) < 0.1
    r_head[hit] = rng.choice(special[:3], hit.sum())
    return r_arc, r_head


def test_walk_lanes_match_the_loop_oracle_on_seeded_tables():
    rng = np.random.default_rng(137)
    for i in range(20):
        hg = (random_pruned_hypergraph if i % 2 else random_ergodic_hypergraph)(rng)
        tables = _tables(hg)
        starts = rng.integers(0, hg.n_vertices, 9).tolist()
        _assert_lanes_match_the_oracle(tables, starts, *_lane_draws(rng, tables, 9, 150))


def test_walk_lanes_handle_boundary_draws():
    # the fixture of test_walk_steps_handles_boundary_draws: every vertex
    # from every start, on each draw pair of the boundary cases
    arcs = [(f"h{k}", [0], range(1, k + 1), w)
            for k, w in enumerate((0.1, 0.2, 0.3, 1 / 3, 0.7), start=1)]
    for v in range(1, 6):
        arcs += [(f"b{v}", [v], [0], 1.0), (f"s{v}", [v, (v % 5) + 1], [0, 6], 0.3)]
    arcs.append(("w", [6], range(5), 1.0))
    hg = oracles.hypergraph([f"v{i}" for i in range(7)], arcs)
    tables = _tables(hg)
    r_head = [0.0, _BELOW_ONE, 1.0] + [j / hn for hn in range(1, 6) for j in range(hn)]
    r_arc = [0.0, _BELOW_ONE, 1.0] + _totals_in_range(tables)
    pairs = np.array([(ra, rh) for ra in r_arc for rh in r_head]).T
    starts = list(range(hg.n_vertices))
    _assert_lanes_match_the_oracle(tables, starts, np.tile(pairs[0], (7, 1)),
                                   np.tile(pairs[1], (7, 1)))


def _fan(weights):
    """Vertex 0 leaves through one arc per weight, arc j to vertex j + 1
    and, for every third, to vertex 1 as well; every other vertex returns
    to 0."""
    k = len(weights)
    arcs = [(f"a{j}", [0], [j + 1] + ([1] if j % 3 == 2 else []), w)
            for j, w in enumerate(weights)]
    arcs += [(f"r{v}", [v], [0], 1.0) for v in range(1, k + 1)]
    return oracles.hypergraph([f"v{i}" for i in range(k + 1)], arcs)


@pytest.mark.parametrize("weights, crowded", [
    # 1e10 and 5e-324 of a total of 2e10: a step that underflows to 0, so
    # two consecutive totals are equal
    ([1e10, 5e-324, 1e10], True),
    # twenty totals within 1e-12 of each other: one bucket at every level
    ([1.0] + [1e-13] * 20 + [1.0], True),
    # a hub: hundreds of arcs, unequal weights
    ([1.0 + (j % 7) / 3 for j in range(300)], False),
])
def test_walk_lanes_on_equal_crowded_and_many_totals(weights, crowded):
    hg = _fan(weights)
    tables = _tables(hg)
    cum = tables[1][:len(weights)]
    assert (np.diff(cum) == 0).any() == (weights[1] == 5e-324)
    rng = np.random.default_rng(len(weights))
    starts = [0] * 12 + [1, 2]
    lanes = _assert_lanes_match_the_oracle(tables, starts,
                                           *_lane_draws(rng, tables, len(starts), 200))
    assert (lanes.span > 1) == crowded
    # the tables hold a bounded number of entries per tail slot
    assert lanes.low.size <= 2 ** (_kernels._FINER + 1) * (cum.size + hg.n_vertices) + 1


@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.data())
def test_walk_lanes_match_the_loop_oracle_on_random_cores(hg, data):
    core, _ = prune_to_core(hg)
    assume(core.n_vertices)
    tables = _tables(core)
    arc_draws = st.one_of(_unit_draws, st.sampled_from(_totals_in_range(tables)))
    k = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 30))
    r_arc = np.array(data.draw(st.lists(arc_draws, min_size=k * m, max_size=k * m)))
    r_head = np.array(data.draw(st.lists(_unit_draws, min_size=k * m, max_size=k * m)))
    starts = data.draw(st.lists(st.integers(0, core.n_vertices - 1), min_size=k, max_size=k))
    _assert_lanes_match_the_oracle(tables, starts, r_arc.reshape(k, m), r_head.reshape(k, m))


def test_walk_lanes_step_pairs_of_walkers_on_one_lane_of_draws():
    # walkers shaped (2, K): both rows read row k of the draws
    rng = np.random.default_rng(139)
    hg = random_ergodic_hypergraph(rng, min_vertices=6)
    tables = _tables(hg)
    r_arc, r_head = _lane_draws(rng, tables, 4, 60)
    u = rng.integers(0, hg.n_vertices, (2, 4))
    path = np.empty((60, 2, 4), dtype=np.intp)
    _kernels.walk_lanes(_kernels.lane_tables(*tables), u, r_arc, r_head, path)
    for row in range(2):
        for k in range(4):
            assert path[:, row, k].tolist() == _oracle_path(tables, u[row, k], r_arc[k],
                                                             r_head[k])


# --------------------------------------------------------- the walk as lanes

_CHUNK = 256  # the walk made small


@pytest.fixture
def small_walk(monkeypatch):
    """Chunks, blocks and segments small enough to cross many of them in a
    short walk, and every walk walked as lanes; returns a setter for the
    segment length."""
    monkeypatch.setattr(walk, "_WALK_CHUNK", _CHUNK)
    monkeypatch.setattr(walk, "_BLOCK", 16)
    monkeypatch.setattr(walk, "_LANE_WALK", 1)

    def segment(steps):
        monkeypatch.setattr(walk, "_SEGMENT", steps)
    return segment


@pytest.fixture
def lane_calls(monkeypatch):
    """The walker shape and step count of every lane stepper call."""
    step, calls = _kernels.walk_lanes, []

    def recorded(lanes, u, r_arc, r_head, path):
        calls.append((np.shape(u), r_arc.shape[1]))
        return step(lanes, u, r_arc, r_head, path)
    monkeypatch.setattr(_kernels, "walk_lanes", recorded)
    return calls


@pytest.fixture
def parent_calls(monkeypatch):
    """(start, steps) of every call of the one-path stepper."""
    step, calls = _kernels.walk_steps, []

    def recorded(*args):
        calls.append((int(args[5]), len(args[6])))
        return step(*args)
    monkeypatch.setattr(_kernels, "walk_steps", recorded)
    return calls


def _one_process_counts(hg, start, steps, seed):
    """The loop oracle over the draws of one process walking every chunk."""
    tables = _tables(hg)
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    u = start
    for r_arc, r_head in oracles.walk_draws(seed, steps, walk._WALK_CHUNK):
        u = oracles.walk_steps(*tables, u, r_arc, r_head, counts)
    return counts


def _cycle(n, skip=False):
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0; with ``skip``, vertex 0
    may also jump to 2."""
    arcs = [(f"c{i}", [i], [(i + 1) % n], 1.0) for i in range(n)]
    if skip:
        arcs.append(("skip", [0], [2], 1.0))
    return oracles.hypergraph([f"v{i}" for i in range(n)], arcs)


def _assert_lane_walk_matches(hg, start, steps, seed):
    """The lane walk's counts, and simulate_walk's, are those of one
    process; returns whether the walk was walked as lanes."""
    expected = _one_process_counts(hg, start, steps, seed)
    counts = walk._lane_walk(walk._walk_tables(hg), start, steps, seed)
    if counts is not None:
        assert counts.tobytes() == expected.tobytes()
    freq = simulate_walk(hg, hg.vertices[start], steps, seed)
    assert freq == dict(zip(hg.vertices, (expected / float(steps)).tolist()))
    return counts is not None


@pytest.mark.parametrize("lanes", [1, 2, 3, 4])
@pytest.mark.parametrize("steps", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 17])
def test_lane_walk_matches_one_process_bitwise(small_walk, lanes, steps):
    # the walk split into `lanes` segments of equal length, after the steps
    # short of whole segments
    small_walk(max(steps // lanes, 1))
    hg = _hg3()
    walked = [_assert_lane_walk_matches(hg, start, steps, seed)
              for seed in (0, 7, 2 ** 40 + 3) for start in (0, hg.n_vertices - 1)]
    # a one-step walk leaves the probe no steps, so it falls back
    assert walked == [steps > 1] * len(walked)


def _hg3():
    """v1 -> {v2, v3}, v2 -> v3, v3 -> v1: paths from apart meet within a
    few steps."""
    return oracles.hypergraph(["v1", "v2", "v3"], [
        ("e1", [0], [1, 2], 1.0), ("e2", [1], [2], 2.0), ("e3", [2], [0], 1.0)])


@pytest.mark.parametrize("steps, segment, block", [
    (1200, 200, 8),   # block ends at steps 256, 512 and 768, inside segments
    (1024, 256, 8),   # segments end at every chunk boundary
    (1024, 128, 48),  # a segment and a block end together at 256, 512, 768
    (1003, 100, 16),  # a lead of 3 steps, then 10 segments
    (1000, 50, 16),   # 20 segments of 50 steps would be too many: 12 of 83
])
def test_lanes_cross_chunk_boundaries_wherever_they_fall(small_walk, monkeypatch,
                                                         lane_calls, steps, segment, block):
    small_walk(segment)
    monkeypatch.setattr(walk, "_BLOCK", block)
    monkeypatch.setattr(walk, "_LANES", 12)
    rng = np.random.default_rng(steps + segment)
    for seed in (0, 7, 2 ** 40 + 3):
        hg = random_ergodic_hypergraph(rng, min_vertices=3, max_vertices=5,
                                       extra_arcs=6)
        for start in (0, hg.n_vertices - 1):
            assert _assert_lane_walk_matches(hg, start, steps, seed)
    # every pass kept to its block length, and to the lanes allowed
    assert max(m for _, m in lane_calls) == block
    assert max(shape[0] for shape, _ in lane_calls if len(shape) == 1) == min(
        steps // segment, 12)


def test_lane_draws_are_the_draws_one_walk_reads(monkeypatch):
    monkeypatch.setattr(walk, "_WALK_CHUNK", _CHUNK)
    steps = 3 * _CHUNK + 100  # the last chunk is short
    arcs, heads = np.concatenate(list(oracles.walk_draws(9, steps, _CHUNK)), axis=1)
    # lanes that start inside a chunk, at a boundary, a block short of one
    # (so a block ends on it), one step short of one, and that cross into
    # the short chunk
    begins = [0, 5, _CHUNK - 32, _CHUNK, 2 * _CHUNK - 1, 3 * _CHUNK - 64]
    draws = walk._Draws(9, steps, begins, 32)
    for done in range(0, 128, 32):
        r_arc, r_head = draws.block(32)
        for k, t in enumerate(begins):
            assert r_arc[k].tobytes() == arcs[t + done:t + done + 32].tobytes()
            assert r_head[k].tobytes() == heads[t + done:t + done + 32].tobytes()
    # dropped lanes leave the others' streams where they were
    draws.keep(np.array([2, 5]))
    r_arc, r_head = draws.block(16)
    for row, t in enumerate((begins[2] + 128, begins[5] + 128)):
        assert r_arc[row].tobytes() == arcs[t:t + 16].tobytes()
        assert r_head[row].tobytes() == heads[t:t + 16].tobytes()


def test_lane_walk_on_a_cycle_whose_paths_never_meet(small_walk, lane_calls, parent_calls):
    # every walker of the probe moves round the cycle in step with the
    # others, so the probe spends its whole budget and the walk falls back
    small_walk(_CHUNK)
    steps = 4 * _CHUNK
    assert walk._lane_walk(walk._walk_tables(_cycle(3)), 0, steps, 5) is None
    # three walkers on one lane of draws, for half a segment's steps
    assert {shape for shape, _ in lane_calls} == {(3, 1)}
    assert sum(m for _, m in lane_calls) == _CHUNK // 2
    assert parent_calls == []
    lane_calls.clear()
    assert not _assert_lane_walk_matches(_cycle(3), 0, steps, seed=5)
    # the fallback walks every step on the one-path stepper
    assert sum(m for _, m in parent_calls) == steps
    assert sum(m for _, m in lane_calls) == 2 * _CHUNK // 2


def test_lane_walk_on_a_chain_whose_paths_meet_partway(small_walk, lane_calls,
                                                       parent_calls):
    segment = 4 * _CHUNK
    small_walk(segment)
    hg = _cycle(7, skip=True)
    counts = walk._lane_walk(walk._walk_tables(hg), 0, 4 * segment, 4)
    assert counts.tobytes() == _one_process_counts(hg, 0, 4 * segment, 4).tobytes()
    assert parent_calls == []
    # the probe, four lanes in one pass, then pairs walked again until they
    # met: neither at once nor only at their segments' ends
    shapes = [shape for shape, _ in lane_calls]
    assert shapes.count((4,)) == segment // 16
    again = [m for shape, m in lane_calls if len(shape) == 2 and shape[0] == 2]
    assert 0 < sum(again) < segment


def test_a_walk_of_lane_length_forks_nothing(monkeypatch):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 0)
    hg = _hg3()
    steps = walk._LANE_WALK
    counts = walk._lane_walk(walk._walk_tables(hg), 0, steps, 3)
    assert counts is not None and counts.sum() == steps
    assert forks == []


@pytest.mark.parametrize("chunk", [_CHUNK, walk._WALK_CHUNK])
def test_an_advanced_stream_reproduces_each_chunks_draws(monkeypatch, chunk):
    monkeypatch.setattr(walk, "_WALK_CHUNK", chunk)
    for seed in (0, 3, 12345):
        for k, expected in enumerate(oracles.walk_draws(seed, 3 * chunk, chunk)):
            bits = np.random.PCG64(seed)
            bits.advance(2 * k * chunk)
            assert np.random.Generator(bits).random((2, chunk)).tobytes() == expected.tobytes()
            # a lane from the chunk's first step, one block of the whole chunk
            draws = walk._Draws(seed, 3 * chunk, [k * chunk], chunk)
            assert draws.block(chunk).tobytes() == expected.tobytes()
