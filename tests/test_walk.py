import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrank import (DirectedHypergraph, RankVector, build_incidence,
                       build_transition, compute_degrees, pagerank_power,
                       prune_to_core, simulate_walk, stationary_dense_oracle,
                       top_k, tv_distance)
from hyperrank import sparse
from hyperrank.core import ArcLayout
from hyperrank.errors import (DanglingVertexError, DenseLimitExceededError,
                              MultipleSolutionsError, NoConvergenceError)
from hyperrank.walk import _walk_tables

import oracles
from randgen import (hypergraphs, random_ergodic_hypergraph, random_hypergraph,
                     random_pruned_hypergraph)

HG3_PI = np.array([0.4, 0.2, 0.4])


def entrywise_transition_oracle(hg):
    """Brute-force per-entry evaluation of the two-stage walk probability."""
    deg = compute_degrees(hg)
    n = hg.n_vertices
    dense = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            total = 0.0
            for j, arc in enumerate(oracles.arc_rows(hg)):
                if u in arc.tail and v in arc.head:
                    total += arc.weight / deg.vertex_tail[u] / deg.arc_head[j]
            dense[u, v] = total
    return dense


def matrix_formula_oracle(hg):
    """The same matrix via dense diagonal/incidence products."""
    h_tail, h_head = build_incidence(hg)
    deg = compute_degrees(hg)
    w = np.diag(hg.layout.weight)
    d_vt_inv = np.diag(1.0 / deg.vertex_tail)
    d_eh_inv = np.diag(1.0 / deg.arc_head.astype(float))
    return d_vt_inv @ h_tail.to_dense() @ w @ d_eh_inv @ h_head.to_dense().T


# ------------------------------------------------------------- transition

def test_transition_two_cycle(two_cycle):
    P = build_transition(two_cycle)
    assert P.to_dense().tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_transition_hg3_rows(hg3):
    P = build_transition(hg3)
    np.testing.assert_array_equal(
        P.to_dense(), [[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


def test_transition_dangling_error(chain):
    with pytest.raises(DanglingVertexError) as exc:
        build_transition(chain)
    assert "c" in exc.value.vertices


def test_transition_uniform_jump(chain):
    P = build_transition(chain, dangling="uniform-jump")
    dense = P.to_dense()
    np.testing.assert_allclose(dense[2], [1 / 3, 1 / 3, 1 / 3])
    assert P.row_sum_defect() <= 1e-12


def test_transition_matches_both_oracles():
    rng = np.random.default_rng(31)
    for _ in range(40):
        hg = random_pruned_hypergraph(rng, max_vertices=12, max_arcs=25)
        dense = build_transition(hg).to_dense()
        np.testing.assert_allclose(dense, entrywise_transition_oracle(hg),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(dense, matrix_formula_oracle(hg),
                                   rtol=0, atol=1e-13)


def test_transition_stochastic_on_random_cores():
    rng = np.random.default_rng(37)
    for _ in range(100):
        hg = random_pruned_hypergraph(rng)
        P = build_transition(hg)
        assert P.row_sum_defect() <= 1e-12
        assert P.matrix.data.min() >= 0.0


def test_transition_weight_scale_invariance():
    rng = np.random.default_rng(41)
    for scale in (0.001, 3.7, 2500.0):
        hg = random_pruned_hypergraph(rng, max_vertices=10, max_arcs=20)
        scaled = dataclasses.replace(hg, layout=dataclasses.replace(
            hg.layout, weight=hg.layout.weight * scale))
        np.testing.assert_allclose(build_transition(hg).to_dense(),
                                   build_transition(scaled).to_dense(),
                                   rtol=0, atol=1e-14)


def test_transition_empty_hypergraph_rejected():
    with pytest.raises(ValueError):
        build_transition(DirectedHypergraph.from_named_arcs([]))


def test_transition_type_enforces_stochasticity():
    from hyperrank import TransitionMatrix
    with pytest.raises(ValueError, match="sum to one"):
        TransitionMatrix(oracles.from_dense([[0.5, 0.4], [1.0, 0.0]]), ("a", "b"))
    with pytest.raises(ValueError, match="shape"):
        TransitionMatrix(oracles.from_dense([[1.0]]), ("a", "b"))


def _assert_transition_matches_oracle(hg):
    if not hg.n_vertices:
        return
    ref = oracles.build_transition(hg, uniform_jump=True)
    got = build_transition(hg, dangling="uniform-jump").matrix
    assert oracles.csr_bytes(got) == oracles.csr_bytes(ref)
    # and the replaced packed COO build of the same entries
    packed = oracles.from_coo_packed(hg.n_vertices, hg.n_vertices,
                                     *oracles.transition_coo(hg, uniform_jump=True))
    assert oracles.csr_bytes(got) == oracles.csr_bytes(packed)
    if compute_degrees(hg).vertex_tail.min() > 0:
        assert oracles.csr_bytes(build_transition(hg).matrix) == oracles.csr_bytes(ref)


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_transition_matches_loop_oracle_bitwise(hg):
    _assert_transition_matches_oracle(hg)
    _assert_transition_matches_oracle(prune_to_core(hg)[0])


def test_transition_matches_loop_oracle_on_seeded_hypergraphs():
    rng = np.random.default_rng(73)
    for _ in range(40):
        _assert_transition_matches_oracle(random_hypergraph(rng))  # has dangling rows
        _assert_transition_matches_oracle(random_pruned_hypergraph(rng))


def test_transition_sums_a_pair_over_its_arcs_in_arc_order():
    # a reaches b through all three arcs; the three steps only sum to the
    # stored value when added in arc order
    hg = DirectedHypergraph.from_named_arcs([
        ("e1", ["a"], ["b"], 0.1),
        ("e2", ["a"], ["b", "c"], 0.2),
        ("e3", ["a"], ["b"], 0.3),
        ("back", ["b", "c"], ["a"], 1.0),
    ])
    deg = compute_degrees(hg)
    steps = [w / h / deg.vertex_tail[0] for w, h in ((0.1, 1), (0.2, 2), (0.3, 1))]
    in_order = (0.0 + steps[0] + steps[1]) + steps[2]
    assert in_order != (0.0 + steps[2] + steps[1]) + steps[0]
    P = build_transition(hg)
    assert P.to_dense()[0, 1] == in_order
    assert oracles.csr_bytes(P.matrix) == oracles.csr_bytes(oracles.build_transition(hg))


def test_transition_uniform_jump_rows_match_loop_oracle(chain):
    P = build_transition(chain, dangling="uniform-jump")
    ref = oracles.build_transition(chain, uniform_jump=True)
    assert oracles.csr_bytes(P.matrix) == oracles.csr_bytes(ref)
    a, b = P.matrix.indptr[2:4]
    assert P.matrix.indices[a:b].tolist() == [0, 1, 2]


def _assert_blocked_build_matches_oracles(hg):
    """P built a block of 1 to 8 entries at a time, bitwise as the replaced
    packed COO build of the same entries and, where no w/|head| is
    subnormal, as the loop oracle; under both policies."""
    if not hg.n_vertices:
        return
    n = hg.n_vertices
    packed = oracles.csr_bytes(oracles.from_coo_packed(
        n, n, *oracles.transition_coo(hg, uniform_jump=True)))
    per_head = hg.layout.weight / compute_degrees(hg).arc_head
    loop = per_head.min(initial=1.0) >= np.finfo(np.float64).tiny
    if loop:
        assert packed == oracles.csr_bytes(oracles.build_transition(hg, uniform_jump=True))
    dangles = compute_degrees(hg).vertex_tail.min() == 0.0
    for size in (1, 2, 3, 5, 8):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "_BLOCK", size)
            assert oracles.csr_bytes(build_transition(hg, dangling="uniform-jump").matrix) == packed
            if not dangles:
                assert oracles.csr_bytes(build_transition(hg).matrix) == packed


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_transition_built_in_small_blocks_matches_the_oracles_bitwise(hg):
    _assert_blocked_build_matches_oracles(hg)
    _assert_blocked_build_matches_oracles(prune_to_core(hg)[0])


def test_transition_built_in_small_blocks_matches_the_oracles_on_seeded_hypergraphs():
    rng = np.random.default_rng(83)
    for _ in range(15):
        _assert_blocked_build_matches_oracles(random_hypergraph(rng))  # has dangling rows
        _assert_blocked_build_matches_oracles(random_pruned_hypergraph(rng))


def test_transition_built_in_small_blocks_on_its_edge_cases():
    # a's row has 9 entries, more than any block, and reaches b, c, d and e
    # through two arcs each; g and h dangle, so their rows of 8 entries
    # fill a block each; "tiny" makes a w/|head| subnormal, so that every
    # step divides by the tail sum first, and its steps to x and y round
    # to zero, so that those pairs are not stored
    hg = DirectedHypergraph.from_named_arcs([
        ("e1", ["a"], ["b", "c", "d"], 0.1),
        ("e2", ["a"], ["c", "d", "e"], 0.2),
        ("e3", ["a"], ["b", "e", "g"], 0.3),
        ("back", ["b", "c", "d", "e"], ["a"], 1.0),
        ("tiny", ["h"], ["x", "y"], 5e-324),
        ("big", ["h"], ["a"], 1.0),
        ("out", ["x", "y"], ["h"], 1.0),
    ], vertices=["a", "b", "c", "d", "e", "g", "h", "x", "y"])
    assert (hg.layout.weight / compute_degrees(hg).arc_head).min() == 0.0
    _assert_blocked_build_matches_oracles(hg)
    P = build_transition(hg, dangling="uniform-jump").matrix
    h = hg.vertices.index("h")
    a, b = P.indptr[h:h + 2]
    assert (P.indices[a:b].tolist(), P.data[a:b].tolist()) == ([0], [1.0])
    assert np.diff(P.indptr).tolist() == [5, 1, 1, 1, 1, 9, 1, 1, 1]


def _seeded_core(n: int, m: int, seed: int) -> DirectedHypergraph:
    """The core of n vertices and m arcs of 1 to 5 tail and head vertices,
    each side a run of consecutive indices (mod n), disjoint from the other."""
    rng = np.random.default_rng(seed)
    tail_len, head_len = rng.integers(1, 6, (2, m))
    first = rng.integers(0, n, m)
    head_first = first + tail_len + rng.integers(0, n - 10, m)

    def side(start, lengths):
        offset = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return (np.repeat(start, lengths) + offset) % n

    hg = DirectedHypergraph([f"v{i}" for i in range(n)], [f"e{j}" for j in range(m)],
                            ArcLayout.from_sides(tail_len, side(first, tail_len), head_len,
                                                 side(head_first, head_len),
                                                 rng.uniform(0.5, 2.0, m)))
    return prune_to_core(hg)[0]


def test_transition_build_and_multiply_hold_little_beyond_P():
    # 20,000 vertices and 60,000 arcs: P has 536,832 entries, 8.7 MB; the
    # build traces 1.34 times that, and traced 2.72 times while it held all
    # of P's unsummed entries and their sort keys; a multiply holds one
    # product per entry, where a copy of the frozen column indices doubled it
    core = _seeded_core(20000, 60000, 89)
    tracemalloc.start()
    try:
        P = build_transition(core).matrix
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = P.indptr.nbytes + P.indices.nbytes + P.data.nbytes
    assert build_peak <= 1.5 * size, build_peak / size
    x, y = np.full(P.rows, 1.0 / P.rows), np.zeros(P.rows)
    tracemalloc.start()
    try:
        P.left_multiply(x, out=y)
        multiply_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert multiply_peak <= 8 * P.nnz + 32 * (P.rows + 1), multiply_peak / (8 * P.nnz)
    # the same vector as the replaced scatter, which summed in the same order
    assert y.tobytes() == np.bincount(
        P.indices, weights=P.data * np.repeat(x, np.diff(P.indptr)), minlength=P.rows).tobytes()


def _assert_walk_tables_match_oracle(hg):
    tables = _walk_tables(hg)
    got = (tables.arc_ptr, tables.arc_cum, tables.arc_of_slot, tables.head_ptr,
           tables.head_verts)
    for mine, ref in zip(got, oracles.walk_tables(hg)):
        assert mine.dtype == ref.dtype
        assert mine.flags.c_contiguous
        assert mine.tobytes() == ref.tobytes()


@settings(max_examples=200, deadline=None)
@given(hypergraphs())
def test_walk_tables_match_loop_oracle_bitwise(hg):
    core, _ = prune_to_core(hg)
    if core.n_vertices:
        _assert_walk_tables_match_oracle(core)


def test_walk_tables_match_loop_oracle_on_seeded_cores():
    rng = np.random.default_rng(79)
    for _ in range(30):
        _assert_walk_tables_match_oracle(random_pruned_hypergraph(rng))
        _assert_walk_tables_match_oracle(random_ergodic_hypergraph(rng))


# ----------------------------------------------------------- power method

def test_power_hg3(hg3):
    rank = pagerank_power(build_transition(hg3))
    np.testing.assert_allclose(rank.values, HG3_PI, rtol=0, atol=1e-9)
    assert rank.normalization == "l1"
    assert rank.residual < 1e-10


def test_power_two_cycle_damped(two_cycle):
    rank = pagerank_power(build_transition(two_cycle), damping=0.85)
    np.testing.assert_allclose(rank.values, [0.5, 0.5], atol=1e-12)


def test_power_two_cycle_undamped_converges_from_uniform(two_cycle):
    # the uniform start is exactly stationary for any 2-vertex chain, so
    # damping 1 converges immediately despite the period-2 structure
    rank = pagerank_power(build_transition(two_cycle))
    np.testing.assert_allclose(rank.values, [0.5, 0.5], atol=1e-12)
    assert rank.iterations == 1


def test_power_no_convergence_on_asymmetric_periodic(periodic3):
    with pytest.raises(NoConvergenceError) as exc:
        pagerank_power(build_transition(periodic3), max_iterations=500)
    err = exc.value
    assert err.iterations == 500
    assert err.residual > 0.1
    assert err.iterate.shape == (3,)
    # damping restores convergence
    rank = pagerank_power(build_transition(periodic3), damping=0.85)
    assert rank.values[0] > rank.values[1]


def test_power_k_cycle_uniform_via_damping():
    for k in (3, 4, 7):
        arcs = [(f"e{i}", [f"v{i}"], [f"v{(i + 1) % k}"], 1.0) for i in range(k)]
        hg = DirectedHypergraph.from_named_arcs(arcs)
        rank = pagerank_power(build_transition(hg), damping=0.9)
        np.testing.assert_allclose(rank.values, np.full(k, 1.0 / k), atol=1e-10)


def test_power_stationarity_residual():
    rng = np.random.default_rng(43)
    for _ in range(20):
        hg = random_ergodic_hypergraph(rng)
        P = build_transition(hg)
        rank = pagerank_power(P)
        gap = float(np.abs(P.matrix.left_multiply(rank.values) - rank.values).sum())
        assert gap <= 10 * 1e-10  # the default tolerance


def test_power_l2_output(hg3):
    rank = pagerank_power(build_transition(hg3)).with_normalization("l2")
    assert abs(np.square(rank.values).sum() - 1.0) <= 1e-10
    np.testing.assert_allclose(rank.values, HG3_PI / np.linalg.norm(HG3_PI),
                               atol=1e-9)


def test_power_options_validation(hg3, monkeypatch):
    P = build_transition(hg3)

    def multiply(*args, **kwargs):
        raise AssertionError("an invalid setting is rejected before the first step")

    monkeypatch.setattr(type(P.matrix), "left_multiply", multiply)
    for bad, message in ((dict(damping=0.0), "damping must be in (0, 1]"),
                         (dict(damping=1.5), "damping must be in (0, 1]"),
                         (dict(damping=float("nan")), "damping must be in (0, 1]"),
                         (dict(tolerance=0.0), "tolerance must be positive"),
                         (dict(tolerance=float("nan")), "tolerance must be positive"),
                         (dict(max_iterations=0), "max_iterations must be at least 1")):
        with pytest.raises(ValueError) as exc:
            pagerank_power(P, **bad)
        assert str(exc.value) == message


# ------------------------------------------------------------ dense oracle

def test_oracle_two_cycle(two_cycle):
    rank = stationary_dense_oracle(build_transition(two_cycle))
    np.testing.assert_allclose(rank.values, [0.5, 0.5], atol=1e-12)


def test_oracle_hg3(hg3):
    rank = stationary_dense_oracle(build_transition(hg3))
    np.testing.assert_allclose(rank.values, HG3_PI, atol=1e-12)


def test_oracle_periodic_chain_still_solves(periodic3):
    # power iteration oscillates here; the direct solve does not care
    rank = stationary_dense_oracle(build_transition(periodic3))
    np.testing.assert_allclose(rank.values, [0.5, 0.25, 0.25], atol=1e-12)


def test_oracle_multiple_solutions(two_disjoint_two_cycles):
    with pytest.raises(MultipleSolutionsError) as exc:
        stationary_dense_oracle(build_transition(two_disjoint_two_cycles))
    assert exc.value.solution_space_rank == 2


def test_oracle_dense_limit(hg3, monkeypatch):
    monkeypatch.setattr("hyperrank.walk.DENSE_LIMIT", 2)
    with pytest.raises(DenseLimitExceededError) as exc:
        stationary_dense_oracle(build_transition(hg3))
    assert (exc.value.size, exc.value.limit) == (3, 2)


def test_oracle_matches_the_least_squares_solve():
    rng = np.random.default_rng(53)
    for _ in range(40):
        P = build_transition(random_ergodic_hypergraph(rng))
        np.testing.assert_allclose(stationary_dense_oracle(P).values,
                                   oracles.stationary_lstsq(P), rtol=0, atol=1e-12)
    for _ in range(40):
        P = build_transition(random_pruned_hypergraph(rng, max_vertices=12))
        try:
            pi = stationary_dense_oracle(P).values
        except MultipleSolutionsError:
            continue
        np.testing.assert_allclose(pi, oracles.stationary_lstsq(P), rtol=0, atol=1e-12)


def test_oracle_keeps_tiny_entries_relatively_accurate():
    # pi = (1, 1, w/(1+w)) / (2 + w/(1+w)); the least-squares solve gets the
    # last entry wrong by a factor of about 300 at w = 1e-18
    for w in (1e-12, 1e-15, 1e-18):
        P = build_transition(DirectedHypergraph.from_named_arcs([
            ("e1", ["a"], ["b"], 1.0), ("e2", ["b"], ["a"], 1.0),
            ("e3", ["b"], ["c"], w), ("e4", ["c"], ["a"], 1.0)]))
        c = w / (1 + w)
        np.testing.assert_allclose(stationary_dense_oracle(P).values,
                                   np.array([1.0, 1.0, c]) / (2 + c), rtol=1e-14)


def test_power_agrees_with_oracle():
    rng = np.random.default_rng(47)
    for _ in range(40):
        hg = random_ergodic_hypergraph(rng)
        P = build_transition(hg)
        power = pagerank_power(P)
        oracle = stationary_dense_oracle(P)
        assert np.abs(power.values - oracle.values).max() <= 1e-8


# -------------------------------------------------------------- simulation

def test_simulate_two_cycle_alternates_exactly(two_cycle):
    freq = simulate_walk(two_cycle, "a", 1000, seed=5)
    assert freq == {"a": 0.5, "b": 0.5}


def test_simulate_three_cycle(three_cycle):
    freq = simulate_walk(three_cycle, "a", 300000, seed=5)
    for value in freq.values():
        assert abs(value - 1 / 3) <= 0.01


def test_simulate_hg3_tracks_stationary(hg3):
    P = build_transition(hg3)
    pi = stationary_dense_oracle(P)
    freq = simulate_walk(hg3, "v1", 10 ** 6, seed=11)
    assert tv_distance(freq, pi) <= 0.01


def test_simulate_deterministic(hg3):
    a = simulate_walk(hg3, "v1", 20000, seed=9)
    b = simulate_walk(hg3, "v1", 20000, seed=9)
    c = simulate_walk(hg3, "v1", 20000, seed=10)
    assert a == b
    assert a != c


def test_simulate_rejects_bad_input(hg3, chain):
    with pytest.raises(DanglingVertexError):
        simulate_walk(chain, "a", 10, seed=0)
    with pytest.raises(ValueError):
        simulate_walk(hg3, "nope", 10, seed=0)
    with pytest.raises(ValueError):
        simulate_walk(hg3, "v1", 0, seed=0)


def test_simulate_rejects_a_negative_seed(hg3):
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        simulate_walk(hg3, "v1", 10, seed=-1)


# ------------------------------------------------------------------ top_k

def test_top_k_tie_break():
    rv = RankVector(("v1", "v2", "v3"), np.array([0.4, 0.2, 0.4]))
    assert top_k(rv, 2) == [("v1", 0.4), ("v3", 0.4)]
    assert top_k(rv, 3) == [("v1", 0.4), ("v3", 0.4), ("v2", 0.2)]


def test_top_k_rounded_comparison_orders_near_ties():
    rv = RankVector(("v1", "v2", "v3"),
                    np.array([0.4 - 2e-11, 0.2, 0.4 + 2e-11]))
    assert [v for v, _ in top_k(rv, 3)] == ["v3", "v1", "v2"]
    assert [v for v, _ in top_k(rv, 3, round_to=4)] == ["v1", "v3", "v2"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1.0, 2.0, 3.0, 3.00001, 3.00004, 0.0]),
                min_size=1, max_size=12),
       st.integers(1, 12), st.sampled_from([None, 0, 4]))
def test_top_k_matches_the_keyed_sort_on_ties(raw, k, round_to):
    values = np.array(raw) + 1e-12
    values /= values.sum()
    rv = RankVector(tuple(f"v{i}" for i in range(values.size)), values)
    want = oracles.top_k(rv.values, min(k, values.size), round_to)
    assert top_k(rv, k, round_to) == [(rv.vertices[i], float(rv.values[i])) for i in want]


def test_top_k_clamps(hg3, capsys):
    rank = pagerank_power(build_transition(hg3))
    assert len(top_k(rank, 10)) == 3
    assert capsys.readouterr().err == ""
    with pytest.raises(ValueError):
        top_k(rank, 0)


# -------------------------------------------------------------- RankVector

def test_rank_vector_invariants():
    with pytest.raises(ValueError):
        RankVector(("a", "b"), np.array([0.9, 0.3]))  # not a distribution
    with pytest.raises(ValueError):
        RankVector(("a", "b"), np.array([1.5, -0.5]))  # negative
    with pytest.raises(ValueError):
        RankVector(("a",), np.array([1.0]), normalization="sup")
    rv = RankVector(("a", "b"), np.array([1.0, -1e-15]))  # noise clipped
    assert rv["b"] == 0.0


def test_rank_vector_normalization_round_trip_preserves_order():
    rng = np.random.default_rng(53)
    for _ in range(20):
        raw = rng.random(6) + 1e-3
        rv = RankVector(tuple(f"v{i}" for i in range(6)), raw / raw.sum())
        as_l2 = rv.with_normalization("l2")
        assert abs(np.square(as_l2.values).sum() - 1.0) <= 1e-10
        assert np.argsort(-rv.values).tolist() == np.argsort(-as_l2.values).tolist()
        back = as_l2.with_normalization("l1")
        np.testing.assert_allclose(back.values, rv.values, atol=1e-12)


def test_tv_distance_basics():
    rv = RankVector(("a", "b"), np.array([0.5, 0.5]))
    assert tv_distance({"a": 0.5, "b": 0.5}, rv) == 0.0
    assert tv_distance({"a": 1.0, "b": 0.0}, rv) == pytest.approx(0.5)
