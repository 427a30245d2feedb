import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrank import (DirectedHypergraph, build_incidence, compute_degrees,
                       prune_to_core, validate)
from hyperrank import core
from hyperrank.core import ArcLayout, FlatArcs
from hyperrank.errors import ValidationError
from hyperrank.walk import build_transition

import oracles
from randgen import (hypergraphs, invalid_hypergraphs, random_hypergraph,
                     random_pruned_hypergraph)


def test_validate_minimal_legal_arc():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], 1.0)])
    assert validate(hg).ok


def test_validate_tail_head_overlap():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["a", "b"], 1.0)])
    report = validate(hg)
    assert not report.ok
    assert report.codes() == {"TailHeadOverlap"}
    assert report.violations[0].subject == "e"


def test_validate_empty_sides():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], [], 1.0)])
    assert validate(hg).codes() == {"EmptyHead"}
    hg = DirectedHypergraph.from_named_arcs([("e", [], ["a"], 1.0)])
    assert validate(hg).codes() == {"EmptyTail"}


def test_validate_weight_and_reference_rules():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], -2.0)])
    assert validate(hg).codes() == {"NonpositiveWeight"}
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], float("nan"))])
    assert validate(hg).codes() == {"NonpositiveWeight"}
    arcs = FlatArcs()
    arcs.add("e", [0], [7], 1.0)
    assert validate(arcs.hypergraph(("a", "b"))).codes() == {"UnknownVertex"}
    hg = FlatArcs().hypergraph(("a", "a"))
    assert validate(hg).codes() == {"DuplicateVertexId"}
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], 1.0),
                                             ("e", ["b"], ["a"], 1.0)])
    report = validate(hg)
    assert report.codes() == {"DuplicateArcId"}
    assert len(report.violations) == 1


def test_validate_flags_tail_weights_summing_beyond_float_range():
    hg = DirectedHypergraph.from_named_arcs([("e1", ["a"], ["b"], 1e308),
                                             ("e2", ["a", "b"], ["c"], 1e308),
                                             ("e3", ["c"], ["a"], 1.0)])
    assert [str(v) for v in validate(hg).violations] == [
        "TailWeightOverflow: a: tail weights sum beyond the float range"]
    # an arc flagged on its own, for an index out of range or a weight that
    # is no positive real, is in no vertex's sum
    arcs = FlatArcs()
    arcs.add("e1", [0], [1], 1e308)
    arcs.add("e2", [0, -1], [1], 1e308)
    arcs.add("e3", [0], [1], float("nan"))
    arcs.add("e4", [0], [1], float("inf"))
    assert validate(arcs.hypergraph(("a", "b"))).codes() == {"UnknownVertex",
                                                             "NonpositiveWeight"}


@settings(max_examples=300, deadline=None)
@given(hypergraphs(), st.data())
def test_weights_over_the_whole_float_range_rank_or_are_a_violation(hg, data):
    weight = data.draw(st.lists(
        st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                  st.sampled_from([5e-324, 1e-300, 1e300, 1e308])),
        min_size=hg.n_arcs, max_size=hg.n_arcs))
    hg = dataclasses.replace(hg, layout=dataclasses.replace(
        hg.layout, weight=np.array(weight, dtype=np.float64)))
    report = validate(hg)
    assert str(report) == str(oracles.validate(hg))
    if report.ok:
        core_hg, _ = prune_to_core(hg)
        if core_hg.n_vertices:  # the row sums are checked as P is built
            build_transition(core_hg)


def test_validate_collects_every_violation():
    hg = DirectedHypergraph.from_named_arcs([
        ("e1", ["a"], [], 1.0),
        ("e2", ["a"], ["b"], 0.0),
    ])
    report = validate(hg)
    assert len(report.violations) == 2
    assert {v.subject for v in report.violations} == {"e1", "e2"}


def test_arc_sides_collapse_duplicates():
    arcs = FlatArcs()
    arcs.add("e", [1, 1, 0], [2, 2], 1.0)
    lay = arcs.layout()
    assert lay.tail_idx.tolist() == [0, 1]
    assert lay.head_idx.tolist() == [2]


def test_incidence_single_arc():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], 1.0)])
    h_tail, h_head = build_incidence(hg)
    assert h_tail.to_dense().tolist() == [[1.0], [0.0]]
    assert h_head.to_dense().tolist() == [[0.0], [1.0]]


def test_incidence_hg3_column_sums(hg3):
    h_tail, h_head = build_incidence(hg3)
    np.testing.assert_array_equal(h_tail.to_dense().sum(axis=0), [1, 1, 1])
    np.testing.assert_array_equal(h_head.to_dense().sum(axis=0), [2, 1, 1])


def test_incidence_column_sums_equal_arc_degrees():
    rng = np.random.default_rng(7)
    for _ in range(20):
        hg = random_hypergraph(rng, max_vertices=12, max_arcs=20)
        h_tail, h_head = build_incidence(hg)
        deg = compute_degrees(hg)
        np.testing.assert_array_equal(h_tail.to_dense().sum(axis=0), deg.arc_tail)
        np.testing.assert_array_equal(h_head.to_dense().sum(axis=0), deg.arc_head)


def test_degrees_single_arc():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], 1.0)])
    deg = compute_degrees(hg)
    assert deg.vertex_tail[hg.vertices.index("a")] == 1.0
    assert deg.vertex_head[hg.vertices.index("b")] == 1.0
    assert deg.arc_tail[hg.arc_ids.index("e")] == 1
    assert deg.arc_head[hg.arc_ids.index("e")] == 1


def test_degrees_hg3(hg3):
    deg = compute_degrees(hg3)
    # v3 is in the head of e1 (weight 1) and e2 (weight 2)
    assert deg.vertex_head[hg3.vertices.index("v3")] == 3.0
    assert deg.arc_head[hg3.arc_ids.index("e1")] == 2
    assert deg.vertex_tail[hg3.vertices.index("v2")] == 2.0


def test_degrees_weighted_versus_cardinality():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b", "c"], 2.5)])
    deg = compute_degrees(hg)
    assert deg.vertex_tail[hg.vertices.index("a")] == 2.5
    assert deg.vertex_head[hg.vertices.index("b")] == 2.5
    assert deg.arc_head[hg.arc_ids.index("e")] == 2  # a count, not 5.0


def test_weighted_incidence_rows_reproduce_vertex_degrees():
    rng = np.random.default_rng(11)
    for _ in range(30):
        hg = random_hypergraph(rng, max_vertices=15, max_arcs=25)
        h_tail, h_head = build_incidence(hg)
        deg = compute_degrees(hg)
        weights = hg.layout.weight
        np.testing.assert_allclose(h_tail.to_dense() @ weights, deg.vertex_tail,
                                   rtol=1e-12)
        np.testing.assert_allclose(h_head.to_dense() @ weights, deg.vertex_head,
                                   rtol=1e-12)


def test_degree_sum_identities():
    rng = np.random.default_rng(13)
    for _ in range(50):
        hg = random_hypergraph(rng)
        deg = compute_degrees(hg)
        weights = hg.layout.weight
        lhs = deg.vertex_tail.sum()
        rhs = float(weights @ deg.arc_tail)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        lhs = deg.vertex_head.sum()
        rhs = float(weights @ deg.arc_head)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_prune_three_cycle_unchanged(three_cycle):
    pruned, events = prune_to_core(three_cycle)
    assert pruned == three_cycle
    assert events == []


def test_prune_chain_cascades_to_empty(chain):
    pruned, events = prune_to_core(chain)
    assert pruned.n_vertices == 0
    assert pruned.n_arcs == 0
    removed = {(e.kind, e.identifier) for e in events}
    assert removed == {("vertex", "a"), ("vertex", "b"), ("vertex", "c"),
                       ("arc", "e1"), ("arc", "e2")}
    rounds = {e.identifier: e.round for e in events if e.kind == "vertex"}
    assert rounds["a"] == 1 and rounds["c"] == 1
    assert rounds["b"] == 2  # only exposed once e1/e2 are gone


def test_prune_strips_vertices_from_surviving_arcs():
    # "x" only ever appears in a head, so it is pruned and e1 keeps going
    hg = DirectedHypergraph.from_named_arcs([
        ("e1", ["a"], ["b", "x"], 1.0),
        ("e2", ["b"], ["a"], 1.0),
    ])
    pruned, events = prune_to_core(hg)
    assert pruned.vertices == ("a", "b")
    assert pruned.arc_ids == ("e1", "e2")
    assert ("vertex", "x") in {(e.kind, e.identifier) for e in events}


def test_prune_idempotent_and_core_positive():
    rng = np.random.default_rng(17)
    for _ in range(100):
        hg = random_hypergraph(rng)
        once, _ = prune_to_core(hg)
        twice, again = prune_to_core(once)
        assert twice == once
        assert again == []
        if once.n_vertices:
            deg = compute_degrees(once)
            assert deg.vertex_tail.min() > 0
            assert deg.vertex_head.min() > 0
            assert np.diff(once.layout.tail_ptr).min() >= 1
            assert np.diff(once.layout.head_ptr).min() >= 1


def test_prune_rejects_invalid_input():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], [], 1.0)])
    with pytest.raises(ValidationError):
        prune_to_core(hg)


def test_from_named_arcs_interns_in_first_mention_order():
    hg = DirectedHypergraph.from_named_arcs([
        ("r", ["z", "y"], ["x"], 1.0),
        ("s", ["x"], ["w", "z"], 1.0),
    ])
    assert hg.vertices == ("z", "y", "x", "w")


def test_from_named_arcs_rejects_unknown_vertex():
    with pytest.raises(ValidationError):
        DirectedHypergraph.from_named_arcs([("r", ["a"], ["b"], 1.0)],
                                           vertices=["a"])


def test_random_pruned_generator_yields_cores():
    rng = np.random.default_rng(23)
    hg = random_pruned_hypergraph(rng)
    deg = compute_degrees(hg)
    assert deg.vertex_tail.min() > 0 and deg.vertex_head.min() > 0


# ------------------------------------------- flat layout vs loop oracles

def test_layout_flattens_the_arcs(hg3):
    lay = hg3.layout
    assert lay.tail_ptr.tolist() == [0, 1, 2, 3]
    assert lay.tail_idx.tolist() == [0, 1, 2]
    assert lay.head_ptr.tolist() == [0, 2, 3, 4]
    assert lay.head_idx.tolist() == [1, 2, 2, 0]
    assert lay.weight.tolist() == [1.0, 2.0, 1.0]
    assert lay.tail_arc.tolist() == [0, 1, 2]
    assert lay.head_arc.tolist() == [0, 0, 1, 2]
    assert hg3.layout is lay
    with pytest.raises(ValueError):
        lay.weight[0] = 5.0


def test_layout_of_an_empty_hypergraph():
    lay = FlatArcs().hypergraph(()).layout
    assert lay.tail_ptr.tolist() == [0] and lay.head_ptr.tolist() == [0]
    assert lay.tail_idx.size == lay.head_idx.size == lay.weight.size == 0


def _assert_passes_match_oracles(hg):
    deg = compute_degrees(hg)
    got = (deg.vertex_tail, deg.vertex_head, deg.arc_tail, deg.arc_head)
    for mine, ref in zip(got, oracles.compute_degrees(hg)):
        assert mine.dtype == ref.dtype
        assert mine.tobytes() == ref.tobytes()
    for mine, ref in zip(build_incidence(hg), oracles.build_incidence(hg)):
        assert oracles.csr_bytes(mine) == oracles.csr_bytes(ref)
    pruned, events = prune_to_core(hg)
    ref_pruned, ref_events = oracles.prune_to_core(hg)
    assert pruned == ref_pruned
    assert events == ref_events


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_passes_match_loop_oracles_on_generated_hypergraphs(hg):
    _assert_passes_match_oracles(hg)


def test_passes_match_loop_oracles_on_seeded_hypergraphs():
    rng = np.random.default_rng(71)
    for _ in range(60):
        _assert_passes_match_oracles(random_hypergraph(rng))
    for _ in range(20):
        _assert_passes_match_oracles(random_pruned_hypergraph(rng))


def test_prune_to_empty_matches_loop_oracle(chain):
    # b survives round 1 and goes in round 2, once both of its arcs are gone
    pruned, events = prune_to_core(chain)
    assert (pruned, events) == oracles.prune_to_core(chain)
    assert pruned == FlatArcs().hypergraph(())
    assert [(e.round, e.kind, e.identifier, e.reason) for e in events] == [
        (1, "vertex", "a", "zero head degree"),
        (1, "vertex", "c", "zero tail degree"),
        (1, "arc", "e1", "tail emptied"),
        (1, "arc", "e2", "head emptied"),
        (2, "vertex", "b", "zero tail and head degree"),
    ]


def _assert_core_keeps_a_true_report(hg):
    """The core carries the input's report; a fresh loop check agrees, and
    building the core's transition matrix checks nothing again."""
    pruned, _ = prune_to_core(hg)
    checked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_check", checked.append)
        if pruned.n_vertices:
            build_transition(pruned)
        report = validate(pruned)
    assert checked == []
    fresh = oracles.validate(pruned)
    assert fresh.ok
    assert report == fresh


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_pruned_core_report_is_true_on_generated_hypergraphs(hg):
    _assert_core_keeps_a_true_report(hg)


def test_pruned_core_report_is_true_on_seeded_hypergraphs(chain):
    rng = np.random.default_rng(73)
    for _ in range(60):
        _assert_core_keeps_a_true_report(random_hypergraph(rng, max_vertices=12))
    _assert_core_keeps_a_true_report(chain)  # prunes to empty
    _assert_core_keeps_a_true_report(FlatArcs().hypergraph(()))


# ------------------------------------------ array-backed model vs records

@settings(max_examples=400, deadline=None)
@given(st.one_of(invalid_hypergraphs(), hypergraphs()))
def test_validate_matches_loop_oracle(hg):
    assert str(validate(hg)) == str(oracles.validate(hg))


def test_validate_report_is_computed_once_per_hypergraph(hg3):
    assert validate(hg3) is validate(hg3)


_raw_sides = st.lists(st.lists(st.integers(0, 6), max_size=5), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_raw_sides, _raw_sides)
def test_array_constructor_normalises_sides_as_hyperarc_does(tails, heads):
    m = min(len(tails), len(heads))
    tails, heads = tails[:m], heads[:m]
    weights = [1.0 + j for j in range(m)]
    lay = ArcLayout.from_sides([len(t) for t in tails], [i for t in tails for i in t],
                               [len(h) for h in heads], [i for h in heads for i in h],
                               weights)
    assert lay == oracles.arc_layout(tails, heads, weights)
    arcs = FlatArcs()
    for j, (tail, head) in enumerate(zip(tails, heads)):
        arcs.add(f"e{j}", tail, head, weights[j])
    assert arcs.hypergraph("abcdefg").layout == lay


_far_apart_indices = st.sampled_from([-2**63, -2**62, -3, 0, 5, 2**62, 2**63 - 1])
_far_apart_sides = st.lists(st.lists(_far_apart_indices, max_size=5), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_far_apart_sides, _far_apart_sides)
def test_array_constructor_normalises_sides_of_any_int64_indices(tails, heads):
    m = min(len(tails), len(heads))
    tails, heads = tails[:m], heads[:m]
    weights = [1.0] * m
    lay = ArcLayout.from_sides([len(t) for t in tails], [i for t in tails for i in t],
                               [len(h) for h in heads], [i for h in heads for i in h],
                               weights)
    assert lay == oracles.arc_layout(tails, heads, weights)


def test_arcs_read_back_from_arc_ids_and_layout_slices(hg3):
    assert hg3.arc_ids == ("e1", "e2", "e3")
    assert oracles.arc_rows(hg3) == [("e1", (0,), (1, 2), 1.0),
                                     ("e2", (1,), (2,), 2.0),
                                     ("e3", (2,), (0,), 1.0)]


def test_hypergraphs_are_immutable_and_compare_by_value(hg3):
    again = DirectedHypergraph.from_named_arcs([
        ("e1", ["v1"], ["v3", "v2", "v2"], 1.0),
        ("e2", ["v2"], ["v3"], 2.0),
        ("e3", ["v3"], ["v1"], 1.0),
    ], vertices=hg3.vertices)
    assert again == hg3 and hash(again) == hash(hg3)
    heavier = dataclasses.replace(hg3, layout=dataclasses.replace(
        hg3.layout, weight=np.array([1.0, 2.0, 1.5])))
    assert heavier != hg3
    with pytest.raises(AttributeError):
        hg3.vertices = ("x",)


def test_hypergraph_is_a_dataclass_over_its_layout(hg3):
    assert [f.name for f in dataclasses.fields(DirectedHypergraph)] == [
        "vertices", "arc_ids", "layout"]
    # the fields are stored as tuples, so this equality needs the conversion
    assert DirectedHypergraph(list(hg3.vertices), iter(hg3.arc_ids), hg3.layout) == hg3


def test_arc_ids_must_match_the_layout():
    lay = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], 1.0)]).layout
    with pytest.raises(ValueError):
        DirectedHypergraph(("a", "b"), ("e", "f"), lay)
