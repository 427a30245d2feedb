"""Seeded random hypergraph generators shared across the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from hyperrank import DirectedHypergraph, prune_to_core

from oracles import hypergraph


def _weight(rng) -> float:
    # (0, 10]
    return 10.0 - float(rng.uniform(0.0, 10.0))


def random_hypergraph(rng, max_vertices: int = 30, max_arcs: int = 60,
                      max_side: int = 3) -> DirectedHypergraph:
    """Arbitrary valid hypergraph; may have isolated vertices or a prunable fringe."""
    n = int(rng.integers(2, max_vertices + 1))
    m = int(rng.integers(1, max_arcs + 1))
    arcs = []
    for j in range(m):
        ts = int(rng.integers(1, min(max_side, n - 1) + 1))
        tail = rng.choice(n, size=ts, replace=False)
        rest = np.setdiff1d(np.arange(n), tail)
        hs = int(rng.integers(1, min(max_side, rest.size) + 1))
        head = rng.choice(rest, size=hs, replace=False)
        arcs.append((f"e{j}", tail.tolist(), head.tolist(), _weight(rng)))
    return hypergraph([f"n{i}" for i in range(n)], arcs)


def latin1_lines(rng, count: int, max_length: int = 80) -> list[str]:
    """Random byte strings of 0 to max_length - 1 bytes, each read as latin-1."""
    return [rng.bytes(int(rng.integers(0, max_length))).decode("latin-1")
            for _ in range(count)]


def random_pruned_hypergraph(rng, max_vertices: int = 30,
                             max_arcs: int = 60) -> DirectedHypergraph:
    """A nonempty positive-degree core obtained by pruning random instances."""
    while True:
        hg, _ = prune_to_core(random_hypergraph(rng, max_vertices, max_arcs))
        if hg.n_vertices:
            return hg


def random_ergodic_hypergraph(rng, min_vertices: int = 3, max_vertices: int = 12,
                              extra_arcs: int | None = None) -> DirectedHypergraph:
    """Strongly connected and aperiodic by construction.

    A full directed cycle makes the chain irreducible; back-arcs closing a
    2-cycle and a 3-cycle through vertex 0 force aperiodicity (gcd of cycle
    lengths is 1). Extra random arcs add variety. Self-transitions cannot
    exist here (tail and head are disjoint), so aperiodicity must come from
    coprime cycle lengths.
    """
    n = int(rng.integers(min_vertices, max_vertices + 1))
    arcs = [(f"c{i}", [i], [(i + 1) % n], _weight(rng)) for i in range(n)]
    arcs.append(("b2", [1], [0], _weight(rng)))
    arcs.append(("b3", [2], [0], _weight(rng)))
    extra = int(rng.integers(0, n + 1)) if extra_arcs is None else extra_arcs
    for j in range(extra):
        ts = int(rng.integers(1, min(3, n - 1) + 1))
        tail = rng.choice(n, size=ts, replace=False)
        rest = np.setdiff1d(np.arange(n), tail)
        hs = int(rng.integers(1, min(3, rest.size) + 1))
        head = rng.choice(rest, size=hs, replace=False)
        arcs.append((f"x{j}", tail.tolist(), head.tolist(), _weight(rng)))
    return hypergraph([f"v{i}" for i in range(n)], arcs)


# mixed magnitudes, so that a sum taken in another order rounds differently
_weights = st.one_of(st.floats(min_value=1e-6, max_value=1e6),
                     st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, 1e-9, 1e9]))


@st.composite
def hypergraphs(draw, max_vertices: int = 6, max_arcs: int = 12) -> DirectedHypergraph:
    """Valid hypergraphs over few vertices: pairs recur across arcs, and
    isolated vertices, dangling vertices and prunable fringes are common."""
    n = draw(st.integers(2, max_vertices))
    arcs = []
    for j in range(draw(st.integers(0, max_arcs))):
        perm = draw(st.permutations(range(n)))
        ts = draw(st.integers(1, n - 1))
        hs = draw(st.integers(1, n - ts))
        arcs.append((f"e{j}", perm[:ts], perm[ts:ts + hs], draw(_weights)))
    return hypergraph([f"v{i}" for i in range(n)], arcs)


# zero, negative, infinite and NaN weights next to legal ones
_any_weights = st.sampled_from([1.0, 0.5, 2.5e-7, 0.0, -0.0, -1.0, float("inf"),
                                float("-inf"), float("nan"), 5e-324])


@st.composite
def invalid_hypergraphs(draw, max_vertices: int = 5, max_arcs: int = 6) -> DirectedHypergraph:
    """Hypergraphs that break the model's rules, often several at once:
    repeated vertex and arc ids, empty sides, tail/head overlap, vertex
    indices out of range and weights that are not positive reals."""
    n = draw(st.integers(0, max_vertices))
    vertices = draw(st.lists(st.sampled_from("abcdefg"), min_size=n, max_size=n))
    index = st.integers(-2, n + 1)
    arcs = [(draw(st.sampled_from(["e0", "e1", "e2", "e3"])),
             draw(st.lists(index, max_size=4)), draw(st.lists(index, max_size=4)),
             draw(_any_weights))
            for _ in range(draw(st.integers(0, max_arcs)))]
    return hypergraph(vertices, arcs)
