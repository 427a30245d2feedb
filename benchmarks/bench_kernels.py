"""Benchmark the Monte Carlo walk stepper.

Builds a synthetic positive-degree-core hypergraph, then times the
stepper's per-vertex view, which is built once per walk, and the walk
itself on that view, so that ns/step is the steady-state loop.

    python benchmarks/bench_kernels.py [--vertices N] [--arcs M]
                                       [--steps N] [--seed N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from hyperrank import DirectedHypergraph, _kernels
from hyperrank.core import FlatArcs
from hyperrank.walk import _walk_tables


def synthetic_core(rng, n_vertices: int, n_arcs: int) -> DirectedHypergraph:
    """A full cycle (keeps every degree positive) plus random hyper-arcs.

    Each extra arc draws one set of distinct vertices and splits it into
    tail and head.
    """
    arcs = FlatArcs()
    for i in range(n_vertices):
        arcs.add(f"c{i}", [i], [(i + 1) % n_vertices], float(rng.uniform(0.5, 5.0)))
    for j in range(n_arcs - n_vertices):
        ts, hs = (int(k) for k in rng.integers(1, 4, size=2))
        picks = rng.choice(n_vertices, size=ts + hs, replace=False).tolist()
        arcs.add(f"x{j}", picks[:ts], picks[ts:], float(rng.uniform(0.5, 5.0)))
    return arcs.hypergraph(f"v{i}" for i in range(n_vertices))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=2000)
    parser.add_argument("--arcs", type=int, default=6000)
    parser.add_argument("--steps", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    hg = synthetic_core(rng, args.vertices, args.arcs)
    wt = _walk_tables(hg)
    tables = (wt.arc_ptr, wt.arc_cum, wt.arc_of_slot, wt.head_ptr, wt.head_verts)
    draws = rng.random((2, args.steps))

    print(f"network: {hg.n_vertices} vertices, {hg.n_arcs} arcs")

    # the walk below finds this view cached, as every chunk after a walk's first does
    start = time.perf_counter()
    _kernels._view_of(tables)
    print(f"view  {time.perf_counter() - start:8.3f} s   (built once per walk)")

    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    start = time.perf_counter()
    _kernels.walk_steps(*tables, 0, draws[0], draws[1], counts)
    t = time.perf_counter() - start
    print(f"walk  {t:8.3f} s   ({t / args.steps * 1e9:9.1f} ns/step)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
