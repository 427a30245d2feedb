"""Benchmark the compiled walk stepper against its pure-Python fallback.

Builds a synthetic positive-degree-core hypergraph, then times the Monte
Carlo walk stepper on every backend available, verifying that their
outputs are identical. The Python stepper's per-vertex view is built once
per walk; its build is timed on its own, so that ns/step is the
steady-state loop. This is the only way to time the fallback on an
install where the compiled extension was built.

    python benchmarks/bench_kernels.py [--vertices N] [--arcs M]
                                       [--steps N] [--seed N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from hyperrank import DirectedHypergraph
from hyperrank.core import FlatArcs
from hyperrank._kernels import _pykernels
from hyperrank.walk import _walk_tables

try:
    from hyperrank._kernels import _ckernels
except ImportError:
    _ckernels = None


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


def bench_walk(kernel, tables, n_vertices: int, draws):
    counts = np.zeros(n_vertices, dtype=np.int64)
    start = time.perf_counter()
    final = kernel.walk_steps(*tables, 0, draws[0], draws[1], counts)
    return time.perf_counter() - start, counts, final


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
    backends = [("python", _pykernels)]
    if _ckernels is not None:
        backends.append(("cython", _ckernels))
    else:
        print("compiled kernels unavailable; benchmarking the fallback only")

    # the walk below finds this view cached, as every chunk after a walk's first does
    start = time.perf_counter()
    _pykernels._view_of(tables)
    print(f"view  python  {time.perf_counter() - start:8.3f} s   (built once per walk)")

    walk = {}
    for name, kernel in backends:
        t, counts, final = bench_walk(kernel, tables, hg.n_vertices, draws)
        walk[name] = (t, counts, final)
        print(f"walk  {name:<7} {t:8.3f} s   "
              f"({t / args.steps * 1e9:9.1f} ns/step)")

    if _ckernels is not None:
        same = (np.array_equal(walk["python"][1], walk["cython"][1])
                and walk["python"][2] == walk["cython"][2])
        print(f"identical results: walk={same}")
        print(f"speedup: walk {walk['python'][0] / walk['cython'][0]:.1f}x")
        if not same:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
