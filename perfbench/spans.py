"""In-memory span tracing around calls into hyperrank's layers.

Wrappers are installed on the module globals each caller resolves (for
example ``hyperrank.walk.compute_degrees`` and ``hyperrank.cli.load_canonical``),
so nothing in the package changes. ``hyperrank.core.validate`` is wrapped
because every ``ensure_valid`` calls it. Spans record name, parent, start
and end; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute) of the function it wraps
TARGETS = {
    "cli.cmd": [("hyperrank.cli", f"cmd_{c}") for c in
                ("ingest", "validate", "rank", "laplacian", "simulate")],
    "ingest.load_canonical": [("hyperrank.ingest", "load_canonical")],
    "ingest.parse_reactions_text": [("hyperrank.ingest", "parse_reactions_text")],
    "ingest.reactions_to_hypergraph": [("hyperrank.ingest", "reactions_to_hypergraph")],
    "ingest.save_canonical": [("hyperrank.ingest", "save_canonical")],
    "core.validate": [("hyperrank.core", "validate")],
    "core.compute_degrees": [("hyperrank.core", "compute_degrees")],
    "core.prune_to_core": [("hyperrank.core", "prune_to_core")],
    "walk.build_transition": [("hyperrank.walk", "build_transition")],
    "walk.pagerank_power": [("hyperrank.walk", "pagerank_power")],
    "walk.stationary_dense_oracle": [("hyperrank.walk", "stationary_dense_oracle")],
    "walk.simulate_walk": [("hyperrank.walk", "simulate_walk")],
    "walk.top_k": [("hyperrank.walk", "top_k")],
    "walk.tv_distance": [("hyperrank.walk", "tv_distance")],
    "laplacian.build_laplacians": [("hyperrank.laplacian", "build_laplacians")],
    "laplacian.spectral_report": [("hyperrank.laplacian", "spectral_report")],
    "kernels.csr_left_multiply": [("hyperrank._kernels", "csr_left_multiply")],
    "kernels.walk_steps": [("hyperrank._kernels", "walk_steps")],
}
SPARSE_INIT = "sparse.SparseRealMatrix.init"


def _count(counts, name, args, result):
    """Per-call work counts, taken from the wrapped call's arguments or result."""
    if name in ("ingest.load_canonical", "ingest.parse_reactions_text"):
        counts["ingest.input_mb"] += len(args[0]) / 1e6
    elif name == "core.prune_to_core":
        events = result[1]
        counts["core.prune_to_core.removed"] += len(events)
        counts["core.prune_to_core.rounds"] += max((e.round for e in events), default=0)
    elif name == "walk.pagerank_power":
        counts["walk.pagerank_power.iterations"] += result.iterations
    elif name == "kernels.csr_left_multiply":
        counts["kernels.csr_left_multiply.nnz"] += args[1].size
        counts["kernels.csr_left_multiply.computed_mb"] += sum(a.nbytes for a in args[:5]) / 1e6
    elif name == "kernels.walk_steps":
        counts["kernels.walk_steps.steps"] += len(args[6])
    elif name == "laplacian.build_laplacians":
        # the densified P plus the two n×n float64 matrices the pair holds
        counts["laplacian.dense_mb"] += 3 * 8 * result.n ** 2 / 1e6
    elif name == SPARSE_INIT:
        counts["sparse.nnz"] += args[0].nnz


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][2:] = (start, end)
            _count(counts, name, args, result)
            return result
        return traced

    def install(self) -> None:
        """Replace every hyperrank module global bound to a target function."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hyperrank" or k.startswith("hyperrank."))]
        for name, places in TARGETS.items():
            for module, attr in places:
                original = getattr(sys.modules[module], attr)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, key, value))
                            setattr(m, key, wrapper)
        cls = sys.modules["hyperrank.sparse"].SparseRealMatrix
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self.wrap(SPARSE_INIT, cls.__init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self) -> dict[str, float]:
        """Self seconds, call counts and work counts of the spans recorded."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_s = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                root_s += end - start
        out = {f"{name}.s": s for name, s in self_s.items()}
        out.update({f"{name}.calls": c for name, c in calls.items()})
        out.update(self.counts)
        out["trace.root_s"] = root_s
        return out
