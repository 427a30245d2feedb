"""Random walks on directed hypergraphs: transition matrix, power-iteration
ranking, a dense stationary-solve oracle, and a Monte Carlo simulator.

One step of the walk leaves vertex u through hyper-arc e with probability
w(e)/d_tail(u) for each arc whose tail contains u, then lands uniformly on
one of e's head vertices. Aggregating the two stages per vertex pair gives
the row-stochastic transition matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import _fork, _kernels
from .core import DirectedHypergraph, _take, compute_degrees, ensure_valid
from .errors import (DanglingVertexError, DenseLimitExceededError,
                     MultipleSolutionsError, NoConvergenceError)
from .sparse import SparseRealMatrix

L1 = "l1"
L2 = "l2"
NORMALIZATIONS = (L1, L2)

ON_DANGLING_ERROR = "error"
ON_DANGLING_UNIFORM_JUMP = "uniform-jump"
DANGLING_POLICIES = (ON_DANGLING_ERROR, ON_DANGLING_UNIFORM_JUMP)

DENSE_LIMIT = 512

_WALK_CHUNK = 1 << 18
# steps between two recorded states of a forked walk segment; at least 4·|V|
# (see _split_walk)
_WALK_STRIDE = 1 << 14


@dataclass(frozen=True, eq=False)
class RankVector:
    """Nonnegative per-vertex scores with an explicit normalization tag."""

    vertices: tuple[str, ...]
    values: np.ndarray
    normalization: str = L1
    residual: float = 0.0
    iterations: int = 0

    _NORM_TOL = 1e-10
    _NEG_TOL = -1e-12

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != (len(self.vertices),):
            raise ValueError("values must align with the vertex list")
        low = vals.min(initial=0.0)
        if low < 0.0:
            if low < self._NEG_TOL:
                raise ValueError(f"negative rank value {low!r}")
            vals = np.clip(vals, 0.0, None)  # solver noise only
        if self.normalization == L1:
            total = vals.sum()
        elif self.normalization == L2:
            total = float(np.sqrt(np.square(vals).sum()))
        else:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if abs(total - 1.0) > self._NORM_TOL:
            raise ValueError(f"values are not {self.normalization}-normalized "
                             f"(total {total!r})")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def __getitem__(self, vertex: str) -> float:
        return float(self.values[self._index[vertex]])

    def as_dict(self) -> dict[str, float]:
        return {v: float(x) for v, x in zip(self.vertices, self.values)}

    def with_normalization(self, normalization: str) -> "RankVector":
        """Rescale to the requested tag; vertex ordering is unaffected."""
        if normalization == self.normalization:
            return self
        if normalization == L1:
            scaled = self.values / self.values.sum()
        elif normalization == L2:
            scaled = self.values / np.sqrt(np.square(self.values).sum())
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
        return RankVector(self.vertices, scaled, normalization,
                          self.residual, self.iterations)


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic |V|x|V| matrix of the two-stage hyper-arc walk."""

    matrix: SparseRealMatrix
    vertex_order: tuple[str, ...]

    _STOCHASTIC_TOL = 1e-12

    def __post_init__(self):
        n = len(self.vertex_order)
        if self.matrix.rows != n or self.matrix.cols != n:
            raise ValueError("matrix shape must match the vertex order")
        if self.matrix.data.size and self.matrix.data.min() < 0.0:
            raise ValueError("transition probabilities must be nonnegative")
        if self.row_sum_defect() > self._STOCHASTIC_TOL:
            raise ValueError("rows must sum to one")

    @property
    def n(self) -> int:
        return len(self.vertex_order)

    def to_dense(self) -> np.ndarray:
        return self.matrix.to_dense()

    def row_sum_defect(self) -> float:
        """max_u |sum_v P[u, v] - 1|; zero for a perfectly stochastic matrix."""
        if self.n == 0:
            return 0.0
        return float(np.abs(self.matrix.row_sums() - 1.0).max())


def build_transition(hg: DirectedHypergraph,
                     dangling: str = ON_DANGLING_ERROR) -> TransitionMatrix:
    """P[u, v] = sum over arcs e of w(e)·[u in tail]/d_tail(u)·[v in head]/|head(e)|.

    Rows sum to one by construction. Under the default policy a vertex with
    tail degree zero is an error; under `uniform-jump` its row becomes the
    uniform distribution over all vertices.
    """
    if dangling not in DANGLING_POLICIES:
        raise ValueError(f"unknown dangling policy {dangling!r}")
    ensure_valid(hg)
    n = hg.n_vertices
    if n == 0:
        raise ValueError("cannot build a transition matrix for an empty hypergraph")
    deg = compute_degrees(hg)
    jumpers = np.flatnonzero(deg.vertex_tail == 0.0)
    if jumpers.size and dangling == ON_DANGLING_ERROR:
        raise DanglingVertexError([hg.vertices[i] for i in jumpers.tolist()])
    lay = hg.layout
    # one (u, v, step) entry per arc, tail vertex and head vertex, in that
    # nesting order, so that each pair's steps are summed in arc order
    tail_arc = lay.tail_arc
    per_head = lay.weight / deg.arc_head
    if per_head.min(initial=1.0) >= np.finfo(np.float64).tiny:
        step = per_head[tail_arc] / deg.vertex_tail[lay.tail_idx]
    else:  # a subnormal w/|head| has lost its precision: divide by the tail sum first
        step = lay.weight[tail_arc] / deg.vertex_tail[lay.tail_idx] / deg.arc_head[tail_arc]
    taken, key = _take(lay.head_ptr, lay.head_idx, tail_arc)
    del tail_arc
    fan = np.diff(taken)
    del taken
    # each entry's key u·n + v, over its column v
    key += np.repeat(lay.tail_idx * n, fan)
    entries = [key, np.repeat(step, fan)]
    del key, step, fan
    if jumpers.size:  # each dangling vertex's uniform row, which has no arc entries
        entries = [np.concatenate([entries[0], (jumpers[:, None] * n + np.arange(n)).ravel()]),
                   np.concatenate([entries[1], np.full(jumpers.size * n, 1.0 / n)])]
    matrix = SparseRealMatrix._from_keys(n, n, entries)
    return TransitionMatrix(matrix, hg.vertices)


def pagerank_power(P: TransitionMatrix, *, damping: float = 1.0,
                   tolerance: float = 1e-10, max_iterations: int = 10000) -> RankVector:
    """Dominant left eigenvector by power iteration from the uniform start,
    L1-normalized (``RankVector.with_normalization`` rescales it).

    Iterates x <- damping·(PᵀX) + (1-damping)/|V|, renormalizing to L1 each
    step, until the L1 change drops below the tolerance. Deterministic:
    fixed summation order, serial kernels.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must be in (0, 1]")
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    n = P.n
    if n == 0:
        raise ValueError("empty transition matrix")
    x = np.full(n, 1.0 / n)
    y = np.zeros(n)
    jump = (1.0 - damping) / n
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        P.matrix.left_multiply(x, out=y)
        if damping != 1.0:
            y *= damping
            y += jump
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        if residual < tolerance:
            return RankVector(P.vertex_order, y, L1, residual, iteration)
        x, y = y, x  # reuse buffers; y is overwritten by the next multiply
    raise NoConvergenceError(residual, max_iterations, P.vertex_order, x.copy())


def stationary_dense_oracle(P: TransitionMatrix) -> RankVector:
    """Solve (Pᵀ - I)·pi = 0 with sum(pi) = 1 directly on the dense matrix.

    Entirely independent of the power-iteration path: no iteration, no
    sparse kernels. Raises MultipleSolutionsError when the stationary
    space has dimension greater than one (reducible chains); otherwise
    pi comes from Grassmann-Taksar-Heyman state reduction, which takes no
    differences, so even entries far below 1e-16 keep their relative
    accuracy.
    """
    n = P.n
    if n > DENSE_LIMIT:
        raise DenseLimitExceededError(n, DENSE_LIMIT)
    if n == 0:
        raise ValueError("empty transition matrix")
    dense = P.to_dense()
    _, s, vt = np.linalg.svd(dense.T - np.eye(n))
    tol = n * np.finfo(float).eps * float(s[0])
    nullity = int(np.count_nonzero(s <= tol))
    if nullity > 1:
        raise MultipleSolutionsError(nullity)
    # the largest entry of the null vector is a recurrent state
    pi = _state_reduction(dense, int(np.argmax(np.abs(vt[-1]))))
    residual = float(np.abs(P.matrix.left_multiply(pi) - pi).sum())
    return RankVector(P.vertex_order, pi, L1, residual, 0)


def _state_reduction(dense: np.ndarray, last: int) -> np.ndarray:
    """The stationary vector of a chain with one recurrent class, by the
    GTH algorithm: states are censored one at a time down to ``last``,
    which must be recurrent, then pi is built back up. Transient states
    come out exactly zero."""
    n = dense.shape[0]
    order = np.r_[last, np.delete(np.arange(n), last)]
    T = dense[np.ix_(order, order)]
    for k in range(n - 1, 0, -1):
        T[:k, k] /= T[k, :k].sum()
        T[:k, :k] += np.outer(T[:k, k], T[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ T[:k, k]
    out = np.empty(n)
    out[order] = pi / pi.sum()
    return out


@dataclass(frozen=True, eq=False)
class _WalkTables:
    """Flattened sampling tables consumed by the step kernels."""

    arc_ptr: np.ndarray     # per-vertex slice bounds into the two arrays below
    arc_cum: np.ndarray     # cumulative arc-choice probabilities
    arc_of_slot: np.ndarray
    head_ptr: np.ndarray    # per-arc slice bounds into head_verts
    head_verts: np.ndarray

    def steps(self, u: int, r_arc, r_head, counts: np.ndarray) -> int:
        """Walk from u over the draws, adding each visit to counts; the end vertex."""
        return _kernels.walk_steps(self.arc_ptr, self.arc_cum, self.arc_of_slot,
                                   self.head_ptr, self.head_verts,
                                   u, r_arc, r_head, counts)


def _walk_tables(hg: DirectedHypergraph) -> _WalkTables:
    deg = compute_degrees(hg)
    dangling = [hg.vertices[int(i)] for i in np.flatnonzero(deg.vertex_tail == 0.0)]
    if dangling:
        raise DanglingVertexError(dangling)
    lay = hg.layout
    # each vertex's outgoing arcs in arc order: a stable sort of the tail slots
    order = np.argsort(lay.tail_idx, kind="stable")
    arc_of_slot = lay.tail_arc[order]
    arc_ptr = np.zeros(hg.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(lay.tail_idx, minlength=hg.n_vertices), out=arc_ptr[1:])
    prob = lay.weight[arc_of_slot] / deg.vertex_tail[lay.tail_idx[order]]
    # one sequential cumsum per vertex: each running total restarts at zero
    arc_cum = np.empty_like(prob)
    bounds = arc_ptr.tolist()
    for a, b in zip(bounds, bounds[1:]):
        np.cumsum(prob[a:b], out=arc_cum[a:b])
    # frozen, so that a view the stepper derives from them stays current
    for arr in (arc_ptr, arc_cum, arc_of_slot):
        arr.setflags(write=False)
    return _WalkTables(arc_ptr, arc_cum, arc_of_slot, lay.head_ptr, lay.head_idx)


def simulate_walk(hg: DirectedHypergraph, start: str, steps: int,
                  seed: int) -> dict[str, float]:
    """Empirical visit distribution after `steps` transitions from `start`.

    Counts the state landed on after each transition (the start state is
    not counted), L1-normalized. Deterministic for a fixed seed: the counts
    are identical for any number of worker processes (see `_split_walk`).
    """
    ensure_valid(hg)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if start not in hg.vertices:
        raise ValueError(f"unknown start vertex {start!r}")
    counts = _split_walk(_walk_tables(hg), hg.vertices.index(start), steps, seed)
    freq = counts / float(steps)
    return {v: float(freq[i]) for i, v in enumerate(hg.vertices)}


def _pieces(seed: int, first: int, last: int, stride: int, buffer: np.ndarray):
    """The draws of steps [first, last) exactly as a walk of every step from
    step 0 reads them, one chunk at a time in ``buffer``, cut into
    ``(r_arc, r_head)`` pieces at every multiple of ``stride`` within each
    chunk. ``first`` is a chunk boundary: each earlier chunk took 2·chunk
    doubles, one 64-bit output each, so the stream there is PCG64(seed)
    advanced by 2·first."""
    bits = np.random.PCG64(seed)
    bits.advance(2 * first)
    rng = np.random.Generator(bits)
    for a in range(first, last, _WALK_CHUNK):
        chunk = min(_WALK_CHUNK, last - a)
        draws = buffer[:2 * chunk].reshape(2, chunk)
        rng.random(out=draws)
        for b in range(0, chunk, stride):
            yield draws[0, b:b + stride], draws[1, b:b + stride]


def _split_walk(tables: _WalkTables, start: int, steps: int,
                seed: int) -> np.ndarray:
    """Visit counts of the seeded walk of `steps` steps from `start`, split
    at chunk boundaries into one segment per worker process.

    Segment 0 is walked here. Every later segment is walked from `start` by
    a forked child, which records its state every `stride` steps (a piece).
    Once this process has the true state at a segment's first step, it
    follows the true path piece by piece until it stands where the child
    stood. From there on both read the same draws from the same vertex, so
    they coincide (the coupling of Propp & Wilson, "Exact sampling with
    coupled Markov chains", 1996): the child's counts and end vertex hold
    from that piece on, and its counts of the pieces before it are walked
    again and taken off. A segment whose paths never meet, or whose child
    failed, is walked here in full. The counts are therefore those of one
    process walking every step, whatever the number of workers.
    """
    n = tables.arc_ptr.size - 1
    chunks = -(-steps // _WALK_CHUNK)
    workers = _fork.worker_count(chunks)
    bounds = [min(k * chunks // workers * _WALK_CHUNK, steps) for k in range(workers + 1)]
    # the stepper converts the counts to a list and back on every call
    stride = max(_WALK_STRIDE, 4 * n)
    with _fork.Children() as children:
        # fork before any draw buffer exists, so no process holds two
        for k in range(1, workers):
            if not children.fork(k, lambda write: _walk_segment(
                    write, tables, start, seed, bounds[k], bounds[k + 1], stride)):
                break  # no process to spare: the rest is walked here
        buffer = np.empty(2 * min(_WALK_CHUNK, steps))
        counts = np.zeros(n, dtype=np.int64)
        u = start
        for r_arc, r_head in _pieces(seed, 0, bounds[1], _WALK_CHUNK, buffer):
            u = tables.steps(u, r_arc, r_head, counts)
        for k in range(1, workers):
            data = children.collect(k)
            payload = None if data is None else np.frombuffer(data, dtype=np.int64)
            u = _stitch(tables, u, seed, bounds[k], bounds[k + 1], stride, buffer,
                        counts, payload)
        return counts


def _walk_segment(write: int, tables: _WalkTables, start: int, seed: int,
                  first: int, last: int, stride: int):
    """In a forked child: walk [first, last) from `start` and write to the
    pipe ``write`` one int64 buffer, the end vertex, the state at the start
    of every piece and the counts."""
    counts = np.zeros(tables.arc_ptr.size - 1, dtype=np.int64)
    states = []
    u = start
    buffer = np.empty(2 * min(_WALK_CHUNK, last - first))
    for r_arc, r_head in _pieces(seed, first, last, stride, buffer):
        states.append(u)
        u = tables.steps(u, r_arc, r_head, counts)
    with open(write, "wb") as pipe:
        pipe.write(np.concatenate([[u], states, counts]).astype(np.int64).tobytes())


def _stitch(tables: _WalkTables, u: int, seed: int, first: int, last: int,
            stride: int, buffer: np.ndarray, counts: np.ndarray, payload) -> int:
    """Add the visits of segment [first, last), entered at vertex u, to
    counts from the child's ``payload`` (None if the child failed); the
    segment's true end vertex."""
    n = counts.size
    states = payload[1:-n].tolist() if payload is not None else []
    met = None
    for i, (r_arc, r_head) in enumerate(_pieces(seed, first, last, stride, buffer)):
        if i < len(states) and u == states[i]:
            met = i
            break
        u = tables.steps(u, r_arc, r_head, counts)
    if met is None:
        return u
    before = np.zeros_like(counts)
    for v, (r_arc, r_head) in zip(states[:met], _pieces(seed, first, last, stride, buffer)):
        tables.steps(v, r_arc, r_head, before)
    counts += payload[-n:]
    counts -= before
    return int(payload[0])


def top_k(rank: RankVector, k: int,
          round_to: int | None = None) -> list[tuple[str, float]]:
    """The k highest-scored vertices, descending, ties by vertex order.

    A k above the number of vertices gives every vertex, without a notice.
    With `round_to`, values are compared after rounding to that many
    decimals, so the ordering agrees with a fixed-precision report.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(rank.vertices)
    keys = rank.values if round_to is None else np.round(rank.values, round_to)
    order = np.lexsort((np.arange(n), -keys))[:k]
    return [(rank.vertices[i], float(rank.values[i])) for i in order.tolist()]


def tv_distance(empirical: Mapping[str, float], rank: RankVector) -> float:
    """Total variation distance: half the L1 gap between the distributions."""
    reference = rank.with_normalization(L1)
    keys = set(empirical) | set(reference.vertices)
    gap = 0.0
    for v in sorted(keys):
        p = empirical.get(v, 0.0)
        q = reference[v] if v in reference._index else 0.0
        gap += abs(p - q)
    return 0.5 * gap
