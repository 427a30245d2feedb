"""Random walks on directed hypergraphs: transition matrix, power-iteration
ranking, a dense stationary-solve oracle, and a Monte Carlo simulator.

One step of the walk leaves vertex u through hyper-arc e with probability
w(e)/d_tail(u) for each arc whose tail contains u, then lands uniformly on
one of e's head vertices. Aggregating the two stages per vertex pair gives
the row-stochastic transition matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import _kernels
from .core import DirectedHypergraph, compute_degrees, ensure_valid
from .errors import (DanglingVertexError, DenseLimitExceededError,
                     MultipleSolutionsError, NoConvergenceError)
from .sparse import SparseRealMatrix

logger = logging.getLogger(__name__)

L1 = "l1"
L2 = "l2"
NORMALIZATIONS = (L1, L2)

ON_DANGLING_ERROR = "error"
ON_DANGLING_UNIFORM_JUMP = "uniform-jump"
DANGLING_POLICIES = (ON_DANGLING_ERROR, ON_DANGLING_UNIFORM_JUMP)

DENSE_LIMIT = 512

_WALK_CHUNK = 1 << 18


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


@dataclass(frozen=True)
class PowerOptions:
    damping: float = 1.0
    tolerance: float = 1e-10
    max_iterations: int = 10000
    normalization: str = L1

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must be in (0, 1]")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")


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
    # nesting order, so that from_coo sums each pair's steps in arc order
    tail_arc = lay.tail_arc
    step = (lay.weight / deg.arc_head)[tail_arc] / deg.vertex_tail[lay.tail_idx]
    fan = deg.arc_head[tail_arc]
    head_pos = (np.repeat(lay.head_ptr[tail_arc] - (np.cumsum(fan) - fan), fan)
                + np.arange(fan.sum()))
    rows = np.repeat(lay.tail_idx, fan)
    cols = lay.head_idx[head_pos]
    vals = np.repeat(step, fan)
    del head_pos, step, fan
    if jumpers.size:  # each dangling vertex's uniform row, which has no arc entries
        rows = np.concatenate([rows, np.repeat(jumpers, n)])
        cols = np.concatenate([cols, np.tile(np.arange(n), jumpers.size)])
        vals = np.concatenate([vals, np.full(jumpers.size * n, 1.0 / n)])
    matrix = SparseRealMatrix.from_coo(n, n, rows, cols, vals)
    return TransitionMatrix(matrix, hg.vertices)


def pagerank_power(P: TransitionMatrix,
                   opts: PowerOptions = PowerOptions()) -> RankVector:
    """Dominant left eigenvector by power iteration from the uniform start.

    Iterates x <- damping·(PᵀX) + (1-damping)/|V|, renormalizing to L1 each
    step, until the L1 change drops below the tolerance. Deterministic:
    fixed summation order, serial kernels.
    """
    n = P.n
    if n == 0:
        raise ValueError("empty transition matrix")
    x = np.full(n, 1.0 / n)
    y = np.zeros(n)
    jump = (1.0 - opts.damping) / n
    residual = np.inf
    for iteration in range(1, opts.max_iterations + 1):
        P.matrix.left_multiply(x, out=y)
        if opts.damping != 1.0:
            y *= opts.damping
            y += jump
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        if residual < opts.tolerance:
            rank = RankVector(P.vertex_order, y, L1, residual, iteration)
            if opts.normalization != L1:
                rank = rank.with_normalization(opts.normalization)
            return rank
        x, y = y, x  # reuse buffers; y is overwritten by the next multiply
    raise NoConvergenceError(residual, opts.max_iterations, P.vertex_order, x.copy())


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
    not counted), L1-normalized. Deterministic for a fixed seed, and
    identical across kernel backends.
    """
    ensure_valid(hg)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if start not in hg.index_of:
        raise ValueError(f"unknown start vertex {start!r}")
    tables = _walk_tables(hg)
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    u = hg.index_of[start]
    remaining = steps
    # one buffer for every chunk's draws; a short last chunk fills a prefix
    buffer = np.empty(2 * min(_WALK_CHUNK, steps))
    while remaining > 0:
        chunk = min(_WALK_CHUNK, remaining)
        draws = buffer[:2 * chunk].reshape(2, chunk)
        rng.random(out=draws)
        u = _kernels.walk_steps(tables.arc_ptr, tables.arc_cum,
                                tables.arc_of_slot, tables.head_ptr,
                                tables.head_verts, u, draws[0], draws[1],
                                counts)
        remaining -= chunk
    freq = counts / float(steps)
    return {v: float(freq[i]) for i, v in enumerate(hg.vertices)}


def top_k(rank: RankVector, k: int,
          round_to: int | None = None) -> list[tuple[str, float]]:
    """The k highest-scored vertices, descending, ties by vertex order.

    With `round_to`, values are compared after rounding to that many
    decimals, so the ordering agrees with a fixed-precision report.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(rank.vertices)
    if k > n:
        logger.warning("top_k clamped from %d to the %d available vertices", k, n)
        k = n
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
