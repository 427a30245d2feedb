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
from typing import Mapping, NamedTuple

import numpy as np

from . import _kernels
from .core import DirectedHypergraph, _take, compute_degrees, ensure_valid
from .errors import (DanglingVertexError, DenseLimitExceededError,
                     MultipleSolutionsError, NoConvergenceError)
from .sparse import SparseRealMatrix, _ptr, packed_sort, row_blocks

L1 = "l1"
L2 = "l2"
NORMALIZATIONS = (L1, L2)

ON_DANGLING_ERROR = "error"
ON_DANGLING_UNIFORM_JUMP = "uniform-jump"
DANGLING_POLICIES = (ON_DANGLING_ERROR, ON_DANGLING_UNIFORM_JUMP)

DENSE_LIMIT = 512

# the chunk of the walk's draw layout (see _Draws)
_WALK_CHUNK = 1 << 18
# walks of this many steps or more are walked as lanes (see _lane_walk), in
# segments of about _SEGMENT steps (longer where that would take more than
# _LANES lanes, which bounds the buffers), _BLOCK lockstep steps per block
# of draws; the coupling probe starts walkers from _PROBE vertices
_LANE_WALK = 1 << 20
_SEGMENT = 1 << 13
_LANES = 1 << 10
_BLOCK = 128
_PROBE = 32


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

    P's arrays are sized for its entries before they are summed and filled
    a block of whole rows at a time (see ``sparse.row_blocks``), then shrunk
    in place, so that one block's unsummed entries are held at a time. Each
    pair (u, v) sums its steps in arc order from 0.0, and a pair whose sum
    is zero is not stored.
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
    weight, vertex_tail = lay.weight, deg.vertex_tail
    # a subnormal w/|head| has lost its precision: then every step divides
    # by the tail sum first
    subnormal = (weight / deg.arc_head).min(initial=1.0) < np.finfo(np.float64).tiny
    # each row's entries before they are summed: one per head of each of
    # its arcs, or n for a dangling row
    raw = np.zeros(n, dtype=np.int64)
    np.add.at(raw, lay.tail_idx, np.repeat(deg.arc_head, deg.arc_tail))
    raw[jumpers] = n
    del deg
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(raw, out=ptr[1:])
    del raw
    slot_ptr, arc_of_slot = _outgoing(hg)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(ptr[-1], dtype=np.int64)
    data = np.empty(ptr[-1])
    bits = (n - 1).bit_length()
    end = 0
    # every row has an entry, so a block of several rows has at most
    # _BLOCK rows and slots: its keys below fit int64 while n < 2^34, and a
    # block of one row's while n·|E| < 2^63
    for r0, r1 in row_blocks(ptr):
        s0, s1 = slot_ptr[r0], slot_ptr[r1]
        arc = arc_of_slot[s0:s1]
        u = np.repeat(np.arange(r0, r1), np.diff(slot_ptr[r0:r1 + 1]))
        taken, key = _take(lay.head_ptr, lay.head_idx, arc)
        fan = np.diff(taken)  # each slot's |head|
        if subnormal:
            step = weight[arc] / vertex_tail[u] / fan
        else:
            step = weight[arc] / fan / vertex_tail[u]
        # one entry per slot and head vertex v, keyed (u - r0, v, slot)
        # with the slot in the low bits: sorted, each pair's entries are in
        # slot order, which within a row is arc order
        sbits = int(s1 - s0).bit_length()
        u -= r0
        u <<= bits + sbits
        u |= np.arange(s1 - s0)
        key <<= sbits
        key |= np.repeat(u, fan)
        del taken, fan, u
        a, b = np.searchsorted(jumpers, (r0, r1))
        if b > a:  # the uniform rows, read as one more slot whose step is 1/n
            rest = ((jumpers[a:b, None] - r0) << bits | np.arange(n)) << sbits | (s1 - s0)
            key = np.concatenate([key, rest.ravel()])
            step = np.append(step, 1.0 / n)
        key.sort()
        value = step[key & ((1 << sbits) - 1)]
        key >>= sbits
        del step
        # entry k + 1 repeats the pair of entry k where two of the row's
        # arcs share a head: each repeat is added, in slot order, to the
        # first entry of its pair, as a running sum from 0.0 would add it
        again = np.flatnonzero(key[1:] == key[:-1])
        if again.size:
            run = np.diff(again, prepend=-2) != 1
            np.add.at(value, again[run][np.cumsum(run) - 1], value[again + 1])
        kept = value != 0.0
        kept[again + 1] = False
        if not kept.all():
            key, value = key[kept], value[kept]
        # where each row of the block ends among its sorted keys
        indptr[r0 + 1:r1 + 1] = np.searchsorted(key, np.arange(1, r1 - r0 + 1) << bits)
        indptr[r0 + 1:r1 + 1] += end
        np.bitwise_and(key, (1 << bits) - 1, out=indices[end:end + key.size])
        data[end:end + key.size] = value
        end += key.size
    indices.resize(end, refcheck=False)
    data.resize(end, refcheck=False)
    return TransitionMatrix(SparseRealMatrix(n, n, indptr, indices, data), hg.vertices)


def _outgoing(hg: DirectedHypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's outgoing arcs in arc order, as CSR (ptr, arcs): the
    tail slots grouped by vertex with a packed-key sort, which orders them
    as a stable argsort would."""
    lay = hg.layout
    tail, arc = packed_sort(np.array(lay.tail_idx), hg.n_vertices, lay.tail_arc)
    return _ptr(tail, hg.n_vertices), arc


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


class _WalkTables(NamedTuple):
    """Flattened sampling tables, in the order the step kernels take them."""

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
    arc_ptr, arc_of_slot = _outgoing(hg)
    prob = lay.weight[arc_of_slot] / np.repeat(deg.vertex_tail, np.diff(arc_ptr))
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
    are those of one path reading the draws laid out in `_Draws`, whether
    that path is walked step by step or, for a walk of `_LANE_WALK` steps or
    more, as lanes (see `_lane_walk`).
    """
    ensure_valid(hg)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if start not in hg.vertices:
        raise ValueError(f"unknown start vertex {start!r}")
    tables = _walk_tables(hg)
    u = hg.vertices.index(start)
    counts = _lane_walk(tables, u, steps, seed) if steps >= _LANE_WALK else None
    if counts is None:
        counts = _one_walk(tables, u, steps, seed)
    freq = counts / float(steps)
    return {v: float(freq[i]) for i, v in enumerate(hg.vertices)}


def _one_walk(tables: _WalkTables, start: int, steps: int, seed: int) -> np.ndarray:
    """Visit counts of the seeded walk of `steps` steps from `start`, walked
    one step after another, a chunk of draws at a time."""
    draws = _Draws(seed, steps, [0], min(_WALK_CHUNK, steps))
    counts = np.zeros(tables.arc_ptr.size - 1, dtype=np.int64)
    u = start
    for done in range(0, steps, _WALK_CHUNK):
        (r_arc,), (r_head,) = draws.block(min(_WALK_CHUNK, steps - done))
        u = _kernels.walk_steps(*tables, u, r_arc, r_head, counts)
    return counts


class _Draws:
    """Block by block, the draws of lanes that walk on from steps
    ``begins`` of one seeded walk of ``steps`` steps, ``width`` steps a
    block at most.

    This is the one statement of the walk's draw layout. The walk is cut
    into chunks of ``_WALK_CHUNK`` steps, the last one short, read from
    PCG64(seed) one after another: per chunk of ``size`` steps,
    ``rng.random((2, size))``, the arc draws and then the head draws. So
    step i of the chunk that starts at step c reads its arc draw at output
    2c + i and its head draw ``size`` outputs later. Each lane keeps one
    stream for each, advanced to its place, and moves both to the next
    chunk's places whenever it reaches a chunk boundary.
    """

    def __init__(self, seed: int, steps: int, begins, width: int):
        # hashed once here, not once per stream
        self._seed, self._steps = np.random.SeedSequence(seed), steps
        self._begins = [int(t) for t in begins]
        self._done = 0  # steps drawn by every lane so far
        self._streams: list = [None] * len(self._begins)
        self._room = [0] * len(self._begins)  # steps each pair of streams has left in its chunk
        self._buffer = np.empty((2, len(self._begins), width))

    def keep(self, lanes: np.ndarray) -> None:
        """Drop every lane not in ``lanes`` (ascending indices)."""
        lanes = lanes.tolist()
        self._begins = [self._begins[k] for k in lanes]
        self._streams = [self._streams[k] for k in lanes]
        self._room = [self._room[k] for k in lanes]

    def block(self, m: int) -> np.ndarray:
        """The next ``m`` (at most the width) draws of every lane:
        ``(r_arc, r_head)``, one row per lane."""
        draws = self._buffer[:, :len(self._room), :m]
        arc, head = draws
        room, streams = self._room, self._streams
        for k in range(len(room)):
            if room[k] >= m:
                on_arc, on_head = streams[k]
                on_arc.random(out=arc[k])
                on_head.random(out=head[k])
                room[k] -= m
            else:
                self._cross(k, arc[k], head[k])
        self._done += m
        return draws

    def _cross(self, k: int, arc: np.ndarray, head: np.ndarray) -> None:
        """Fill lane k's rows, moving its streams at every chunk boundary."""
        at = self._begins[k] + self._done
        i = 0
        while i < arc.size:
            if not self._room[k]:
                t = at + i
                c = t // _WALK_CHUNK * _WALK_CHUNK
                size = min(_WALK_CHUNK, self._steps - c)
                self._streams[k] = (self._stream(c + t), self._stream(c + size + t))
                self._room[k] = c + size - t
            m = min(self._room[k], arc.size - i)
            on_arc, on_head = self._streams[k]
            on_arc.random(out=arc[i:i + m])
            on_head.random(out=head[i:i + m])
            self._room[k] -= m
            i += m

    def _stream(self, position: int) -> np.random.Generator:
        bits = np.random.PCG64(self._seed)
        bits.advance(position)
        return np.random.Generator(bits)


def _lane_walk(tables: _WalkTables, start: int, steps: int,
               seed: int) -> np.ndarray | None:
    """Visit counts of the seeded walk of `steps` steps from `start`, walked
    as K = steps // `_SEGMENT` lanes (at most `_LANES`) in lockstep, one per
    contiguous segment of equal length; None where the walk is better left
    to `_one_walk`.

    First a probe: walkers from up to `_PROBE` vertices spread over the
    graph, all reading the walk's first draws. Unless they all stand on one
    vertex within half a segment's steps, paths started apart may never
    meet (on a directed cycle, say), and the walk is left to `_one_walk`.

    The steps short of K whole segments are walked from `start` first. Then
    every lane walks its segment from `start` too, and its visits are
    counted. A lane whose true entry, the end of the walk before it, is
    another vertex is walked again from that entry, beside a replay of its
    first walk, until the two stand on one vertex. From there on both read
    the same draws from the same vertex, so they coincide (the coupling of
    Propp & Wilson, "Exact sampling with coupled Markov chains", 1996): the
    replay's visits are taken off and the true walk's added. Once every
    lane has met its replay, each lane's end is its true end, from the
    first lane on, and the counts are those of one path walking every step.
    A lane that has not met its replay by its segment's end leaves the walk
    to `_one_walk`.
    """
    lanes = _kernels.lane_tables(*tables)
    n = tables.arc_ptr.size - 1
    k = min(max(steps // _SEGMENT, 1), _LANES)
    size = steps // k
    spread = np.unique(np.linspace(0, n - 1, min(n, _PROBE)).astype(np.intp))
    if not _coalesces(lanes, _Draws(seed, steps, [0], _BLOCK), spread[:, None], size // 2):
        return None
    counts = np.zeros(n, dtype=np.int64)
    lead = steps - k * size
    entry = _walk(lanes, _Draws(seed, steps, [0], _BLOCK), np.array([start]), lead, counts)
    begins = lead + size * np.arange(k)
    ends = _walk(lanes, _Draws(seed, steps, begins, _BLOCK), np.full(k, start), size, counts)
    entries = np.concatenate([entry, ends[:-1]])
    again = np.flatnonzero(entries != start)
    draws = _Draws(seed, steps, begins[again], _BLOCK)
    pair = np.stack([entries[again], np.full(again.size, start)])  # true, replay
    for done in range(0, size, _BLOCK):
        if not pair.size:
            return counts
        m = min(_BLOCK, size - done)
        path = np.empty((m,) + pair.shape, dtype=np.intp)
        pair = _kernels.walk_lanes(lanes, pair, *draws.block(m), path)
        counts += np.bincount(path[:, 0].ravel(), minlength=n)
        counts -= np.bincount(path[:, 1].ravel(), minlength=n)
        apart = np.flatnonzero(pair[0] != pair[1])
        if apart.size < pair.shape[1]:
            draws.keep(apart)
            pair = pair[:, apart]
    return None if pair.size else counts


def _walk(lanes: _kernels.Lanes, draws: _Draws, u: np.ndarray, length: int,
          counts: np.ndarray) -> np.ndarray:
    """Walk each lane of ``draws`` ``length`` steps from its vertex in
    ``u``, adding every visit to ``counts``; the end vertices."""
    path = np.empty((min(_BLOCK, length), u.size), dtype=np.intp)
    for done in range(0, length, _BLOCK):
        m = min(_BLOCK, length - done)
        u = _kernels.walk_lanes(lanes, u, *draws.block(m), path[:m]).copy()
        counts += np.bincount(path[:m].ravel(), minlength=counts.size)
    return u


def _coalesces(lanes: _kernels.Lanes, draws: _Draws, u: np.ndarray,
               length: int) -> bool:
    """Whether the walkers in ``u`` (walkers × 1), all reading the one lane
    of ``draws``, stand on one vertex within ``length`` steps."""
    path = np.empty((min(_BLOCK, length),) + u.shape, dtype=np.intp)
    for done in range(0, length, _BLOCK):
        if (u == u[0]).all():
            return True
        m = min(_BLOCK, length - done)
        u = _kernels.walk_lanes(lanes, u, *draws.block(m), path[:m]).copy()
    return bool((u == u[0]).all())


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
    reference = rank.with_normalization(L1).as_dict()
    gap = 0.0
    # a loop, not sum(): from Python 3.12 sum() compensates float rounding
    for v in sorted(set(empirical) | set(reference)):
        gap += abs(empirical.get(v, 0.0) - reference.get(v, 0.0))
    return 0.5 * gap
