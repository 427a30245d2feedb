"""The numeric kernels: the CSR transposed multiply and two walk steppers.

The multiply is one NumPy scatter, ``np.add.at``.

``walk_steps`` walks one path in Python. It reads a per-vertex view of the
sampling tables: for vertex u, the tuple of its cumulative arc-choice
totals, and one ``(head count, heads)`` pair per tail slot. Padding stands
in for the two clamps. The slot tuple ends in a second copy of its last
entry, for a draw at or past the last total, and each heads tuple ends in
a second copy of its last head, for a head draw of exactly 1.0. So a step
is one bisection and two tuple lookups, with the same bisection bounds and
float truncation as the loop in ``tests/oracles.py``. The view is built
once per table set, not once per call. The last one is kept next to weak
references to its five arrays, matched by identity, so it is dropped with
its tables and never serves new ones.

``walk_lanes`` walks many paths at once, one NumPy operation per stage of
a step over every path (a lane), on tables from ``lane_tables``. Each
vertex cuts [0, 1] into 2^b equal buckets, a few per outgoing arc; a draw's
bucket is found by one exact multiplication, and the bucket holds the
range of u's totals that the draw may still fall on either side of. The
choice is then one comparison (more only where totals crowd a bucket), and
lands on the same slot as ``bisect_right`` plus both clamps.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

# (weak references to the five table arrays, their view), or () when none
_last: tuple = ()

# int() of a float, without the dispatch of int's constructor: a step's
# largest single cost when written int(x)
_trunc = float.__trunc__


def csr_left_multiply(indptr, indices, data, x, out):
    """Write y = xᵀA into ``out`` for a CSR matrix A, i.e. a row-major scatter.

    Holds one entry-sized temporary, the products, and reads the frozen
    ``indices`` where they are: ``np.bincount`` would copy a read-only one.
    """
    products = np.repeat(x, np.diff(indptr))
    products *= data
    # add.at adds in input order from the zeros, so each column sums its
    # products in the same row-major order as a plain loop would.
    out.fill(0.0)
    np.add.at(out, indices, products)


def _vertex_view(arc_ptr, arc_cum, arc_of_slot, head_ptr, head_verts) -> list:
    """Per vertex u, ``(totals, slots)``: the cumulative totals of u's
    outgoing arcs and one padded ``(head count, heads)`` pair per arc.

    The head count is a float: it converts exactly, so a draw times it is
    the product the loop oracle takes, without a mixed-type multiply.
    """
    ptr, cum = arc_ptr.tolist(), arc_cum.tolist()
    arc_of, hptr, hv = arc_of_slot.tolist(), head_ptr.tolist(), head_verts.tolist()
    # one pair per arc, shared by every vertex of its tail
    arcs = [(float(b - a), tuple(hv[a:b]) + (hv[b - 1],)) for a, b in zip(hptr, hptr[1:])]
    view = []
    for lo, hi in zip(ptr, ptr[1:]):
        slots = [arcs[e] for e in arc_of[lo:hi]]
        view.append((tuple(cum[lo:hi]), tuple(slots + slots[-1:])))
    return view


def _release(ref) -> None:
    global _last
    last = _last
    if last and any(r is ref for r in last[0]):
        _last = ()


def _view_of(tables) -> list:
    """The view of ``tables``, built only when they are not the last set seen."""
    global _last
    # read once: another thread may replace the entry between two reads
    last = _last
    if last and all(r() is t for r, t in zip(last[0], tables)):
        return last[1]
    view = _vertex_view(*tables)
    _last = (tuple(weakref.ref(t, _release) for t in tables), view)
    return view


def walk_steps(arc_ptr, arc_cum, arc_of_slot, head_ptr, head_verts,
               start, r_arc, r_head, counts):
    """Advance the walk by len(r_arc) transitions; returns the final vertex.

    ``counts`` accumulates one visit per transition, in place. The caller
    supplies the uniform draws, each in [0, 1], so that chunked calls are
    reproducible. Every vertex the walk reaches needs an outgoing arc.
    """
    view = _view_of((arc_ptr, arc_cum, arc_of_slot, head_ptr, head_verts))
    cnt = counts.tolist()
    u = int(start)
    # a memoryview makes each draw a Python float only as it is read, so no
    # list of the draws is built
    for ra, rh in zip(memoryview(r_arc), memoryview(r_head)):
        totals, slots = view[u]
        hn, heads = slots[bisect_right(totals, ra)]
        u = heads[_trunc(rh * hn)]
        cnt[u] += 1
    counts[:] = cnt
    return u


# finer bucket levels tried, per vertex, before totals may share a bucket
_FINER = 3


class Lanes(NamedTuple):
    """The sampling tables as ``walk_lanes`` reads them, all O(tail slots).

    Slots are padded: vertex u owns deg(u) + 1 of them, the last a second
    copy of its last arc (the clamp of a draw at or past the last total).
    """

    scale: np.ndarray       # per vertex, its bucket count 2^b as a float
    first: np.ndarray       # per vertex, its first entry in ``low``
    low: np.ndarray         # per bucket j of u, the padded slot of u's first total >= j/2^b
    pivot: np.ndarray       # per bucket, the total its first comparison reads
    span: int               # slots the first comparison may pass; a power of two
    totals: np.ndarray      # totals at their padded slots, +inf at every pad
    head_first: np.ndarray  # per padded slot, where its arc's heads start in ``heads``
    head_count: np.ndarray  # per padded slot, its arc's head count as a float
    heads: np.ndarray       # each arc's heads and a second copy of its last


def lane_tables(arc_ptr, arc_cum, arc_of_slot, head_ptr, head_verts) -> Lanes:
    """The lane tables of the walk tables, built with whole-array operations.

    Vertex u of degree d gets 2^b buckets, b the first of ceil(log2 d) to
    ceil(log2 d) + ``_FINER`` at which no two totals share a bucket (the
    last of them where none is). Bucket j covers [j/2^b, (j+1)/2^b); bucket
    2^b holds the totals of at least 1, for a draw of exactly 1.0.
    """
    n = arc_ptr.size - 1
    deg = np.diff(arc_ptr)
    slots = arc_cum.size
    vertex = np.repeat(np.arange(n), deg)
    coarse = np.frexp(deg - 1)[1].astype(np.int64)  # ceil(log2 deg)

    def buckets(level):
        size = np.ldexp(1.0, level)[vertex]
        return np.minimum(np.floor(arc_cum * size), size).astype(np.int64)

    level = coarse + _FINER
    unset = np.ones(n, dtype=bool)
    for finer in range(_FINER + 1):
        d = buckets(coarse + finer)
        shared = (d[1:] == d[:-1]) & (vertex[1:] == vertex[:-1])
        clash = np.bincount(vertex[1:][shared], minlength=n) > 0
        fits = unset & ~clash
        level[fits] = coarse[fits] + finer
        unset &= clash
    # entries 0 .. 2^b + 1 of u: u's padded slot of its first total in or
    # above each bucket, past the arc_ptr[u] totals and u pads before it
    entries = (1 << level) + 2
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(entries, out=first[1:])
    low = np.zeros(first[-1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(first[:-1][vertex] + buckets(level), minlength=first[-1]),
              out=low[1:])
    low[:-1] += np.repeat(np.arange(n), entries)
    low[-1] += n
    fill = np.diff(low)
    fill[first[1:] - 1] = 0  # an entry past u's last bucket is no bucket
    span = 1 << max(int(fill.max(initial=0)).bit_length() - 1, 0)
    ends = arc_ptr[1:]
    totals = np.append(np.insert(arc_cum, ends, np.inf), np.inf)
    pivot = totals[np.minimum(low[:-1] + span - 1, low[1:])]
    arc = np.insert(arc_of_slot, ends, arc_of_slot[ends - 1])
    count = np.diff(head_ptr)
    heads = np.insert(head_verts, head_ptr[1:], head_verts[head_ptr[1:] - 1])
    head_first = head_ptr[:-1] + np.arange(count.size)
    return Lanes(np.ldexp(1.0, level), first[:-1], low, pivot, span, totals,
                 head_first[arc], count[arc].astype(np.float64), heads)


def walk_lanes(lanes: Lanes, u, r_arc, r_head, path):
    """Advance every walker by one step per column of the draws, in lockstep.

    ``u`` holds the walkers' vertices, shaped (..., K) for K lanes; row k of
    ``r_arc`` and ``r_head`` (K × m) are lane k's draws, each in [0, 1], read
    by every walker of the lane. ``path`` (m, ..., K) receives each walker's
    vertex after every step; its last row, the end vertices, is returned.
    Every vertex a walker reaches needs an outgoing arc.
    """
    scale, first, low, pivot, span, totals, head_first, head_count, heads = lanes
    for t in range(r_arc.shape[1]):
        ra = r_arc[:, t]
        b = first[u]
        b += (ra * scale[u]).astype(np.intp)
        s = low[b]
        if span == 1:
            s += pivot[b] <= ra
        else:
            s += (pivot[b] <= ra) * span
            high = low[b + 1]
            step = span >> 1
            while step:
                s += (totals[np.minimum(s + step - 1, high)] <= ra) * step
                step >>= 1
        h = head_first[s]
        h += (r_head[:, t] * head_count[s]).astype(np.intp)
        u = path[t]
        heads.take(h, out=u)
    return u
