"""The numeric kernels: the CSR transposed multiply and the walk stepper.

The multiply is one NumPy scatter. The walk stepper reads a per-vertex
view of the sampling tables: for vertex u, the tuple of its cumulative
arc-choice totals, and one ``(head count, heads)`` pair per tail slot.
Padding stands in for the two clamps. The slot tuple ends in a second copy
of its last entry, for a draw at or past the last total, and each heads
tuple ends in a second copy of its last head, for a head draw of exactly
1.0. So a step is one bisection and two tuple lookups, with the same
bisection bounds and float truncation as the loop in ``tests/oracles.py``.

The view is built once per table set, not once per call. The last one is
kept next to weak references to its five arrays, matched by identity, so
it is dropped with its tables and never serves new ones.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right

import numpy as np

# (weak references to the five table arrays, their view), or () when none
_last: tuple = ()

# int() of a float, without the dispatch of int's constructor: a step's
# largest single cost when written int(x)
_trunc = float.__trunc__


def csr_left_multiply(indptr, indices, data, x, out):
    """Write y = xᵀA into ``out`` for a CSR matrix A, i.e. a row-major scatter."""
    # bincount adds its weights in input order, so each column sums its
    # products in the same row-major order as a plain loop would.
    out[:] = np.bincount(indices, weights=data * np.repeat(x, np.diff(indptr)),
                         minlength=out.size)


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
