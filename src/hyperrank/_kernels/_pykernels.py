"""Pure-Python fallback for the compiled walk stepper.

The two backends must stay bitwise-compatible: same bisection bounds and
float truncation. Parity is enforced by tests/test_kernels.py.
"""

from __future__ import annotations

from bisect import bisect_right

_BLOCK = 1 << 14


def walk_steps(arc_ptr, arc_cum, arc_of_slot, head_ptr, head_verts,
               start, r_arc, r_head, counts):
    """Advance the walk by len(r_arc) transitions; returns the final vertex.

    ``counts`` accumulates one visit per transition, in place. The caller
    supplies the uniform draws so that chunked calls are reproducible.
    """
    ptr = arc_ptr.tolist()
    cum = arc_cum.tolist()
    arc_of = arc_of_slot.tolist()
    hptr = head_ptr.tolist()
    hv = head_verts.tolist()
    cnt = counts.tolist()
    u = int(start)
    # the draws become Python floats a block at a time, which bounds the
    # memory the lists take whatever the caller's chunk size
    for b in range(0, len(r_arc), _BLOCK):
        for ra, rh in zip(r_arc[b:b + _BLOCK].tolist(), r_head[b:b + _BLOCK].tolist()):
            lo = ptr[u]
            hi = ptr[u + 1]
            slot = bisect_right(cum, ra, lo, hi)
            if slot >= hi:
                slot = hi - 1
            e = arc_of[slot]
            hs = hptr[e]
            hn = hptr[e + 1] - hs
            idx = int(rh * hn)
            if idx >= hn:
                idx = hn - 1
            u = hv[hs + idx]
            cnt[u] += 1
    counts[:] = cnt
    return u
