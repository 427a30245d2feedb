# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled random-walk stepping.

Bitwise-compatible with _pykernels by construction: identical bisection
bounds and float truncation.
"""

from libc.stdint cimport int64_t


def walk_steps(const int64_t[::1] arc_ptr, const double[::1] arc_cum,
               const int64_t[::1] arc_of_slot, const int64_t[::1] head_ptr,
               const int64_t[::1] head_verts, Py_ssize_t start,
               const double[::1] r_arc, const double[::1] r_head,
               int64_t[::1] counts):
    """Advance the walk by len(r_arc) transitions; returns the final vertex."""
    cdef Py_ssize_t n_steps = r_arc.shape[0]
    cdef Py_ssize_t t, lo, hi, mid, slot, hs, hn, idx
    cdef Py_ssize_t u = start
    cdef int64_t e
    cdef double r
    with nogil:
        for t in range(n_steps):
            lo = arc_ptr[u]
            hi = arc_ptr[u + 1]
            r = r_arc[t]
            # bisect_right(arc_cum, r, lo, hi)
            while lo < hi:
                mid = (lo + hi) >> 1
                if r < arc_cum[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            slot = lo
            if slot >= arc_ptr[u + 1]:
                slot = arc_ptr[u + 1] - 1
            e = arc_of_slot[slot]
            hs = head_ptr[e]
            hn = head_ptr[e + 1] - hs
            idx = <Py_ssize_t>(r_head[t] * hn)
            if idx >= hn:
                idx = hn - 1
            u = head_verts[hs + idx]
            counts[u] += 1
    return u
