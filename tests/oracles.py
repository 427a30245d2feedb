"""Plain-loop reference implementations the vectorised code is tested against.

Each one is the straightforward loop the library replaced, kept here so
that the fast path can be compared with it bit for bit.
"""

from __future__ import annotations

import numpy as np


def csr_left_multiply(indptr, indices, data, x, out) -> None:
    """y = xᵀA into ``out`` by a row-major scatter, the former compiled loop."""
    ptr, cols, vals, xs = indptr.tolist(), indices.tolist(), data.tolist(), x.tolist()
    acc = [0.0] * out.size
    for i in range(len(ptr) - 1):
        xi = xs[i]
        for j in range(ptr[i], ptr[i + 1]):
            acc[cols[j]] += vals[j] * xi
    out[:] = acc


def row_sums(indptr, data) -> np.ndarray:
    """Each row's stored values summed left to right."""
    ptr, vals = indptr.tolist(), data.tolist()
    acc = [0.0] * (len(ptr) - 1)
    for i in range(len(ptr) - 1):
        for j in range(ptr[i], ptr[i + 1]):
            acc[i] += vals[j]
    return np.array(acc, dtype=np.float64)
