"""Row-compressed sparse real matrices.

Deliberately small: only the shapes and products the hypergraph pipeline
needs (incidence matrices, the transition matrix), with a kernel-backed
transposed vector product. Arrays are frozen after construction.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

# the entries that a row-blocked pass (see row_blocks) holds temporaries for
_BLOCK = 1 << 14


def _frozen(values, dtype) -> np.ndarray:
    """The values as a read-only C-ordered array of ``dtype``; an array that
    already is one is frozen in place, not copied."""
    arr = np.asarray(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def packed_sort(key: np.ndarray, size: int, low=None) -> tuple[np.ndarray, np.ndarray]:
    """Sort the int64 keys in [0, size) stably, each with its entry of
    ``low``: nondecreasing nonnegative integers, by default the input
    positions.

    Returns the sorted keys and their entries of ``low``; with the
    positions, the permutation of ``np.argsort(kind="stable")``. ``key`` is
    overwritten.
    """
    top = np.iinfo(np.int64).max
    if size > top:
        raise ValueError(f"a range of {size} keys is beyond int64")
    if low is None:
        low = np.arange(key.size)
    shift = int(low[-1]).bit_length() if low.size else 0
    if (max(size, 1) - 1) << shift <= top:
        # each key with its low entry in the low bits: one plain sort
        # orders the keys and, within a key, the entries, which ascend
        # with the input position
        key <<= shift
        key |= low
        key.sort()
        low = key & ((1 << shift) - 1)
        key >>= shift
        return key, low
    # the low entries do not fit beside the keys
    pos = np.argsort(key, kind="stable")
    return key[pos], low[pos]


def packed_unique(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the int64 keys in [0, size) by value, each group in input order.

    Returns the distinct keys in ascending order, then, for the entries
    sorted by (key, input position), each one's slot among the distinct keys
    and its input position. ``key`` is overwritten.
    """
    key, pos = packed_sort(key, size)
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    distinct = key[first]
    slot = np.cumsum(first, out=key)
    slot -= 1
    return distinct, slot, pos


def row_blocks(ptr: np.ndarray):
    """Consecutive ranges ``(r0, r1)`` of whole rows that cover every row of
    the row pointer ``ptr``, each holding at most ``_BLOCK`` entries unless
    it is a single row."""
    rows = ptr.size - 1
    r0 = 0
    while r0 < rows:
        r1 = max(int(np.searchsorted(ptr, ptr[r0] + _BLOCK, side="right")) - 1, r0 + 1)
        yield r0, r1
        r0 = r1


class SparseRealMatrix:
    """CSR matrix with sorted, duplicate-free columns and no stored zeros.

    The arrays handed to the constructor are kept and made read-only, not
    copied, when they already have the dtype and layout; the caller must not
    keep writing to them. Neither the constructor's checks nor ``row_sums``
    hold an entry-sized integer array: columns are compared with their
    neighbours, and rows are summed a block at a time (see ``row_blocks``).
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "data")

    def __init__(self, rows: int, cols: int, indptr, indices, data):
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = _frozen(indptr, np.int64)
        self.indices = _frozen(indices, np.int64)
        self.data = _frozen(data, np.float64)
        self._check()

    def _check(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if self.indptr.shape != (self.rows + 1,):
            raise ValueError("indptr length must be rows + 1")
        if self.indices.shape != self.data.shape or self.indices.ndim != 1:
            raise ValueError("indices and data must be aligned 1-d arrays")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must span the entry arrays")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.cols:
                raise ValueError("column index out of range")
            if np.any(self.data == 0.0):
                raise ValueError("explicit zeros are not stored")
        if self.indices.size > 1:
            # entry k + 1 must follow entry k in column, unless it starts a row
            unordered = self.indices[1:] <= self.indices[:-1]
            starts = self.indptr[1:-1]
            unordered[starts[(starts > 0) & (starts < self.indices.size)] - 1] = False
            if unordered.any():
                raise ValueError("columns must be strictly increasing within a row")

    @classmethod
    def from_coo(cls, rows: int, cols: int, row, col, value) -> "SparseRealMatrix":
        """Build from parallel (row, col, value) arrays; duplicates sum, zeros drop.

        Duplicates are summed in input order, starting from 0.0. A shape
        whose rows·cols exceeds the int64 range is a ValueError.
        """
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        value = np.asarray(value, dtype=np.float64)
        if not (row.ndim == col.ndim == value.ndim == 1
                and row.size == col.size == value.size):
            raise ValueError("row, col and value must be aligned 1-d arrays")
        outside = np.flatnonzero((row < 0) | (row >= rows) | (col < 0) | (col >= cols))
        if outside.size:
            k = outside[0]
            raise IndexError(f"entry ({row[k]}, {col[k]}) outside {rows}x{cols}")
        if rows * cols > np.iinfo(np.int64).max:  # before row·cols + col can wrap
            raise ValueError(f"a {rows}x{cols} matrix has more positions than int64 keys")
        key = row * cols
        key += col
        keys, slot, pos = packed_unique(key, rows * cols)
        del key
        value = value[pos]
        del pos
        # bincount adds each key's values in sorted order, which within a
        # key is input order, like a running sum
        sums = np.bincount(slot, weights=value, minlength=keys.size)
        del slot, value
        kept = sums != 0.0
        keys, sums = keys[kept], sums[kept]
        row, col = np.divmod(keys, cols)
        del keys
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=rows), out=indptr[1:])
        return cls(rows, cols, indptr, col, sums)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        rows = np.repeat(np.arange(self.rows), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def row_sums(self) -> np.ndarray:
        """Each row's values summed left to right from 0.0, a block of rows
        at a time."""
        out = np.zeros(self.rows)
        ptr = self.indptr
        for r0, r1 in row_blocks(ptr):
            rows = np.repeat(np.arange(r1 - r0), np.diff(ptr[r0:r1 + 1]))
            out[r0:r1] = np.bincount(rows, weights=self.data[ptr[r0]:ptr[r1]],
                                     minlength=r1 - r0)
        return out

    def left_multiply(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """Return y = xᵀA as a 1-d array of length ``cols``."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.rows,):
            raise ValueError(f"expected a vector of length {self.rows}")
        if out is None:
            out = np.zeros(self.cols)
        elif out.shape != (self.cols,) or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 vector of length {self.cols}")
        _kernels.csr_left_multiply(self.indptr, self.indices, self.data, x, out)
        return out

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRealMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseRealMatrix({self.rows}x{self.cols}, nnz={self.nnz})"
