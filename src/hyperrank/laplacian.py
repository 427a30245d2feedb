"""The two Laplacians of the hypergraph walk.

With S = diag(pi) for the stationary rank vector pi of a transition
matrix P:

    L     = S - (S·P + Pᵀ·S) / 2
    L_sym = I - (S^½·P·S^-½ + S^-½·Pᵀ·S^½) / 2

Both are sparse, stored on the union of the patterns of P, Pᵀ and the
diagonal. An entry and its transpose take the same two products, added in
swapped order, and IEEE addition and multiplication commute, so both
matrices are exactly symmetric as built. Their symmetry defect is still
measured and reported, as a check.

The all-ones vector is in the null space of L and sqrt(pi) in the null
space of L_sym. Both matrices are symmetric with nonpositive off-diagonal
entries, so by Collatz-Wielandt the smallest eigenvalue of L is at least
min_u (L·1)_u, and that of L_sym at least min_u (L·1)_u / pi_u, where
(L·1)_u = (pi_u - (Pᵀpi)_u) / 2 for a row-stochastic P (F. Chung,
"Laplacians and the Cheeger inequality for directed graphs", 2005).
spectral_report checks the null vectors and these two lower bounds, which
certify positive semidefiniteness in O(nnz) without an eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositivePiError, NotStationaryError
from .sparse import SparseRealMatrix, _ptr, packed_unique
from .walk import L1, RankVector, TransitionMatrix

STATIONARITY_TOL = 1e-8   # build_laplacians: largest L1 residual |pi·P - pi|
DEFECT_TOL = 1e-12        # SpectralReport.within: largest symmetry defect
NULL_TOL = 1e-10          # SpectralReport.within: largest null-vector residual
EIGENVALUE_FLOOR = -1e-9  # SpectralReport.within: least eigenvalue lower bound


@dataclass(frozen=True, eq=False)
class LaplacianPair:
    unnormalized: SparseRealMatrix
    symmetric_normalized: SparseRealMatrix
    pi: RankVector
    raw_defect_unnormalized: float
    raw_defect_normalized: float
    ones_image: np.ndarray    # (L·1)_u = (pi_u - (Pᵀpi)_u) / 2

    @property
    def n(self) -> int:
        return self.unnormalized.rows


def _union_pattern(P: SparseRealMatrix):
    """Row-major (u, v) of every entry of P, Pᵀ or the diagonal, with
    P[u, v] and P[v, u] there (0.0 where absent), and the position of each
    entry's transpose."""
    n, nnz = P.rows, P.nnz
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    keys = np.concatenate([rows * n + P.indices, P.indices * n + rows,
                           np.arange(n) * (n + 1)])
    distinct, slot, pos = packed_unique(keys, n * n)
    del keys
    u, v = np.divmod(distinct, n)
    # inverse[k]: the position of the k-th key among the distinct keys
    inverse = np.empty_like(slot)
    inverse[pos] = slot
    del slot, pos
    own, mirrored, diagonal = inverse[:nnz], inverse[nnz:2 * nnz], inverse[2 * nnz:]
    forward = np.zeros(u.size)
    forward[own] = P.data
    backward = np.zeros(u.size)
    backward[mirrored] = P.data
    transpose = np.empty(u.size, dtype=np.int64)
    transpose[own] = mirrored
    transpose[mirrored] = own
    transpose[diagonal] = diagonal
    return u, v, forward, backward, transpose


def _stored(n: int, u, v, raw, transpose) -> tuple[SparseRealMatrix, float]:
    """The matrix of the entries ``raw`` and its symmetry defect, max |raw - rawᵀ|."""
    defect = float(np.abs(raw - raw[transpose]).max(initial=0.0))
    kept = raw != 0.0
    return SparseRealMatrix(n, n, _ptr(u[kept], n), v[kept], raw[kept]), defect


def build_laplacians(P: TransitionMatrix, pi: RankVector) -> LaplacianPair:
    """Construct both Laplacians from P and its stationary rank vector.

    pi must carry the L1 tag (a probability vector), be strictly positive,
    and actually be stationary for P within STATIONARITY_TOL in L1.
    Every stored entry takes the same floating-point operations, in the
    same order, as the dense formulas in the module docstring.
    """
    if pi.normalization != L1:
        raise ValueError("pi must be L1-normalized (a probability vector)")
    if tuple(pi.vertices) != tuple(P.vertex_order):
        raise ValueError("pi and P disagree on the vertex order")
    values = pi.values
    nonpositive = np.flatnonzero(values <= 0.0)
    if nonpositive.size:
        raise NonpositivePiError(pi.vertices[int(nonpositive[0])])
    flow = P.matrix.left_multiply(values)
    residual = float(np.abs(flow - values).sum())
    if residual > STATIONARITY_TOL:
        raise NotStationaryError(residual, STATIONARITY_TOL)

    n = P.n
    u, v, forward, backward, transpose = _union_pattern(P.matrix)
    diagonal = u == v
    # S - (S·P + Pᵀ·S)/2, entry by entry
    raw = (np.where(diagonal, values[u], 0.0)
           - 0.5 * (values[u] * forward + backward * values[v]))
    unnormalized, defect_u = _stored(n, u, v, raw, transpose)

    root = np.sqrt(values)
    # I - (S^½·P·S^-½ + S^-½·Pᵀ·S^½)/2, entry by entry
    raw = (np.where(diagonal, 1.0, 0.0)
           - 0.5 * ((root[u] * forward) / root[v] + (backward * root[v]) / root[u]))
    normalized, defect_n = _stored(n, u, v, raw, transpose)

    ones_image = 0.5 * (values - flow)
    ones_image.setflags(write=False)
    return LaplacianPair(unnormalized, normalized, pi, defect_u, defect_n,
                         ones_image)


@dataclass(frozen=True)
class SpectralReport:
    symmetry_defect_unnormalized: float
    symmetry_defect_normalized: float
    ones_residual: float      # max |(L·1)_v|
    sqrt_pi_residual: float   # max |(L_sym·sqrt(pi))_v|
    lower_bound_unnormalized: float  # <= the smallest eigenvalue of L
    lower_bound_normalized: float    # <= the smallest eigenvalue of L_sym

    def within(self) -> bool:
        return (self.symmetry_defect_unnormalized <= DEFECT_TOL
                and self.symmetry_defect_normalized <= DEFECT_TOL
                and self.ones_residual <= NULL_TOL
                and self.sqrt_pi_residual <= NULL_TOL
                and self.lower_bound_unnormalized >= EIGENVALUE_FLOOR
                and self.lower_bound_normalized >= EIGENVALUE_FLOOR)

    def lines(self) -> list[str]:
        return [
            f"symmetry defect (unnormalized): {self.symmetry_defect_unnormalized:.3e}",
            f"symmetry defect (normalized):   {self.symmetry_defect_normalized:.3e}",
            f"|L @ ones| max residual:        {self.ones_residual:.3e}",
            f"|L_sym @ sqrt(pi)| max residual: {self.sqrt_pi_residual:.3e}",
            f"lower bound on eigenvalues of L:     {self.lower_bound_unnormalized:.3e}",
            f"lower bound on eigenvalues of L_sym: {self.lower_bound_normalized:.3e}",
        ]


def spectral_report(pair: LaplacianPair) -> SpectralReport:
    """Null-vector residuals of both matrices and lower bounds on their
    smallest eigenvalues; both matrices are symmetric, so each product is
    one transposed multiply."""
    n = pair.n
    values = pair.pi.values
    ones_residual = float(np.abs(pair.unnormalized.left_multiply(np.ones(n))).max())
    sqrt_pi_residual = float(np.abs(
        pair.symmetric_normalized.left_multiply(np.sqrt(values))).max())
    bound_u = float(pair.ones_image.min())
    bound_n = float((pair.ones_image / values).min())
    return SpectralReport(pair.raw_defect_unnormalized,
                          pair.raw_defect_normalized,
                          ones_residual, sqrt_pi_residual, bound_u, bound_n)
