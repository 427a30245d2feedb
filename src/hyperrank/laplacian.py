"""The two Laplacians of the hypergraph walk.

With S = diag(pi) for the stationary rank vector pi of a transition
matrix P:

    L     = S - (S·P + Pᵀ·S) / 2
    L_sym = I - (S^½·P·S^-½ + S^-½·Pᵀ·S^½) / 2

Both are symmetrized by averaging with their transpose after construction;
the pre-symmetrization defect is recorded for reporting. The all-ones
vector is in the null space of L and sqrt(pi) in the null space of L_sym,
which spectral_report verifies numerically together with positive
semidefiniteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DenseLimitExceededError, NonpositivePiError,
                     NotStationaryError)
from .walk import DENSE_LIMIT, L1, RankVector, TransitionMatrix

STATIONARITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LaplacianPair:
    unnormalized: np.ndarray
    symmetric_normalized: np.ndarray
    pi: RankVector
    raw_defect_unnormalized: float
    raw_defect_normalized: float

    @property
    def n(self) -> int:
        return self.unnormalized.shape[0]


def _symmetrize(raw: np.ndarray) -> tuple[np.ndarray, float]:
    defect = float(np.abs(raw - raw.T).max())
    out = 0.5 * (raw + raw.T)
    out.setflags(write=False)
    return out, defect


def build_laplacians(P: TransitionMatrix, pi: RankVector,
                     stationarity_tol: float = STATIONARITY_TOL) -> LaplacianPair:
    """Construct both Laplacians from P and its stationary rank vector.

    pi must carry the L1 tag (a probability vector), be strictly positive,
    and actually be stationary for P within `stationarity_tol` in L1.
    Dense on purpose: the intended scales are desk-sized, so more than
    DENSE_LIMIT vertices is refused before anything n×n is allocated.
    """
    if P.n > DENSE_LIMIT:
        raise DenseLimitExceededError(P.n, DENSE_LIMIT)
    if pi.normalization != L1:
        raise ValueError("pi must be L1-normalized (a probability vector)")
    if tuple(pi.vertices) != tuple(P.vertex_order):
        raise ValueError("pi and P disagree on the vertex order")
    values = pi.values
    nonpositive = np.flatnonzero(values <= 0.0)
    if nonpositive.size:
        raise NonpositivePiError(pi.vertices[int(nonpositive[0])])
    residual = float(np.abs(P.matrix.left_multiply(values) - values).sum())
    if residual > stationarity_tol:
        raise NotStationaryError(residual, stationarity_tol)

    dense = P.to_dense()
    n = P.n
    S = np.diag(values)
    SP = values[:, None] * dense
    PtS = dense.T * values[None, :]
    unnormalized, defect_u = _symmetrize(S - 0.5 * (SP + PtS))

    root = np.sqrt(values)
    A = (root[:, None] * dense) / root[None, :]
    B = (dense.T * root[None, :]) / root[:, None]
    normalized, defect_n = _symmetrize(np.eye(n) - 0.5 * (A + B))

    return LaplacianPair(unnormalized, normalized, pi, defect_u, defect_n)


@dataclass(frozen=True)
class SpectralReport:
    symmetry_defect_unnormalized: float
    symmetry_defect_normalized: float
    ones_residual: float      # max |(L·1)_v|
    sqrt_pi_residual: float   # max |(L_sym·sqrt(pi))_v|
    min_eigenvalue_unnormalized: float
    min_eigenvalue_normalized: float

    def within(self, defect_tol: float = 1e-12, null_tol: float = 1e-10,
               eigenvalue_floor: float = -1e-9) -> bool:
        return (self.symmetry_defect_unnormalized <= defect_tol
                and self.symmetry_defect_normalized <= defect_tol
                and self.ones_residual <= null_tol
                and self.sqrt_pi_residual <= null_tol
                and self.min_eigenvalue_unnormalized >= eigenvalue_floor
                and self.min_eigenvalue_normalized >= eigenvalue_floor)

    def lines(self) -> list[str]:
        return [
            f"symmetry defect (unnormalized): {self.symmetry_defect_unnormalized:.3e}",
            f"symmetry defect (normalized):   {self.symmetry_defect_normalized:.3e}",
            f"|L @ ones| max residual:        {self.ones_residual:.3e}",
            f"|L_sym @ sqrt(pi)| max residual: {self.sqrt_pi_residual:.3e}",
            f"smallest eigenvalue of L:        {self.min_eigenvalue_unnormalized:.3e}",
            f"smallest eigenvalue of L_sym:    {self.min_eigenvalue_normalized:.3e}",
        ]


def spectral_report(pair: LaplacianPair) -> SpectralReport:
    """Null-vector residuals and extreme eigenvalues of both matrices."""
    n = pair.n
    if n > DENSE_LIMIT:
        raise DenseLimitExceededError(n, DENSE_LIMIT)
    ones = np.ones(n)
    root = np.sqrt(pair.pi.values)
    ones_residual = float(np.abs(pair.unnormalized @ ones).max())
    sqrt_pi_residual = float(np.abs(pair.symmetric_normalized @ root).max())
    eig_u = float(np.linalg.eigvalsh(pair.unnormalized)[0])
    eig_n = float(np.linalg.eigvalsh(pair.symmetric_normalized)[0])
    return SpectralReport(pair.raw_defect_unnormalized,
                          pair.raw_defect_normalized,
                          ones_residual, sqrt_pi_residual, eig_u, eig_n)
