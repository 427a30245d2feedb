"""The numeric kernels: the CSR transposed multiply and the walk stepper.

The multiply has one NumPy implementation. The walk stepper is compiled
when the optional Cython extension was built. Otherwise it is the Python
stepper in ``_pykernels``, which walks per-vertex tables built once per
walk. Both give bit-identical results, and ``BACKEND`` names the one in
use.
"""

import numpy as np

try:
    from ._ckernels import walk_steps

    BACKEND = "cython"
except ImportError:
    from ._pykernels import walk_steps

    BACKEND = "python"


def csr_left_multiply(indptr, indices, data, x, out):
    """Write y = xᵀA into ``out`` for a CSR matrix A, i.e. a row-major scatter."""
    # bincount adds its weights in input order, so each column sums its
    # products in the same row-major order as a plain loop would.
    out[:] = np.bincount(indices, weights=data * np.repeat(x, np.diff(indptr)),
                         minlength=out.size)


__all__ = ["BACKEND", "csr_left_multiply", "walk_steps"]
