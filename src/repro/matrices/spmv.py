"""The one sparse mat-vec every solve runs through (DESIGN.md §5j).

``spmv(m, x)`` — or ``csr_product(m)`` bound once for a loop — computes
``m @ x`` by calling scipy's raw CSR kernel directly, skipping the
spmatrix ``__matmul__`` dispatch (shape checks, scalar tests, upcast
lookup) that costs several times the kernel on the small products of
the recovery constructions.

It is bit-identical to ``m @ x`` by construction: for a float64 CSR
matrix and a 1-D float64 ndarray of matching length, scipy's
``_matmul_vector`` allocates ``np.zeros(nrows)`` and calls
``csr_matvec`` on it — exactly what this module does, into a fresh or a
caller-provided buffer.  Every other input (another format or dtype, a
2-D or ndarray-subclass operand, or a scipy without ``_sparsetools``)
falls back to ``m @ x`` itself.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

try:  # scipy's raw CSR mat-vec kernel; bypasses the spmatrix dispatch
    from scipy.sparse import _sparsetools

    _csr_matvec = _sparsetools.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - older scipy
    _csr_matvec = None

_F64 = np.dtype(np.float64)


def csr_product(m) -> Callable[..., np.ndarray]:
    """``m @ x`` bound to ``m``, as ``apply(x, out=None)``.

    The matrix is checked once here, so a loop that multiplies by the
    same matrix pays per call only for the vector check, the zeroing
    of ``out`` and the kernel.  ``out``, when given, must be a float64
    vector of length ``m.shape[0]``; it is overwritten, never
    accumulated into, and returned.
    """
    kernel = _csr_matvec
    if kernel is None or m.format != "csr" or m.data.dtype is not _F64:
        return partial(_dispatch, m)
    nrow, ncol = m.shape
    indptr, indices, data = m.indptr, m.indices, m.data
    shape = (ncol,)

    def apply(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # Identity tests on the dtype are exact: a float64 vector that
        # is not the native singleton only takes the (equal) fallback.
        if x.__class__ is not np.ndarray or x.dtype is not _F64 or x.shape != shape:
            return _dispatch(m, x, out)
        if out is None:
            out = np.zeros(nrow)
        else:
            out.fill(0.0)
        kernel(nrow, ncol, indptr, indices, data, x, out)
        return out

    return apply


def spmv(m, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One product ``m @ x`` (see :func:`csr_product`)."""
    return csr_product(m)(x, out)


def _dispatch(m, x, out=None) -> np.ndarray:
    """The fallback: scipy's own ``m @ x``."""
    if out is None:
        return m @ x
    out[...] = m @ x
    return out
