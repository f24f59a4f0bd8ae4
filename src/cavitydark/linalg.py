"""Small dense linear-algebra helpers shared across the package.

Everything here operates on plain numpy arrays.  The eigensolver is LAPACK
(via numpy) behind a Hermiticity check on its input; it returns ascending
eigenvalues and orthonormal eigenvectors, whose signs or phases -- and, in a
degenerate cluster, whose basis -- are whatever LAPACK picks.  No caller
depends on them: every artifact reads dark spans through
``DarkStateReport.canonical()`` or through singular values.  Rank
decisions are made through one SVD-based routine so every module in the
package applies the same tolerance rule; the null-space basis is a second
step, taken only by callers that need the vectors.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eigh",
    "numerical_rank",
    "null_basis",
]

#: max allowed elementwise asymmetry |A - A^dag| for eigh input
HERMITICITY_TOL = 1e-12


def eigh(A):
    """``(w, Q)`` with A = Q diag(w) Q^dag, eigenvalues w ascending.

    The input must be square and Hermitian to within ``HERMITICITY_TOL``
    (checked elementwise); otherwise a ValueError reports the worst offender.
    Q has A's kind: real for a real symmetric A.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    asym = np.abs(A - A.conj().T)
    if A.size and asym.max() > HERMITICITY_TOL:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise ValueError(
            "matrix is not Hermitian: |A[{0},{1}] - conj(A[{1},{0}])| = {2:.3e} "
            "exceeds {3:.1e}".format(i, j, asym[i, j], HERMITICITY_TOL)
        )
    return np.linalg.eigh(A)


def numerical_rank(B, rel_tol=1e-10, scale=None):
    """Numerical rank and singular values (descending) of B.

    The rank counts the singular values above ``rel_tol * sigma_max``; one
    SVD without singular vectors gives them.  An empty matrix has rank 0.

    ``scale`` replaces sigma_max as the reference magnitude.  Pass it when B
    is a submatrix of a larger problem: a block whose entries are pure
    rounding residue of the enclosing matrix should count as zero even though
    its own largest singular value is formally nonzero.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    B = np.atleast_2d(np.asarray(B))
    if B.size == 0:
        return 0, np.zeros(0)
    s = np.linalg.svd(B, compute_uv=False)
    ref = scale if scale is not None else s[0]
    return int(np.sum(s > rel_tol * ref)), s


def null_basis(B, rank):
    """Orthonormal null-space basis (columns) of B, whose numerical rank is
    ``rank``: the trailing right-singular vectors, computed only when the
    null space is not empty.  A matrix without rows or columns has the
    identity as its basis."""
    B = np.atleast_2d(np.asarray(B))
    n_rows, n_cols = B.shape
    dtype = B.dtype if B.dtype.kind == "c" else float
    if n_rows == 0 or n_cols == 0:
        return np.eye(n_cols, dtype=dtype)
    if rank == n_cols:
        return np.zeros((n_cols, 0), dtype=dtype)
    return np.linalg.svd(B)[2][rank:].conj().T

