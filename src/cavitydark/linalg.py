"""Small dense linear-algebra helpers shared across the package.

Everything here operates on plain numpy arrays.  The eigensolver is a thin
wrapper around LAPACK (via numpy) that enforces Hermiticity on input, fixes a
deterministic eigenvector phase convention, and guarantees ascending
eigenvalue order.  Rank / null-space decisions are made through one SVD-based
routine so every module in the package applies the same tolerance rule.
The one RK4 of the package is in ``kernels``; the plain-loop RK4 step it is
checked against lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigDecomposition",
    "eigh",
    "fix_phases",
    "rank_and_nullspace",
]

#: max allowed elementwise asymmetry |A - A^dag| for eigh input
HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition A = Q diag(w) Q^dag of a Hermitian matrix.

    eigenvalues : (n,) real, ascending
    eigenvectors : (n, n), column k is the eigenvector for eigenvalues[k]
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def fix_phases(vecs, tol=1e-12):
    """Rotate each column so its first non-negligible entry is positive real.

    Makes the eigendecomposition deterministic up to degeneracies, which keeps
    downstream artifacts (reports, CSV dumps) byte-for-byte reproducible.
    """
    vecs = vecs.copy()
    big = np.abs(vecs) > tol
    cols = np.flatnonzero(big.any(axis=0))
    if cols.size == 0:
        return vecs
    lead = vecs[big[:, cols].argmax(axis=0), cols]
    if np.iscomplexobj(vecs):
        vecs[:, cols] *= np.abs(lead) / lead
    else:
        neg = cols[lead < 0]
        vecs[:, neg] = -vecs[:, neg]
    return vecs


def eigh(A):
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    The input must be square and Hermitian to within ``HERMITICITY_TOL``
    (checked elementwise); otherwise a ValueError reports the worst offender.
    Eigenvector phases follow the first-nonzero-positive convention so
    repeated runs produce identical output.
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
    w, v = np.linalg.eigh(A)
    # LAPACK already returns ascending order and orthonormal vectors, even in
    # degenerate clusters; we only normalize the arbitrary phase freedom.
    v = fix_phases(v)
    if not np.iscomplexobj(np.asarray(A)):
        v = np.real(v)
    return EigDecomposition(eigenvalues=w, eigenvectors=v)


def rank_and_nullspace(B, rel_tol=1e-10, scale=None):
    """Numerical rank, orthonormal null-space basis and singular values.

    Singular values sigma_i (descending) are compared against
    ``rel_tol * sigma_max``; the null basis is assembled from the trailing
    right-singular vectors (columns of the returned array).  The singular
    values are computed first, and the right-singular vectors only when the
    null space is not empty.  An all-zero or empty matrix has rank 0 and a
    full-dimension null basis.

    ``scale`` replaces sigma_max as the reference magnitude.  Pass it when B
    is a submatrix of a larger problem: a block whose entries are pure
    rounding residue of the enclosing matrix should count as zero even though
    its own largest singular value is formally nonzero.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    B = np.atleast_2d(np.asarray(B))
    n_rows, n_cols = B.shape
    dtype = B.dtype if B.dtype.kind == "c" else float
    if n_rows == 0 or n_cols == 0:
        return 0, np.eye(n_cols, dtype=dtype), np.zeros(0)
    s = np.linalg.svd(B, compute_uv=False)
    ref = scale if scale is not None else s[0]
    rank = int(np.sum(s > rel_tol * ref))
    if rank == n_cols:
        return rank, np.zeros((n_cols, 0), dtype=dtype), s
    vh = np.linalg.svd(B)[2]
    return rank, vh[rank:].conj().T, s
