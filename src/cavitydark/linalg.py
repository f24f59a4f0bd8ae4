"""The package's eigensolver, LAPACK's (via numpy) behind a Hermiticity check,
and its one exact rescale by a power of two.

It returns ascending eigenvalues and orthonormal eigenvectors, whose signs
or phases -- and, in a degenerate cluster, whose basis -- are whatever
LAPACK picks.  No caller depends on them: every artifact reads dark spans
through ``DarkStateReport.canonical()`` or through singular values.  The
rank rule that decides dark counts lives in ``darkstates``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eigh", "pow2_scale"]

#: max allowed elementwise asymmetry |A - A^dag|, relative to max|A|
HERMITICITY_TOL = 1e-12


def eigh(A):
    """``(w, Q)`` with A = Q diag(w) Q^dag, eigenvalues w ascending.

    The input must be square and Hermitian to within ``HERMITICITY_TOL``
    times its largest entry magnitude (checked elementwise, so the check
    does not depend on the overall scale); otherwise a ValueError reports
    the worst offender.  Q has A's kind: real for a real symmetric A.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    asym = np.abs(A - A.conj().T)
    if A.size and asym.max() > HERMITICITY_TOL * np.abs(A).max():
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise ValueError(
            "matrix is not Hermitian: |A[{0},{1}] - conj(A[{1},{0}])| = {2:.3e} "
            "exceeds {3:.1e} x max|A|".format(i, j, asym[i, j], HERMITICITY_TOL)
        )
    return np.linalg.eigh(A)


def pow2_scale(x):
    """``(x / 2^e, e)``, e from ``np.frexp(max|x|)``, so the result's largest
    magnitude lies in [0.5, 1); e = 0 for an all-zero or empty x.

    Dividing by a power of two is exact wherever the result is normal, so a
    decision made on the result is the same at every scale, and nothing
    derived from it over- or underflows.  x is multiplied by 2^-e in two
    halves: ``np.ldexp`` takes no complex array, and 2^-e alone overflows
    when max|x| is subnormal.
    """
    x = np.asarray(x)
    e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
    half = -e // 2
    return x * np.ldexp(1.0, half) * np.ldexp(1.0, -e - half), e
