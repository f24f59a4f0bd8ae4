"""Dark-state detection on an excitation subspace.

A dark state is an energy eigenstate with zero amplitude on every
photon-carrying basis state: it neither emits into nor absorbs from the
cavity, so photon loss cannot touch it.  Two independent routes find them:

* :func:`detect` works on the arrowhead form.  Dressed lower states are
  grouped into degenerate clusters; within a cluster of size d whose coupling
  submatrix has rank r, exactly d - r independent combinations decouple from
  the cavity.  A single dressed state with a vanishing coupling column is the
  d = 1, r = 0 case of the same rule.

* :func:`brute_force_dark_states` diagonalizes the full subspace Hamiltonian
  and keeps eigenvector combinations whose photon-carrying amplitudes vanish,
  re-mixing degenerate eigenspaces first so darkness is a property of the
  eigenspace, not of an arbitrary eigenvector choice.

The two must agree; the command-line ``analyze`` runs both and compares.

Inside a degenerate cluster only the dark span is defined, not the vectors
the eigensolver happens to return.  :meth:`DarkStateReport.canonical` gives
each cluster's span one basis that depends on the span alone (to rounding;
see :func:`echelon_basis`), and every vector that reaches an artifact is
taken from it.  The same holds for the
detector's :attr:`~DarkStateReport.rank_margin`, built from singular values.
The Hamiltonian is real symmetric, so all of this runs in real arithmetic.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .arrowhead import to_arrowhead
from .hamiltonian import build_hamiltonian
from .linalg import eigh, rank_and_nullspace

__all__ = [
    "DegenerateCluster",
    "DarkStateReport",
    "detect",
    "brute_force_dark_states",
    "echelon_basis",
    "orthogonalize",
    "subspace_angle",
    "reports_agree",
    "analyze_subspace",
    "AnalysisResult",
]


@dataclass(frozen=True)
class DegenerateCluster:
    """One degenerate group of dressed lower states (or of eigenvalues, for
    the brute-force route) and the rank bookkeeping that decides darkness."""

    eigenvalue: float
    members: tuple
    rank: int
    dark_dim: int

    @property
    def size(self):
        return len(self.members)

    def to_dict(self):
        return {
            "eigenvalue": self.eigenvalue,
            "members": list(self.members),
            "size": self.size,
            "rank": self.rank,
            "dark_dim": self.dark_dim,
        }


@dataclass(frozen=True)
class DarkStateReport:
    """Dark states of one subspace: per-cluster ranks plus the vectors.

    ``vectors`` holds one dark state per column, expressed in the bare
    subspace basis and ordered by descending eigenvalue; their dtype follows
    the Hamiltonian's.  Within a cluster they are the basis, signs included,
    that the eigensolver and SVD led to, until :meth:`canonical` fixes one.
    ``method`` records which route produced the report.

    ``rank_margin`` (detector only) is the smallest singular value kept over
    all cluster coupling blocks, divided by the rank threshold
    ``rank_tol * ||couplings||_2``: how far the closest "bright" decision sat
    above the threshold.  None when no singular value was kept.
    """

    basis: object
    method: str
    clusters: tuple
    vectors: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    rank_margin: float = None

    @property
    def total_dark(self):
        return self.vectors.shape[1]

    def canonical(self):
        """The same report with each cluster's dark vectors replaced by the
        orthonormalised reduced column-echelon basis of their span (see
        :func:`echelon_basis`), so they no longer depend on the eigenvectors
        the eigensolver returned inside the cluster."""
        vectors = self.vectors.copy()
        col = 0
        for cluster in reversed(self.clusters):  # vectors run high to low
            block = slice(col, col + cluster.dark_dim)
            if cluster.dark_dim:
                vectors[:, block] = echelon_basis(self.vectors[:, block])
            col = block.stop
        return replace(self, vectors=vectors)

    def projector(self):
        """Orthogonal projector onto the dark subspace."""
        return self.vectors @ self.vectors.conj().T

    def to_dict(self):
        labels = self.basis.labels()
        dark_states = []
        for k in range(self.total_dark):
            amps = {
                lab: [float(a.real), float(a.imag)]
                for lab, a in zip(labels, self.vectors[:, k])
            }
            dark_states.append(
                {"eigenvalue": float(self.eigenvalues[k]), "amplitudes": amps}
            )
        return {
            "n_atoms": self.basis.n_atoms,
            "excitation": self.basis.excitation,
            "method": self.method,
            "total_dark": self.total_dark,
            "clusters": [c.to_dict() for c in self.clusters],
            "dark_states": dark_states,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _cluster_indices(values, tol):
    """Group sorted values into runs separated by gaps larger than tol.

    Returns one ``range`` of indices per run, in order.
    """
    cuts = (np.flatnonzero(np.diff(values) > tol) + 1).tolist()
    bounds = [0, *cuts, len(values)] if len(values) else []
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _singleton_eigenvalues(w):
    """Each eigenvalue as the mean of a one-member cluster, as Python floats.

    np.mean sums from 0.0, so the mean of one value x is 0.0 + x: x itself,
    except that -0.0 becomes 0.0.
    """
    return (w + 0.0).tolist()


def default_cluster_tol(values):
    """Degeneracy tolerance scaled to the spectral spread."""
    if values.size == 0:
        return 1e-8
    spread = float(values[-1] - values[0])
    return 1e-8 * max(1.0, spread)


def detect(arrow, cluster_tol=None, rank_tol=1e-10):
    """Dark states from the arrowhead form via cluster ranks.

    For every degenerate cluster of dressed lower states the coupling
    submatrix (columns of ``arrow.couplings`` belonging to the cluster) is
    rank-tested; its null-space combinations are mapped back to the bare
    basis and padded with zero photon-carrying amplitudes.  Only clusters
    with dark states pay for singular vectors.

    The rank threshold is referenced to the norm of the *whole* coupling
    matrix, not of each submatrix: a balanced coupling that cancels only to
    rounding error must classify the same as an exact zero.  The smallest
    singular value kept, relative to that threshold, is the report's
    ``rank_margin``.
    """
    w = arrow.eigenvalues
    C = arrow.couplings
    nu = arrow.n_upper
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(w)
    coupling_scale = float(np.linalg.norm(C, ord=2)) if C.size else 0.0

    values = _singleton_eigenvalues(w)

    clusters = []
    blocks = []
    val_list = []
    smallest_kept = None
    # walk clusters in descending-eigenvalue order for deterministic output
    for members in reversed(_cluster_indices(w, cluster_tol)):
        lo, hi = members.start, members.stop
        rank, null_basis, s = rank_and_nullspace(
            C[:, lo:hi], rank_tol, scale=coupling_scale
        )
        if rank and (smallest_kept is None or s[rank - 1] < smallest_kept):
            smallest_kept = s[rank - 1]
        dark_dim = hi - lo - rank
        eigenvalue = values[lo] if hi - lo == 1 else float(np.mean(w[lo:hi]))
        clusters.append(
            DegenerateCluster(
                eigenvalue=eigenvalue, members=tuple(members), rank=rank,
                dark_dim=dark_dim,
            )
        )
        if dark_dim:
            # bare lower coordinates of the cluster's null-space combinations
            blocks.append(arrow.lower_transform[lo:hi].conj().T @ null_basis)
            val_list += [eigenvalue] * dark_dim

    dtype = np.result_type(arrow.lower_transform, C)
    vectors = np.zeros((nu + arrow.n_lower, len(val_list)), dtype=dtype)
    if blocks:
        vectors[nu:] = np.hstack(blocks)
    rank_margin = None
    if smallest_kept is not None:
        rank_margin = float(smallest_kept / (rank_tol * coupling_scale))
    return DarkStateReport(
        basis=arrow.basis,
        method="arrowhead-rank",
        clusters=tuple(reversed(clusters)),
        vectors=vectors,
        eigenvalues=np.array(val_list, dtype=float),
        rank_margin=rank_margin,
    )


def brute_force_dark_states(ham, amp_tol=1e-8, cluster_tol=None):
    """Dark states straight from the full subspace eigenproblem.

    Degenerate eigenspaces are re-mixed (SVD of their photon-carrying
    amplitude block) to expose the sub-span with vanishing upper amplitudes;
    combinations whose singular value is at most ``amp_tol`` count as dark.
    A single eigenvector whose upper-amplitude norm exceeds ``2 * amp_tol``
    is bright without an SVD; the margin covers the rounding by which the
    norm and the singular value can differ.
    Shares only the elementary eigensolver with :func:`detect` -- no
    arrowhead structure, no coupling-rank logic.
    """
    dec = eigh(ham.matrix)
    w, Q = dec.eigenvalues, dec.eigenvectors
    nu = ham.basis.n_upper
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(w)

    bright = np.linalg.norm(Q[:nu], axis=0) > 2 * amp_tol
    values = _singleton_eigenvalues(w)

    clusters = []
    blocks = []
    val_list = []
    for members in reversed(_cluster_indices(w, cluster_tol)):
        lo, hi = members.start, members.stop
        d = hi - lo
        if d == 1 and bright[lo]:
            # the bulk of a spectrum: a bright singleton, no SVD, no mean
            clusters.append(DegenerateCluster(values[lo], (lo,), 1, 0))
            continue
        if nu == 0:
            rank, null_basis = 0, np.eye(d, dtype=Q.dtype)
        else:
            _, s, vh = np.linalg.svd(Q[:nu, lo:hi])
            s = np.concatenate([s, np.zeros(d - s.size)])
            rank = int(np.sum(s > amp_tol))
            null_basis = vh[rank:].conj().T
        dark_dim = d - rank
        eigenvalue = values[lo] if d == 1 else float(np.mean(w[lo:hi]))
        clusters.append(
            DegenerateCluster(
                eigenvalue=eigenvalue, members=tuple(members), rank=rank,
                dark_dim=dark_dim,
            )
        )
        if dark_dim:
            blocks.append(Q[:, lo:hi] @ null_basis)
            val_list += [eigenvalue] * dark_dim

    vectors = np.hstack(blocks) if blocks else np.zeros((ham.basis.dim, 0), Q.dtype)
    return DarkStateReport(
        basis=ham.basis,
        method="eigenspace-amplitude",
        clusters=tuple(reversed(clusters)),
        vectors=vectors,
        eigenvalues=np.array(val_list, dtype=float),
    )


#: a pivot row must keep more than this norm against the earlier pivot rows;
#: far above the ~1e-15 residue of a dependent row of an orthonormal block
PIVOT_TOL = 1e-8


def echelon_basis(D):
    """Orthonormalised reduced column-echelon basis of the span of D.

    D (n x k) has orthonormal columns.  Pivot rows are chosen in index order,
    each accepted when its residual against the earlier pivot rows exceeds
    ``PIVOT_TOL``.  E = D P^-1, with P = D[piv], is the one basis of the span
    with E[piv] = I; the Q factor of E = QR with a positive R diagonal is
    returned.  It is computed without inverting P: Q = D (R P)^-1 with R P
    unitary, so P = T U^dag with T = R^-1 upper triangular with a positive
    diagonal (an RQ decomposition of P) and Q = D U.  That keeps the result
    accurate to rounding even when a pivot row is nearly dependent on the
    earlier ones.

    D and D U for any unitary U give the same pivots (they are set by the
    row Gram matrix D D^dag) and the same Q, so the result depends on the
    span alone, to rounding -- as long as no row's residual lies within
    rounding of ``PIVOT_TOL``, where the pivot choice itself can flip.  Rows
    of D that are exactly zero stay exactly zero.
    """
    rows = np.flatnonzero(np.any(D != 0, axis=1))
    sub = D[rows]
    k = D.shape[1]
    pivots = []
    found = np.zeros((0, k), dtype=D.dtype)  # orthonormal rows: pivot-row span
    start = 0
    while len(pivots) < k:
        rest = sub[start:]
        resid = rest - (rest @ found.conj().T) @ found
        norms = np.linalg.norm(resid, axis=1)
        hit = np.flatnonzero(norms > PIVOT_TOL)
        if hit.size == 0:
            raise ValueError("echelon_basis needs columns of full rank")
        i = hit[0]
        pivots.append(start + i)
        found = np.vstack([found, resid[i] / norms[i]])
        start += i + 1
    # RQ of P from the QR of its row-reversed adjoint: (J P)^dag = q r gives
    # P = (J r^dag J)(J q^dag), and J r^dag J is upper triangular
    q, r = np.linalg.qr(sub[pivots][::-1].conj().T)
    diag = np.diag(r)
    U = (q * (diag / np.abs(diag)))[:, ::-1]
    out = np.zeros_like(D)
    out[rows] = sub @ U
    return out


def orthogonalize(vectors, tol=1e-10):
    """Gram-Schmidt orthonormalization keeping the first vector's direction.

    ``vectors`` is a sequence of 1-D arrays or a 2-D array with one vector
    per column.  Linearly dependent inputs are dropped with a warning; the
    returned columns are orthonormal and span the same space as the input.
    """
    arr = np.asarray(vectors, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    elif not isinstance(vectors, np.ndarray):
        arr = np.stack([np.asarray(v, dtype=complex) for v in vectors], axis=1)
    out = []
    dropped = 0
    for k in range(arr.shape[1]):
        v = arr[:, k].copy()
        scale = np.linalg.norm(v)
        for _ in range(2):  # two MGS passes keep orthogonality near eps
            for u in out:
                v -= (u.conj() @ v) * u
        nrm = np.linalg.norm(v)
        if nrm <= tol * max(1.0, scale):
            dropped += 1
            continue
        out.append(v / nrm)
    if dropped:
        warnings.warn(
            f"orthogonalize dropped {dropped} linearly dependent vector(s)",
            stacklevel=2,
        )
    if not out:
        return np.zeros((arr.shape[0], 0), dtype=complex)
    return np.stack(out, axis=1)


def subspace_angle(A, B):
    """Largest principal angle (radians) between two equal-dimension spans.

    Columns of A and B (n x k) must each be orthonormal.  For such spans
    ||B - A (A^dag B)||_2 = ||A A^dag - B B^dag||_2 = sin(theta_max)
    (Golub & Van Loan, *Matrix Computations*, sec. 2.5), so the angle comes
    from the SVD of an n x k residual instead of an n x n projector
    difference.  Like the projector form it stays accurate for tiny angles,
    down to the rounding floor of the products.
    """
    A = np.atleast_2d(np.asarray(A))
    B = np.atleast_2d(np.asarray(B))
    if A.shape != B.shape:
        raise ValueError(f"subspace dimensions differ: {A.shape} vs {B.shape}")
    if A.shape[1] == 0:
        return 0.0
    gap = np.linalg.norm(B - A @ (A.conj().T @ B), ord=2)
    return float(np.arcsin(min(1.0, gap)))


def reports_agree(a, b, angle_tol=1e-7):
    """Same dark count and same dark subspace (principal angle <= angle_tol)."""
    if a.total_dark != b.total_dark:
        return False, float("nan")
    angle = subspace_angle(a.vectors, b.vectors)
    return angle <= angle_tol, angle


@dataclass(frozen=True)
class AnalysisResult:
    """Both detection routes for one subspace, plus their agreement verdict."""

    hamiltonian: object
    arrowhead: object
    detected: DarkStateReport
    brute_force: DarkStateReport
    agrees: bool
    angle: float


def analyze_subspace(params, excitation=None, cluster_tol=None, amp_tol=1e-8,
                     angle_tol=1e-7, basis=None):
    """Run both dark-state routes on one excitation subspace and compare.

    The subspace is given, as for :func:`build_hamiltonian`, either by its
    excitation number or by an already enumerated ``basis``.  Both reports
    come back in their canonical basis (:meth:`DarkStateReport.canonical`).
    """
    ham = build_hamiltonian(params, excitation, basis=basis)
    arrow = to_arrowhead(ham)
    detected = detect(arrow, cluster_tol=cluster_tol).canonical()
    brute = brute_force_dark_states(
        ham, amp_tol=amp_tol, cluster_tol=cluster_tol
    ).canonical()
    agrees, angle = reports_agree(detected, brute, angle_tol=angle_tol)
    return AnalysisResult(
        hamiltonian=ham,
        arrowhead=arrow,
        detected=detected,
        brute_force=brute,
        agrees=agrees,
        angle=angle,
    )
