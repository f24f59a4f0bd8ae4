"""Dark-state detection on an excitation subspace.

A dark state is an energy eigenstate with zero amplitude on every
photon-carrying basis state: it neither emits into nor absorbs from the
cavity, so photon loss cannot touch it.  Two independent routes find them:

* :func:`detect` works on the arrowhead form in two passes.  The rank pass,
  :func:`cluster_ranks`, groups the dressed lower states into degenerate
  clusters; within a cluster of size d whose coupling submatrix has rank r,
  exactly d - r independent combinations decouple from the cavity.  A single
  dressed state with a vanishing coupling column is the d = 1, r = 0 case of
  the same rule.  It reads singular values only, which is all a dark count
  and the rank margin need.  The null-space pass then computes the dark
  vectors themselves.

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

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .arrowhead import to_arrowhead
from .hamiltonian import ScaleError, build_hamiltonian
from .linalg import eigh, null_basis, numerical_rank

__all__ = [
    "DegenerateCluster",
    "DarkStateReport",
    "cluster_ranks",
    "detect",
    "brute_force_dark_states",
    "echelon_basis",
    "orthogonalize",
    "subspace_angle",
    "reports_agree",
    "analyze_subspace",
    "AnalysisResult",
]

#: relative rank threshold of :func:`detect`, against ``||couplings||_2``
RANK_TOL = 1e-10
#: largest photon-carrying amplitude (singular value) a dark combination of
#: :func:`brute_force_dark_states` may keep
AMP_TOL = 1e-8
#: residual, against max(1, |v|), below which :func:`orthogonalize` drops v
ORTHO_TOL = 1e-10
#: largest principal angle (radians) at which :func:`reports_agree` agrees
ANGLE_TOL = 1e-7


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
    ``RANK_TOL * ||couplings||_2``: how far the closest "bright" decision sat
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
    spread = float(values[-1]) - float(values[0])
    if not np.isfinite(spread):
        raise ScaleError(
            f"the spectral spread {values[0]!r} .. {values[-1]!r} is not finite: "
            "the parameters are too large for float64"
        )
    return 1e-8 * max(1.0, spread)


def cluster_ranks(arrow):
    """The rank pass of :func:`detect`: its clusters and ``rank_margin``.

    Returns ``(clusters, rank_margin)``, the ``clusters`` and ``rank_margin``
    of ``detect(arrow)``, from singular values alone: each cluster's dark
    dimension is its size minus the rank of its coupling submatrix, so the
    dark count is ``sum(c.dark_dim for c in clusters)``.  No singular vector
    is computed.  Callers that need no dark vectors, such as a scan's grid
    points, stop here.
    """
    w = arrow.eigenvalues
    C = arrow.couplings
    groups = _cluster_indices(w, default_cluster_tol(w))
    coupling_scale = float(np.linalg.norm(C, ord=2)) if C.size else 0.0

    values = _singleton_eigenvalues(w)

    clusters = []
    smallest_kept = None
    for members in groups:
        lo, hi = members.start, members.stop
        rank, s = numerical_rank(C[:, lo:hi], RANK_TOL, scale=coupling_scale)
        if rank and (smallest_kept is None or s[rank - 1] < smallest_kept):
            smallest_kept = s[rank - 1]
        eigenvalue = values[lo] if hi - lo == 1 else float(np.mean(w[lo:hi]))
        clusters.append(
            DegenerateCluster(
                eigenvalue=eigenvalue, members=tuple(members), rank=rank,
                dark_dim=hi - lo - rank,
            )
        )
    rank_margin = None
    if smallest_kept is not None:
        rank_margin = float(smallest_kept / (RANK_TOL * coupling_scale))
    return tuple(clusters), rank_margin


def detect(arrow):
    """Dark states from the arrowhead form via cluster ranks.

    Two passes.  The rank pass, :func:`cluster_ranks`, cuts the dressed lower
    states into degenerate clusters (at :func:`default_cluster_tol`) and
    rank-tests each cluster's coupling submatrix (its columns of
    ``arrow.couplings``).  The null-space pass then takes the null-space
    combinations of every cluster with dark states, maps them back to the
    bare basis and pads them with zero photon-carrying amplitudes; only those
    clusters pay for singular vectors.

    The rank threshold ``RANK_TOL`` is referenced to the norm of the *whole*
    coupling matrix, not of each submatrix: a balanced coupling that cancels
    only to rounding error must classify the same as an exact zero.  The
    smallest singular value kept, relative to that threshold, is the report's
    ``rank_margin``.
    """
    clusters, rank_margin = cluster_ranks(arrow)
    C = arrow.couplings
    nu = arrow.n_upper
    blocks = []
    val_list = []
    # vectors run in descending-eigenvalue order, for deterministic output
    for cluster in reversed(clusters):
        if cluster.dark_dim:
            lo, hi = cluster.members[0], cluster.members[-1] + 1
            null = null_basis(C[:, lo:hi], cluster.rank)
            # bare lower coordinates of the cluster's null-space combinations
            blocks.append(arrow.lower_transform[lo:hi].conj().T @ null)
            val_list += [cluster.eigenvalue] * cluster.dark_dim

    dtype = np.result_type(arrow.lower_transform, C)
    vectors = np.zeros((nu + arrow.n_lower, len(val_list)), dtype=dtype)
    if blocks:
        vectors[nu:] = np.hstack(blocks)
    return DarkStateReport(
        basis=arrow.basis,
        method="arrowhead-rank",
        clusters=clusters,
        vectors=vectors,
        eigenvalues=np.array(val_list, dtype=float),
        rank_margin=rank_margin,
    )


def brute_force_dark_states(ham):
    """Dark states straight from the full subspace eigenproblem.

    Degenerate eigenspaces are re-mixed (SVD of their photon-carrying
    amplitude block) to expose the sub-span with vanishing upper amplitudes;
    combinations whose singular value is at most ``AMP_TOL`` count as dark.
    Clusters are cut at :func:`default_cluster_tol`, as in :func:`detect`.
    A single eigenvector whose upper-amplitude norm exceeds ``2 * AMP_TOL``
    is bright without an SVD; the margin covers the rounding by which the
    norm and the singular value can differ.
    Shares only the elementary eigensolver with :func:`detect` -- no
    arrowhead structure, no coupling-rank logic.
    """
    w, Q = eigh(ham.matrix)
    nu = ham.basis.n_upper

    bright = np.linalg.norm(Q[:nu], axis=0) > 2 * AMP_TOL
    values = _singleton_eigenvalues(w)

    clusters = []
    blocks = []
    val_list = []
    for members in reversed(_cluster_indices(w, default_cluster_tol(w))):
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
            rank = int(np.sum(s > AMP_TOL))
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


def orthogonalize(vectors):
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
        if nrm <= ORTHO_TOL * max(1.0, scale):
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


def reports_agree(a, b):
    """Same dark count and same dark subspace (principal angle <= ANGLE_TOL)."""
    if a.total_dark != b.total_dark:
        return False, float("nan")
    angle = subspace_angle(a.vectors, b.vectors)
    return angle <= ANGLE_TOL, angle


@dataclass(frozen=True)
class AnalysisResult:
    """Both detection routes for one subspace, plus their agreement verdict."""

    detected: DarkStateReport
    brute_force: DarkStateReport
    agrees: bool
    angle: float


def analyze_subspace(params, basis):
    """Run both dark-state routes on the excitation subspace ``basis`` and
    compare.  Both reports come back in their canonical basis
    (:meth:`DarkStateReport.canonical`).
    """
    ham = build_hamiltonian(params, basis)
    detected = detect(to_arrowhead(ham)).canonical()
    brute = brute_force_dark_states(ham).canonical()
    agrees, angle = reports_agree(detected, brute)
    return AnalysisResult(
        detected=detected,
        brute_force=brute,
        agrees=agrees,
        angle=angle,
    )
