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
  vectors themselves.  Both passes take their SVDs here, so the whole rank
  rule (threshold, ranks, null spaces) lives in this module; ``linalg``
  supplies only the checked eigensolver.

* :func:`brute_force_dark_states` diagonalizes the full subspace Hamiltonian
  and keeps eigenvector combinations that hold no photon and do not drive
  the cavity, re-mixing degenerate eigenspaces first so darkness is a
  property of the eigenspace, not of an arbitrary eigenvector choice.

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

from dataclasses import dataclass, field, replace

import numpy as np

from .arrowhead import to_arrowhead
from .hamiltonian import ScaleError, build_hamiltonian
from .linalg import eigh

__all__ = [
    "DegenerateCluster",
    "DarkStateReport",
    "cluster_ranks",
    "detect",
    "brute_force_dark_states",
    "echelon_basis",
    "subspace_angle",
    "reports_agree",
    "analyze_subspace",
    "AnalysisResult",
]

#: relative rank threshold of :func:`detect`, against ``||couplings||_2``
RANK_TOL = 1e-10
#: largest singular value of photon-carrying amplitudes stacked on the scaled
#: cavity drive that a dark combination of :func:`brute_force_dark_states` may keep
AMP_TOL = 1e-8
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


def default_cluster_tol(values):
    """Degeneracy tolerance of the ascending ``values``: 1e-8 of their
    spread or of their largest magnitude, whichever is larger, so that it
    scales with the parameters."""
    if values.size == 0:
        return 1e-8
    lo, hi = float(values[0]), float(values[-1])
    spread = hi - lo
    if not np.isfinite(spread):
        raise ScaleError(
            f"the spectral spread {values[0]!r} .. {values[-1]!r} is not finite: "
            "the parameters are too large for float64"
        )
    return 1e-8 * max(spread, abs(lo), abs(hi))


def _clusters(w):
    """``(lo, hi, eigenvalue)`` for each degenerate cluster ``w[lo:hi]`` of
    the ascending ``w``, cut at :func:`default_cluster_tol`; ``eigenvalue``
    is the cluster's mean as a Python float."""
    # np.mean sums from 0.0, so the mean of one value x is 0.0 + x: x itself,
    # except that -0.0 becomes 0.0
    values = (w + 0.0).tolist()
    return [
        (r.start, r.stop,
         values[r.start] if len(r) == 1 else float(np.mean(w[r.start:r.stop])))
        for r in _cluster_indices(w, default_cluster_tol(w))
    ]


def cluster_ranks(arrow):
    """The rank pass of :func:`detect`: its clusters and ``rank_margin``.

    Returns ``(clusters, rank_margin)``, the ``clusters`` and ``rank_margin``
    of ``detect(arrow)``, from singular values alone: each cluster's dark
    dimension is its size minus the rank of its coupling submatrix, so the
    dark count is ``sum(c.dark_dim for c in clusters)``.  No singular vector
    is computed.  Callers that need no dark vectors, such as a scan's grid
    points, stop here.

    A submatrix's rank counts its singular values above ``RANK_TOL`` times
    the norm of the *whole* coupling matrix, not of the submatrix: a
    balanced coupling that cancels only to rounding error must classify the
    same as an exact zero.  The smallest singular value kept, relative to
    that threshold, is ``rank_margin``.
    """
    C = arrow.couplings
    threshold = RANK_TOL * float(np.linalg.norm(C, ord=2))
    clusters = []
    smallest_kept = None
    for lo, hi, eigenvalue in _clusters(arrow.eigenvalues):
        s = np.linalg.svd(C[:, lo:hi], compute_uv=False)
        rank = int(np.sum(s > threshold))
        if rank and (smallest_kept is None or s[rank - 1] < smallest_kept):
            smallest_kept = s[rank - 1]
        clusters.append(
            DegenerateCluster(
                eigenvalue=eigenvalue, members=tuple(range(lo, hi)), rank=rank,
                dark_dim=hi - lo - rank,
            )
        )
    rank_margin = None
    if smallest_kept is not None:
        rank_margin = float(smallest_kept / threshold)
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
            # trailing right-singular vectors: the null space of the block
            null = np.linalg.svd(C[:, lo:hi])[2][cluster.rank:].conj().T
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

    Degenerate eigenspaces are re-mixed by an SVD to expose the sub-span
    that neither holds a photon nor drives the cavity.  The SVD is of the
    cluster's photon-carrying amplitudes stacked on its cavity drive,
    ``B @ Q_lower / max|B|`` with B the coupling block: a combination
    whose singular value is at most ``AMP_TOL`` counts as dark.  The drive
    rows keep the rule on the coupling's scale: where V >> g the bright
    symmetric state's photon amplitude is only about g/V, below
    ``AMP_TOL``, but it drives the cavity at order max|B|.
    Clusters are cut at :func:`default_cluster_tol`, as in :func:`detect`.
    A single eigenvector whose upper-amplitude norm exceeds ``2 * AMP_TOL``
    is bright without an SVD: its stacked column norm is never smaller,
    and the margin covers the rounding by which the norm and the singular
    value can differ.
    Shares only the elementary eigensolver with :func:`detect` -- no
    arrowhead structure, no coupling-rank logic.
    """
    w, Q = eigh(ham.matrix)
    nu = ham.basis.n_upper
    B = ham.coupling_block
    scale = np.abs(B).max(initial=0.0)
    drive = B / scale if scale else B

    bright = np.linalg.norm(Q[:nu], axis=0) > 2 * AMP_TOL

    clusters = []
    blocks = []
    val_list = []
    for lo, hi, eigenvalue in reversed(_clusters(w)):
        if hi - lo == 1 and bright[lo]:
            # the bulk of a spectrum: a bright singleton, no SVD
            clusters.append(DegenerateCluster(eigenvalue, (lo,), 1, 0))
            continue
        _, s, vh = np.linalg.svd(np.vstack([Q[:nu, lo:hi], drive @ Q[nu:, lo:hi]]))
        rank = int(np.sum(s > AMP_TOL))
        dark_dim = hi - lo - rank
        clusters.append(
            DegenerateCluster(
                eigenvalue=eigenvalue, members=tuple(range(lo, hi)), rank=rank,
                dark_dim=dark_dim,
            )
        )
        if dark_dim:
            blocks.append(Q[:, lo:hi] @ vh[rank:].conj().T)
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
ECHELON_PIVOT_TOL = 1e-8


def echelon_basis(D):
    """Orthonormalised reduced column-echelon basis of the span of D.

    D (n x k) has orthonormal columns.  Pivot rows are chosen in index order,
    each accepted when its residual against the earlier pivot rows exceeds
    ``ECHELON_PIVOT_TOL``.  E = D P^-1, with P = D[piv], is the one basis of
    the span with E[piv] = I; the Q factor of E = QR with a positive R
    diagonal is returned.  It is computed without inverting P: Q = D (R P)^-1 with R P
    unitary, so P = T U^dag with T = R^-1 upper triangular with a positive
    diagonal (an RQ decomposition of P) and Q = D U.  That keeps the result
    accurate to rounding even when a pivot row is nearly dependent on the
    earlier ones.

    D and D U for any unitary U give the same pivots (they are set by the
    row Gram matrix D D^dag) and the same Q, so the result depends on the
    span alone, to rounding -- as long as no row's residual lies within
    rounding of ``ECHELON_PIVOT_TOL``, where the pivot choice itself can
    flip.  Rows of D that are exactly zero stay exactly zero.
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
        hit = np.flatnonzero(norms > ECHELON_PIVOT_TOL)
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
