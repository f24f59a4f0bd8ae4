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
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arrowhead import to_arrowhead
from .hamiltonian import build_hamiltonian
from .linalg import eigh, fix_phases, rank_and_nullspace

__all__ = [
    "DegenerateCluster",
    "DarkStateReport",
    "detect",
    "brute_force_dark_states",
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
    subspace basis, ordered by descending eigenvalue with a deterministic
    phase.  ``method`` records which route produced the report.
    """

    basis: object
    method: str
    clusters: tuple
    vectors: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)

    @property
    def total_dark(self):
        return self.vectors.shape[1]

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
    """Group sorted values into runs separated by gaps larger than tol."""
    groups = []
    current = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            groups.append(current)
            current = []
        current.append(i)
    if values.size:
        groups.append(current)
    return groups


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
    basis and padded with zero photon-carrying amplitudes.

    The rank threshold is referenced to the norm of the *whole* coupling
    matrix, not of each submatrix: a balanced coupling that cancels only to
    rounding error must classify the same as an exact zero.
    """
    w = arrow.eigenvalues
    nu, nl = arrow.n_upper, arrow.n_lower
    dim = nu + nl
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(w)
    coupling_scale = (
        float(np.linalg.norm(arrow.couplings, ord=2)) if arrow.couplings.size else 0.0
    )

    clusters = []
    vec_list = []
    val_list = []
    # walk clusters in descending-eigenvalue order for deterministic output
    for members in reversed(_cluster_indices(w, cluster_tol)):
        members = tuple(members)
        sub = arrow.couplings[:, members]
        rank, null_basis = rank_and_nullspace(sub, rank_tol, scale=coupling_scale)
        dark_dim = len(members) - rank
        eigenvalue = float(np.mean(w[list(members)]))
        clusters.append(
            DegenerateCluster(
                eigenvalue=eigenvalue, members=members, rank=rank, dark_dim=dark_dim
            )
        )
        for k in range(dark_dim):
            coeffs = np.zeros(nl, dtype=complex)
            coeffs[list(members)] = null_basis[:, k]
            vec = np.zeros(dim, dtype=complex)
            vec[nu:] = arrow.dressed_to_bare(coeffs)
            vec_list.append(vec)
            val_list.append(eigenvalue)

    vectors = (
        np.stack(vec_list, axis=1) if vec_list else np.zeros((dim, 0), dtype=complex)
    )
    vectors = fix_phases(vectors)
    return DarkStateReport(
        basis=arrow.basis,
        method="arrowhead-rank",
        clusters=tuple(reversed(clusters)),
        vectors=vectors,
        eigenvalues=np.array(val_list, dtype=float),
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
    dim = ham.basis.dim
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(w)

    upper_norm = np.linalg.norm(Q[:nu], axis=0)

    clusters = []
    vec_list = []
    val_list = []
    for members in reversed(_cluster_indices(w, cluster_tol)):
        members = tuple(members)
        d = len(members)
        if d == 1 and upper_norm[members[0]] > 2 * amp_tol:
            rank, null_basis = 1, None
        elif nu == 0:
            rank, null_basis = 0, np.eye(d, dtype=complex)
        else:
            _, s, vh = np.linalg.svd(Q[:nu, list(members)])
            s = np.concatenate([s, np.zeros(d - s.size)])
            rank = int(np.sum(s > amp_tol))
            null_basis = vh[rank:].conj().T
        dark_dim = d - rank
        eigenvalue = float(np.mean(w[list(members)]))
        clusters.append(
            DegenerateCluster(
                eigenvalue=eigenvalue, members=members, rank=rank, dark_dim=dark_dim
            )
        )
        if dark_dim:
            dark_vecs = Q[:, list(members)] @ null_basis
            for k in range(dark_dim):
                vec_list.append(dark_vecs[:, k])
                val_list.append(eigenvalue)

    vectors = (
        np.stack(vec_list, axis=1) if vec_list else np.zeros((dim, 0), dtype=complex)
    )
    vectors = fix_phases(vectors)
    return DarkStateReport(
        basis=ham.basis,
        method="eigenspace-amplitude",
        clusters=tuple(reversed(clusters)),
        vectors=vectors,
        eigenvalues=np.array(val_list, dtype=float),
    )


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
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
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
    excitation number or by an already enumerated ``basis``.
    """
    ham = build_hamiltonian(params, excitation, basis=basis)
    arrow = to_arrowhead(ham)
    detected = detect(arrow, cluster_tol=cluster_tol)
    brute = brute_force_dark_states(ham, amp_tol=amp_tol, cluster_tol=cluster_tol)
    agrees, angle = reports_agree(detected, brute, angle_tol=angle_tol)
    return AnalysisResult(
        hamiltonian=ham,
        arrowhead=arrow,
        detected=detected,
        brute_force=brute,
        agrees=agrees,
        angle=angle,
    )
