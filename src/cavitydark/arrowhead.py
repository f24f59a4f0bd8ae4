"""Arrowhead form of a subspace Hamiltonian.

Diagonalizing only the zero-photon (lower) block brings the subspace
Hamiltonian to arrowhead shape: the photon-carrying block is untouched, the
lower block becomes diagonal, and the transformed coupling block shows which
dressed lower states talk to the cavity at all.  Dressed states whose coupling
column vanishes -- individually or through a degenerate-cluster conspiracy --
are the dark states this package hunts for.

For a uniform dipole interaction and a single excitation the dressed basis is
known in closed form; :func:`collective_basis` and
:func:`collective_couplings` provide that analytic route independently of the
numeric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .linalg import eigh

__all__ = [
    "ArrowheadForm",
    "CollectiveCouplings",
    "to_arrowhead",
    "collective_basis",
    "collective_couplings",
]


@dataclass(frozen=True)
class ArrowheadForm:
    """Result of diagonalizing the lower block of a subspace Hamiltonian.

    upper_block : the photon-carrying block, unchanged
    eigenvalues : dressed lower-state energies, ascending
    couplings : transformed coupling block; column s couples dressed state s
        to the upper block
    lower_transform : unitary with dressed states as rows, so that
        lower_transform @ L @ lower_transform^dag is diagonal
    """

    basis: object
    upper_block: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    couplings: np.ndarray = field(repr=False)
    lower_transform: np.ndarray = field(repr=False)

    @property
    def n_lower(self):
        return self.eigenvalues.shape[0]

    @property
    def n_upper(self):
        return self.upper_block.shape[0]

    def full_matrix(self):
        """Assembled arrowhead matrix, unitarily equivalent to the input."""
        nu, nl = self.n_upper, self.n_lower
        H = np.zeros((nu + nl, nu + nl), dtype=self.couplings.dtype)
        H[:nu, :nu] = self.upper_block
        H[:nu, nu:] = self.couplings
        H[nu:, :nu] = self.couplings.conj().T
        H[nu:, nu:] = np.diag(self.eigenvalues)
        return H


def to_arrowhead(ham, lower=None):
    """Arrowhead form of a :class:`SubspaceHamiltonian`.

    ``lower`` is an already computed pair ``(w, Q)`` = ``eigh(ham.lower_block)``.
    The lower block holds the detuning and the dipole couplings V but not the
    cavity couplings g, so Hamiltonians that differ only in g can share one
    pair; the caller vouches that it belongs to this lower block, which is
    not checked, and it is only read.  Without it the block is diagonalized
    here.

    A subspace with no zero-photon states (excitation above the atom number)
    yields an explicit empty result: no dressed states, no couplings.
    """
    L = ham.lower_block
    C = ham.coupling_block
    nu = ham.basis.n_upper
    if L.shape[0] == 0:
        return ArrowheadForm(
            basis=ham.basis,
            upper_block=ham.upper_block.copy(),
            eigenvalues=np.zeros(0),
            couplings=np.zeros((nu, 0), dtype=C.dtype),
            lower_transform=np.zeros((0, 0), dtype=C.dtype),
        )
    w, Q = eigh(L) if lower is None else lower
    return ArrowheadForm(
        basis=ham.basis,
        upper_block=ham.upper_block.copy(),
        eigenvalues=w,
        couplings=C @ Q,
        lower_transform=Q.conj().T,
    )


def collective_basis(n_atoms):
    """Closed-form dressed basis of the single-excitation lower block for a
    uniform dipole interaction.

    Row 1 is the fully symmetric combination; row s (s >= 2) weights the
    first s-1 atoms with -1/sqrt(s(s-1)) and atom s with (s-1)/sqrt(s(s-1)).
    The rows are orthonormal for any N and diagonalize the uniform-interaction
    block regardless of the interaction strength.
    """
    if n_atoms < 1:
        raise ValueError(f"need at least one atom, got {n_atoms}")
    N = n_atoms
    S = np.zeros((N, N))
    S[0, :] = 1.0 / sqrt(N)
    for s in range(2, N + 1):
        norm = sqrt(s * (s - 1))
        S[s - 1, : s - 1] = -1.0 / norm
        S[s - 1, s - 1] = (s - 1) / norm
    return S


@dataclass(frozen=True)
class CollectiveCouplings:
    """Analytic couplings and energies of the single-excitation dressed states
    for a uniform dipole interaction.

    couplings[0] belongs to the symmetric state (energy
    ``symmetric_eigenvalue``); couplings[1:] belong to the (N-1)-fold
    degenerate manifold at ``degenerate_eigenvalue``.
    """

    couplings: np.ndarray
    symmetric_eigenvalue: float
    degenerate_eigenvalue: float


def collective_couplings(g, v_dd, delta_a=0.0):
    """Dressed-state couplings G_s for the single-excitation subspace.

    G_1 = sum_j g_j / sqrt(N);
    G_s = (-g_1 - ... - g_{s-1} + (s-1) g_s) / sqrt(s(s-1))  for s >= 2.
    """
    g = np.asarray(g, dtype=float)
    N = g.shape[0]
    G = collective_basis(N) @ g
    base = -(N - 2) * delta_a / 2.0
    return CollectiveCouplings(
        couplings=G,
        symmetric_eigenvalue=base + (N - 1) * v_dd,
        degenerate_eigenvalue=base - v_dd,
    )
