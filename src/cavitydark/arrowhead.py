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
    "to_arrowhead",
    "collective_basis",
    "collective_couplings",
]


@dataclass(frozen=True)
class ArrowheadForm:
    """Result of diagonalizing the lower block of a subspace Hamiltonian.

    eigenvalues : dressed lower-state energies, ascending
    couplings : transformed coupling block; column s couples dressed state s
        to the photon-carrying (upper) states, which are left untouched
    lower_transform : unitary with dressed states as rows, so that
        lower_transform @ L @ lower_transform^dag is diagonal
    """

    basis: object
    eigenvalues: np.ndarray = field(repr=False)
    couplings: np.ndarray = field(repr=False)
    lower_transform: np.ndarray = field(repr=False)

    @property
    def n_lower(self):
        return self.eigenvalues.shape[0]

    @property
    def n_upper(self):
        return self.couplings.shape[0]


def to_arrowhead(ham, lower=None):
    """Arrowhead form of a :class:`SubspaceHamiltonian`.

    ``lower`` is an already computed pair ``(w, Q)`` = ``eigh(ham.lower_block)``.
    The lower block holds the detuning and the dipole couplings V but not the
    cavity couplings g, so Hamiltonians that differ only in g can share one
    pair; the caller vouches that it belongs to this lower block, which is
    not checked, and it is only read.  Without it the block is diagonalized
    here.

    A subspace with no zero-photon states (excitation above the atom number)
    yields an empty result: no dressed states, no couplings.
    """
    w, Q = eigh(ham.lower_block) if lower is None else lower
    return ArrowheadForm(
        basis=ham.basis,
        eigenvalues=w,
        couplings=ham.coupling_block @ Q,
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


def collective_couplings(g):
    """Dressed-state couplings G_s for the single-excitation subspace of a
    uniform dipole interaction.

    G_1 = sum_j g_j / sqrt(N) belongs to the symmetric state;
    G_s = (-g_1 - ... - g_{s-1} + (s-1) g_s) / sqrt(s(s-1)), s >= 2, to the
    (N-1)-fold degenerate manifold.
    """
    g = np.asarray(g, dtype=float)
    return collective_basis(g.shape[0]) @ g
