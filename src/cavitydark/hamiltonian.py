"""Rotating-frame Hamiltonian of N dipole-coupled two-level atoms in one cavity mode.

Per excitation subspace the Hamiltonian matrix is assembled directly from
three kinds of term, without materializing any spin or mode operators:

* diagonal: delta_a * (2k - N) / 2 for a state with k excited atoms
  (independent of the photon number in the rotating frame);
* atom-atom: V[j, l] between two states with equal photon number whose
  excited sets differ by moving one excitation from atom j to atom l;
* atom-cavity: g[j] * sqrt(m) between |m, S> and |m-1, S + {j}>.

Which state pairs carry an off-diagonal term depends only on the basis, so
:class:`~cavitydark.basis.SubspaceBasis` holds them as its bit-flip
connection table.  A build is then a gather of the values (V[j, l] per hop,
g[j] * sqrt(m) per absorption) and a scatter into both triangles, O(dim * N^2)
numpy work with no Python loop over states.  :func:`matrix_element`
evaluates the same rules for one arbitrary pair of states and is kept as the
independent reference the tests compare against.

With real couplings the matrix is real symmetric; it is stored in a complex
container so downstream transforms remain general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .basis import BasisState, SubspaceBasis, enumerate_subspace, ladder_spaces

__all__ = [
    "SystemParams",
    "SubspaceHamiltonian",
    "uniform_dipole_matrix",
    "build_hamiltonian",
    "build_lab_hamiltonian",
    "matrix_element",
    "excitation_operator_check",
]

_SYMMETRY_TOL = 1e-12


def uniform_dipole_matrix(n_atoms, v_dd):
    """All-to-all dipole matrix with a single interaction strength v_dd."""
    V = np.full((n_atoms, n_atoms), float(v_dd))
    np.fill_diagonal(V, 0.0)
    return V


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the coupled cavity-atom system.

    All rates are in units of g1 (the first atom's cavity coupling), matching
    the convention used by every preset shipped with the package.  ``delta_a``
    is the atom-cavity detuning of the rotating frame; alternatively the bare
    frequencies ``omega_a`` and ``omega_c`` may be supplied and ``delta_a``
    is derived as their difference.
    """

    n_atoms: int
    delta_a: float = None
    g: np.ndarray = None
    V: np.ndarray = None
    kappa: float = 0.0
    omega_a: float = None
    omega_c: float = None

    def __post_init__(self):
        N = self.n_atoms
        if N < 1:
            raise ValueError(f"need at least one atom, got N={N}")
        if (self.omega_a is None) != (self.omega_c is None):
            raise ValueError("omega_a and omega_c must be supplied together")
        if self.omega_a is not None:
            derived = float(self.omega_a) - float(self.omega_c)
            if self.delta_a is not None and abs(self.delta_a - derived) > 1e-12:
                raise ValueError(
                    f"delta_a={self.delta_a} inconsistent with "
                    f"omega_a - omega_c = {derived}"
                )
            object.__setattr__(self, "delta_a", derived)
        elif self.delta_a is None:
            raise ValueError("either delta_a or (omega_a, omega_c) is required")
        object.__setattr__(self, "delta_a", float(self.delta_a))

        g = np.asarray(self.g, dtype=float)
        if g.shape != (N,):
            raise ValueError(f"g must have shape ({N},), got {g.shape}")
        object.__setattr__(self, "g", g)

        V = np.asarray(self.V, dtype=float)
        if V.ndim == 0:
            V = uniform_dipole_matrix(N, float(V))
        if V.shape != (N, N):
            raise ValueError(f"V must have shape ({N}, {N}), got {V.shape}")
        if np.abs(V - V.T).max() > _SYMMETRY_TOL:
            raise ValueError("dipole matrix V must be symmetric")
        if np.abs(np.diag(V)).max() > 0.0:
            raise ValueError("dipole matrix V must have zero diagonal")
        object.__setattr__(self, "V", V)

        if self.kappa < 0:
            raise ValueError(f"cavity decay rate must be >= 0, got {self.kappa}")
        object.__setattr__(self, "kappa", float(self.kappa))

    def to_dict(self):
        out = {
            "n_atoms": self.n_atoms,
            "delta_a": self.delta_a,
            "g": self.g.tolist(),
            "V": self.V.tolist(),
            "kappa": self.kappa,
        }
        if self.omega_a is not None:
            out["omega_a"] = self.omega_a
            out["omega_c"] = self.omega_c
        return out


@dataclass(frozen=True)
class SubspaceHamiltonian:
    """Hamiltonian matrix on one excitation subspace, with its basis attached.

    The upper-left block acts on photon-carrying states, the lower-right block
    on zero-photon states, and the off-diagonal block couples the two.
    """

    basis: SubspaceBasis
    matrix: np.ndarray = field(repr=False)

    @property
    def upper_block(self):
        nu = self.basis.n_upper
        return self.matrix[:nu, :nu]

    @property
    def coupling_block(self):
        nu = self.basis.n_upper
        return self.matrix[:nu, nu:]

    @property
    def lower_block(self):
        nu = self.basis.n_upper
        return self.matrix[nu:, nu:]


def matrix_element(params, bra, ket):
    """<bra| H |ket> from the element rules; states need not share a subspace
    (elements between different excitation numbers are exactly zero)."""
    N = params.n_atoms
    if bra == ket:
        k = bra.n_excited
        return params.delta_a * (2 * k - N) / 2.0
    if bra.photons == ket.photons:
        moved = bra.excited ^ ket.excited
        if bin(moved).count("1") == 2 and bin(bra.excited).count("1") == bin(
            ket.excited
        ).count("1"):
            j = (moved & bra.excited).bit_length() - 1
            l = (moved & ket.excited).bit_length() - 1
            return params.V[j, l]
        return 0.0
    lo, hi = (bra, ket) if bra.photons < ket.photons else (ket, bra)
    if hi.photons == lo.photons + 1 and lo.excited & hi.excited == hi.excited:
        added = lo.excited ^ hi.excited
        if bin(added).count("1") == 1:
            return params.g[added.bit_length() - 1] * sqrt(hi.photons)
    return 0.0


def _assemble(params, basis, diagonal):
    """Scatter ``diagonal`` and the table's nonzero V and g terms into H.

    V[j, l] is read with j the row state's excited atom, so a V that is
    asymmetric within tolerance gives the same floats as
    :func:`matrix_element`.  Terms equal to zero (-0.0 included) stay unset.
    """
    hops, absorptions = basis.hops, basis.absorptions
    rows = np.concatenate([hops["row"], absorptions["row"]])
    cols = np.concatenate([hops["col"], absorptions["col"]])
    values = np.concatenate(
        [
            params.V[hops["from"], hops["to"]],
            params.g[absorptions["atom"]] * absorptions["root"],
        ]
    )
    keep = values != 0.0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    H = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.fill_diagonal(H, diagonal)
    H[rows, cols] = values
    H[cols, rows] = values
    return SubspaceHamiltonian(basis=basis, matrix=H)


def build_hamiltonian(params, excitation=None, basis=None):
    """Rotating-frame Hamiltonian on the given excitation subspace."""
    if basis is None:
        if excitation is None:
            raise ValueError("pass either an excitation number or a basis")
        basis = enumerate_subspace(params.n_atoms, excitation)
    k = basis.n_excited
    return _assemble(params, basis, params.delta_a * (2 * k - params.n_atoms) / 2.0)


def build_lab_hamiltonian(params, excitation=None, basis=None):
    """Lab-frame Hamiltonian (requires omega_a and omega_c).

    Differs from the rotating frame only on the diagonal:
    omega_a*(2k - N)/2 + omega_c*(m + N/2), i.e. the energy zero is chosen
    such that subtracting omega_c times the total excitation number m + k
    recovers :func:`build_hamiltonian` exactly (not merely up to a constant).
    """
    if params.omega_a is None:
        raise ValueError("lab-frame build needs omega_a and omega_c")
    if basis is None:
        if excitation is None:
            raise ValueError("pass either an excitation number or a basis")
        basis = enumerate_subspace(params.n_atoms, excitation)
    N, k, m = params.n_atoms, basis.n_excited, basis.photons
    return _assemble(
        params,
        basis,
        params.omega_a * (2 * k - N) / 2.0 + params.omega_c * (m + N / 2.0),
    )


def excitation_operator_check(params, n_max):
    """Verify the element rules conserve the total excitation number.

    Applies :func:`matrix_element` to *every* pair of states in the excitation
    ladder 0..n_max and returns the largest matrix element connecting two
    different subspaces.  Exactly 0.0 for a conserving Hamiltonian.
    """
    ladder = ladder_spaces(params.n_atoms, n_max)
    states = [s for sub in ladder.subspaces for s in sub.states]
    leak = 0.0
    for a, sa in enumerate(states):
        for sb in states[a + 1 :]:
            if sa.excitation != sb.excitation:
                leak = max(leak, abs(matrix_element(params, sa, sb)))
    return leak
