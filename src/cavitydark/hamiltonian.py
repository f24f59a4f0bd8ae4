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
numpy work with no Python loop over states.  The same rules evaluated for one
arbitrary pair of states, the independent reference a build is compared
against bit for bit, live in the tests.

``SystemParams`` holds g and V as real floats, so the matrix is real
symmetric and is built as float64: the arrowhead transform, the dark-state
detector and its eigenspace cross-check all run in real arithmetic.  The
dynamics copies each block into its complex ladder operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import SubspaceBasis

__all__ = [
    "ScaleError",
    "SystemParams",
    "SubspaceHamiltonian",
    "uniform_dipole_matrix",
    "build_hamiltonian",
]

_SYMMETRY_TOL = 1e-12  # largest |V - V^T| accepted, relative to max|V|
#: largest |delta_a - (omega_a - omega_c)| accepted, relative to
#: max(|omega_a|, |omega_c|)
_DETUNING_TOL = 1e-12


class ScaleError(ValueError):
    """Parameters so large that the spectrum overflows float64."""


def uniform_dipole_matrix(n_atoms, v_dd):
    """All-to-all dipole matrix with a single interaction strength v_dd."""
    V = np.full((n_atoms, n_atoms), float(v_dd))
    np.fill_diagonal(V, 0.0)
    return V


def _require_finite(name, value):
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got NaN or inf")


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
            omega_a, omega_c = float(self.omega_a), float(self.omega_c)
            derived = omega_a - omega_c
            tol = _DETUNING_TOL * max(abs(omega_a), abs(omega_c))
            if self.delta_a is not None and abs(self.delta_a - derived) > tol:
                raise ValueError(
                    f"delta_a={self.delta_a} inconsistent with "
                    f"omega_a - omega_c = {derived}"
                )
            object.__setattr__(self, "delta_a", derived)
        elif self.delta_a is None:
            raise ValueError("either delta_a or (omega_a, omega_c) is required")
        object.__setattr__(self, "delta_a", float(self.delta_a))
        _require_finite("delta_a", self.delta_a)

        g = np.asarray(self.g, dtype=float)
        if g.shape != (N,):
            raise ValueError(f"g must have shape ({N},), got {g.shape}")
        _require_finite("g", g)
        object.__setattr__(self, "g", g)

        V = np.asarray(self.V, dtype=float)
        if V.ndim == 0:
            V = uniform_dipole_matrix(N, float(V))
        if V.shape != (N, N):
            raise ValueError(f"V must have shape ({N}, {N}), got {V.shape}")
        _require_finite("V", V)
        if np.abs(V - V.T).max() > _SYMMETRY_TOL * np.abs(V).max():
            raise ValueError("dipole matrix V must be symmetric")
        if np.abs(np.diag(V)).max() > 0.0:
            raise ValueError("dipole matrix V must have zero diagonal")
        object.__setattr__(self, "V", V)

        object.__setattr__(self, "kappa", float(self.kappa))
        _require_finite("kappa", self.kappa)
        if self.kappa < 0:
            raise ValueError(f"cavity decay rate must be >= 0, got {self.kappa}")

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

    The upper-left block (the first ``basis.n_upper`` rows and columns) acts
    on photon-carrying states, the lower-right block on zero-photon states,
    and the off-diagonal block couples the two.
    """

    basis: SubspaceBasis
    matrix: np.ndarray = field(repr=False)

    @property
    def coupling_block(self):
        nu = self.basis.n_upper
        return self.matrix[:nu, nu:]

    @property
    def lower_block(self):
        nu = self.basis.n_upper
        return self.matrix[nu:, nu:]


def build_hamiltonian(params, basis):
    """Rotating-frame Hamiltonian on the excitation subspace ``basis``.

    The diagonal and the table's nonzero V and g terms are scattered into H.
    V[j, l] is read with j the row state's excited atom, so a V that is
    asymmetric within tolerance gives the same floats as the per-pair rules
    the tests compare against.  Terms equal to zero (-0.0 included) stay unset.
    The matrix is real symmetric and float64.
    """
    hops, absorptions = basis.hops, basis.absorptions
    rows = np.concatenate([hops["row"], absorptions["row"]])
    cols = np.concatenate([hops["col"], absorptions["col"]])
    # an overflow here fails the scale check below
    with np.errstate(over="ignore"):
        values = np.concatenate(
            [
                params.V[hops["from"], hops["to"]],
                params.g[absorptions["atom"]] * absorptions["root"],
            ]
        )
        n_excited = basis.excitation - basis.photons
        diagonal = params.delta_a * (2 * n_excited - params.n_atoms) / 2.0
        # every eigenvalue lies within max_i sum_j |H_ij| of zero; the table
        # lists each off-diagonal pair once
        weight = np.abs(values)
        row_sums = (
            np.abs(diagonal)
            + np.bincount(rows, weight, basis.dim)
            + np.bincount(cols, weight, basis.dim)
        )
        scale = 2.0 * float(row_sums.max(initial=0.0))
    if not math.isfinite(scale):
        raise ScaleError(
            "the Hamiltonian scale 2 max_i sum_j |H_ij|, a bound on its spectral "
            "spread, is not finite: the parameters are too large for float64"
        )
    keep = values != 0.0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    H = np.zeros((basis.dim, basis.dim))
    np.fill_diagonal(H, diagonal)
    H[rows, cols] = values
    H[cols, rows] = values
    return SubspaceHamiltonian(basis=basis, matrix=H)
