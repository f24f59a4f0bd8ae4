"""From atom positions to system parameters.

Atoms sit at fixed points inside a standing-wave cavity.  Two maps produce
the abstract model inputs:

* dipole-dipole interaction between atoms j and k at distance R:
  V_jk = C3 / R**3 (isotropic van der Waals-like scaling);
* cavity coupling of an atom at (x, y, z), with the mode axis along z:

      g(r) = g0 * cos(k z) * exp(-(x^2 + y^2) / w0^2) * (w0 / w(z)),

  with wavenumber k = 2 pi / lambda and Rayleigh range z_R = pi w0^2 / lambda.
  The default axial width law is w(z) = w0 * sqrt(1 + z / z_R), linear in
  z / z_R; ``axial_profile="quadratic"`` selects the conventional Gaussian
  beam w(z) = w0 * sqrt(1 + (z / z_R)^2) with the transverse falloff widened
  to exp(-(x^2 + y^2) / w(z)^2) to match.

For three atoms the characteristic polynomial of the interaction matrix has
a closed Cardano form; its discriminant vanishes exactly when the three pair
couplings share one magnitude, which is the degeneracy condition the dark
state analysis cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, exp, pi, sqrt

import numpy as np

from .config import numbers, read
from .hamiltonian import SystemParams

__all__ = [
    "AtomGeometry",
    "DiscriminantResult",
    "dipole_matrix",
    "cavity_coupling",
    "cardano_discriminant",
    "params_from_geometry",
]

#: atoms closer than this are rejected as coincident
MIN_ATOM_DISTANCE = 1e-9
#: |delta| at most this times its scale |P/3|^3 counts as degenerate
DISCRIMINANT_REL_TOL = 1e-10
#: largest relative spread at which the three pair magnitudes count as equal
MAGNITUDE_TOL = 1e-8


@dataclass(frozen=True)
class AtomGeometry:
    """Atom positions plus the interaction and cavity-mode constants.

    positions : (N, 3) array, cavity axis along z, waist at z = 0
    c3 : dipole interaction coefficient (V = c3 / R^3)
    g0 : peak atom-cavity coupling at the waist center
    w0 : mode waist radius
    wavelength : cavity mode wavelength (JSON key ``"lambda"``)
    """

    positions: np.ndarray = field(repr=False)
    c3: float = 1.0
    g0: float = 1.0
    w0: float = 1.0
    wavelength: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("need at least one atom position")
        for name in ("w0", "wavelength"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "positions", pos)

    @property
    def n_atoms(self):
        return self.positions.shape[0]

    @property
    def rayleigh_range(self):
        return pi * self.w0**2 / self.wavelength

    @property
    def wavenumber(self):
        return 2.0 * pi / self.wavelength

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {"positions", "C3", "g0", "w0", "lambda"}
        if unknown:
            raise ValueError(f"unknown keys: {sorted(unknown)}")
        return cls(
            positions=np.asarray(numbers("positions", d["positions"]), dtype=float),
            c3=read(d, "C3"),
            g0=read(d, "g0"),
            w0=read(d, "w0"),
            wavelength=read(d, "lambda", "geometry section"),
        )


def dipole_matrix(geometry):
    """Pairwise interaction matrix V_jk = c3 / R_jk^3 (zero diagonal)."""
    pos = geometry.positions
    N = geometry.n_atoms
    V = np.zeros((N, N))
    for j in range(N):
        for k in range(j + 1, N):
            r = float(np.linalg.norm(pos[j] - pos[k]))
            if r < MIN_ATOM_DISTANCE:
                raise ValueError(
                    f"atoms {j} and {k} are coincident (distance {r!r} < "
                    f"{MIN_ATOM_DISTANCE})"
                )
            V[j, k] = V[k, j] = geometry.c3 / r**3
    return V


def cavity_coupling(geometry, axial_profile="linear"):
    """Atom-cavity couplings g_j from the standing-wave mode profile."""
    z_r = geometry.rayleigh_range
    k = geometry.wavenumber
    w0 = geometry.w0
    g = np.empty(geometry.n_atoms)
    for j, (x, y, z) in enumerate(geometry.positions):
        if axial_profile == "linear":
            arg = 1.0 + z / z_r
            if arg <= 0.0:
                raise ValueError(
                    f"atom {j} at z={z} lies outside the linear axial profile "
                    f"(needs z > -{z_r!r})"
                )
            w_z = w0 * sqrt(arg)
            transverse = exp(-(x**2 + y**2) / w0**2)
        elif axial_profile == "quadratic":
            w_z = w0 * sqrt(1.0 + (z / z_r) ** 2)
            transverse = exp(-(x**2 + y**2) / w_z**2)
        else:
            raise ValueError(f"unknown axial_profile {axial_profile!r}")
        g[j] = geometry.g0 * cos(k * z) * transverse * (w0 / w_z)
    return g


@dataclass(frozen=True)
class DiscriminantResult:
    """Cardano data of the three-atom interaction spectrum.

    The reduced cubic for the eigenvalues is x^3 + P x + Q with
    P = -(V12^2 + V13^2 + V23^2) and Q = -2 V12 V13 V23; the discriminant
    delta = (P/3)^3 + (Q/2)^2 is zero exactly on the equal-magnitude surface
    |V12| = |V13| = |V23|.  When ``degenerate`` the pair magnitudes are
    re-checked directly and their relative spread is reported.
    """

    p: float
    q: float
    delta: float
    degenerate: bool
    magnitude_spread: float = None
    magnitudes_equal: bool = None
    triple_root: bool = None

    def to_dict(self):
        return {
            "P": self.p,
            "Q": self.q,
            "delta": self.delta,
            "degenerate": self.degenerate,
            "magnitude_spread": self.magnitude_spread,
            "magnitudes_equal": self.magnitudes_equal,
            "triple_root": self.triple_root,
        }


def cardano_discriminant(v12, v13, v23):
    """Discriminant of the three-atom interaction cubic, with degeneracy test.

    ``delta`` is compared against ``DISCRIMINANT_REL_TOL`` times its natural
    scale |P/3|^3; on degeneracy the pair magnitudes are checked to agree
    within ``MAGNITUDE_TOL`` (relative) and their spread is reported.
    """
    p = -(v12**2 + v13**2 + v23**2)
    q = -2.0 * v12 * v13 * v23
    delta = (p / 3.0) ** 3 + (q / 2.0) ** 2
    scale = max(abs(p / 3.0) ** 3, (q / 2.0) ** 2, 1e-300)
    degenerate = abs(delta) <= DISCRIMINANT_REL_TOL * scale
    spread = None
    equal = None
    triple = None
    if degenerate:
        mags = np.abs([v12, v13, v23])
        top = float(mags.max())
        spread = float((mags.max() - mags.min()) / max(top, 1e-300))
        equal = spread <= MAGNITUDE_TOL
        # all couplings exactly zero: the cubic collapses to a triple root,
        # outside the regime where the degeneracy condition means anything
        triple = top == 0.0
    return DiscriminantResult(
        p=float(p),
        q=float(q),
        delta=float(delta),
        degenerate=bool(degenerate),
        magnitude_spread=spread,
        magnitudes_equal=equal,
        triple_root=triple,
    )


def params_from_geometry(geometry, delta_a=0.0, kappa=0.0, axial_profile="linear"):
    """Assemble abstract system parameters from an atom placement."""
    return SystemParams(
        n_atoms=geometry.n_atoms,
        delta_a=delta_a,
        g=cavity_coupling(geometry, axial_profile=axial_profile),
        V=dipole_matrix(geometry),
        kappa=kappa,
    )
