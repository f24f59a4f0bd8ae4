"""Dissipative dynamics under cavity photon loss.

The master equation

    drho/dt = i [rho, H] + kappa/2 (2 a rho a+ - a+a rho - rho a+a)

acts on the direct sum of all excitation subspaces from 0 up to the initial
excitation: photon loss only ever walks states down the ladder, so closing
the ladder at the initial excitation is exact, not a truncation.

Each step of the output grid applies exp(dt L) to rounding (``kernels``), so
any dt runs; the default grid takes dt * max(kappa, max|H_ij|) = 0.05.  The
trajectory records watch-state populations at every step together with
integrity diagnostics (trace drift, Hermiticity defect, excitation
expectation); none of these are corrected during the run, so they measure
the integrator honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import csv
import numpy as np

from . import kernels
from .hamiltonian import build_hamiltonian

__all__ = [
    "IntegrationError",
    "Trajectory",
    "build_ladder_hamiltonian",
    "lowering_operator",
    "excitation_diagonal",
    "min_eigenvalue",
    "stability_bound",
    "simulate",
]

#: dt * max(kappa, max|H_ij|) of the default grid
STABILITY_LIMIT = 0.05

#: a run keeps a record of every step; 10**7 is 50 times the longest preset
MAX_STEPS = 10**7

#: largest |1 - ||psi||| of the initial state and of each watch state
NORM_TOL = 1e-10
#: trajectory rows formatted and written per block of the CSV export
CSV_BLOCK_ROWS = 1024


class IntegrationError(RuntimeError):
    """Raised when the integrator produces non-finite entries or its kernel
    raises."""


def build_ladder_hamiltonian(params, ladder):
    """Block-diagonal Hamiltonian over the excitation ladder."""
    H = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    for n, sub in enumerate(ladder.subspaces):
        lo, hi = ladder.offsets[n], ladder.offsets[n + 1]
        H[lo:hi, lo:hi] = build_hamiltonian(params, sub).matrix
    return H


def lowering_operator(ladder):
    """Photon annihilation operator a on the ladder: |m, S> -> sqrt(m) |m-1, S>."""
    a = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    states = [s for sub in ladder.subspaces for s in sub.states]
    index = {(s.photons, s.excited): i for i, s in enumerate(states)}
    for col, state in enumerate(states):
        if state.photons:
            a[index[state.photons - 1, state.excited], col] = sqrt(state.photons)
    return a


def excitation_diagonal(ladder):
    """Total excitation number carried by each ladder index (constant per block)."""
    out = np.empty(ladder.dim)
    for n, sub in enumerate(ladder.subspaces):
        out[ladder.offsets[n] : ladder.offsets[n + 1]] = n
    return out


def min_eigenvalue(rho):
    """Smallest eigenvalue of the Hermitian part of a density matrix."""
    return float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])


def _unit_vector(what, psi, dim):
    """``psi`` as a complex vector of length ``dim`` and unit norm, or a
    ValueError naming ``what``."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"{what} has shape {psi.shape}, expected ({dim},)")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"{what} is not normalized: |psi| = {float(nrm)!r}")
    return psi


def stability_bound(params, H):
    """Step of the default grid, before it is shortened to divide t_max."""
    scale = max(params.kappa, float(np.abs(H).max()), 1e-12)
    return STABILITY_LIMIT / scale


def _resolve_grid(params, H, t_max, dt):
    """``(dt, n_steps)`` of the output grid.  t_max defaults to 30 / |g_1|;
    dt to the largest step of at most ``stability_bound`` that divides it."""
    if t_max is None:
        if params.g[0] == 0.0:
            raise ValueError("t_max default needs g[0] != 0; pass t_max explicitly")
        t_max = 30.0 / abs(params.g[0])
    t_max = float(t_max)
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    bound = stability_bound(params, H)
    fixed = dt is not None
    dt = float(dt) if fixed else bound
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # a longer dt takes Taylor sub-steps of about the default step's cost
    steps = t_max / min(dt, bound)
    if not steps <= MAX_STEPS:  # also catches inf and NaN
        raise ValueError(
            f"the run needs {steps:.3g} steps, more than the {MAX_STEPS} "
            f"allowed; shorten t_max"
        )
    if not fixed:
        n_steps = max(1, int(np.ceil(steps - 1e-12)))
        return t_max / n_steps, n_steps
    n_steps = int(round(t_max / dt))
    if n_steps < 1 or abs(n_steps * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError(f"dt={dt} does not divide t_max={t_max} into whole steps")
    return dt, n_steps


@dataclass(frozen=True)
class Trajectory:
    """Fixed-grid populations and integrity diagnostics of one run."""

    times: np.ndarray = field(repr=False)
    names: tuple
    populations: dict = field(repr=False)
    trace: np.ndarray = field(repr=False)
    hermiticity: np.ndarray = field(repr=False)
    excitation: np.ndarray = field(repr=False)
    snapshots: tuple = field(repr=False)
    final_state: np.ndarray = field(repr=False)
    dt: float = 0.0
    convergence_error: float = None

    @property
    def trace_drift(self):
        return float(np.abs(self.trace - 1.0).max())

    @property
    def hermiticity_drift(self):
        return float(self.hermiticity.max())

    @property
    def max_excitation_rise(self):
        return float(np.diff(self.excitation).max(initial=0.0))

    def initial_populations(self):
        return {name: float(p[0]) for name, p in self.populations.items()}

    def final_populations(self):
        return {name: float(p[-1]) for name, p in self.populations.items()}

    def to_csv(self, path):
        """Write ``t, <watch name>...`` rows at full double precision."""
        cols = [self.times, *(self.populations[name] for name in self.names)]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["t", *self.names])
            # repr never needs csv quoting; rows go out in blocks, formatted a
            # column at a time, so only one block's text is held at once
            for lo in range(0, len(self.times), CSV_BLOCK_ROWS):
                block = (c[lo : lo + CSV_BLOCK_ROWS].tolist() for c in cols)
                rows = zip(*(map(repr, col) for col in block))
                fh.write("\n".join(map(",".join, rows)) + "\n")


def simulate(params, ladder, initial, watch, t_max=None, dt=None, n_snapshots=0):
    """Integrate the master equation on ``ladder`` and return the trajectory.

    initial : normalized state vector over the ladder
    watch : mapping from column name to normalized state vector; populations
        of these states are recorded every step
    t_max : run length; defaults to 30 / |g_1|
    dt : output step, any that divides t_max into whole steps; defaults to
        the largest such step of at most ``stability_bound``
    n_snapshots : how many evenly spaced density matrices the trajectory
        keeps as ``(t, rho)`` pairs (at most one per step; 0 keeps none)

    Its ``convergence_error`` is the kernel's a-priori truncation bound,
    summed over the run.
    """
    H = build_ladder_hamiltonian(params, ladder)
    a_op = lowering_operator(ladder)
    exc = excitation_diagonal(ladder)

    psi = _unit_vector("initial state", initial, ladder.dim)
    names = tuple(watch)
    watch_vecs = np.zeros((len(names), ladder.dim), dtype=complex)
    for k, name in enumerate(names):
        watch_vecs[k] = _unit_vector(f"watch state {name!r}", watch[name], ladder.dim)

    dt, n_steps = _resolve_grid(params, H, t_max, dt)
    n_snaps = min(n_snapshots, n_steps + 1)
    snap_steps = np.round(np.linspace(0, n_steps, n_snaps)).astype(np.int64)
    snap_steps = snap_steps[np.diff(snap_steps, prepend=-1) > 0]  # sorted: unique
    try:
        pops, trace, herm, excite, snap_mats, rho_f, fail, bound = kernels.evolve(
            H, a_op, params.kappa, np.outer(psi, psi.conj()), dt, n_steps,
            watch_vecs, snap_steps, exc,
        )
    except ValueError as err:
        # the inputs are checked above: what is left is a numerical fault
        raise IntegrationError(f"the kernel failed: {err}") from err
    if fail >= 0:
        raise IntegrationError(
            f"non-finite density matrix at step {fail} (t = {fail * dt!r})"
        )

    return Trajectory(
        times=np.arange(n_steps + 1) * dt,
        names=names,
        populations={name: pops[:, k].copy() for k, name in enumerate(names)},
        trace=trace,
        hermiticity=herm,
        excitation=excite,
        snapshots=tuple((float(s * dt), m) for s, m in zip(snap_steps, snap_mats)),
        final_state=rho_f,
        dt=dt,
        convergence_error=bound,
    )
