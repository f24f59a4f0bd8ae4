"""Dissipative dynamics under cavity photon loss.

The master equation

    drho/dt = i [rho, H] + kappa/2 (2 a rho a+ - a+a rho - rho a+a)

acts on the direct sum of all excitation subspaces from 0 up to the initial
excitation: photon loss only ever walks states down the ladder, so closing
the ladder at the initial excitation is exact, not a truncation.

H and a are never assembled over the whole ladder.  The kernel takes the
ladder's blocks: the Hamiltonian of each subspace and the diagonal of each
lowering block a_{n-1,n} = [diag(sqrt(m)) | 0].  Only the initial state,
the snapshots and the final state are dense ladder matrices.

Each step of the output grid applies exp(dt L) to rounding (``kernels``), so
any dt runs; the default step is at most 0.05 / max(kappa, max|H_ij|), or the
whole run when that rate is 0.  The trajectory records watch-state
populations at every step together with integrity diagnostics (trace drift,
excitation expectation); neither is corrected during the run, so they measure
the integrator honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "simulate",
]

#: largest dt * max(kappa, max|H_ij|) of the default output grid
DEFAULT_STEP = 0.05
#: a step count within this of the whole number below it takes that number,
#: so that 1.0 / 0.05 = 20.000000000000004 makes 20 steps, not 21
STEP_COUNT_SLACK = 1e-12
#: largest remainder, relative to t_max, that a given dt may leave over
DIVIDE_REL_TOL = 1e-9

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
    """The ladder's Hamiltonian as its excitation blocks: one
    ``SubspaceHamiltonian`` per subspace, in ladder order."""
    return tuple(build_hamiltonian(params, sub) for sub in ladder.subspaces)


def lowering_operator(ladder):
    """Photon annihilation operator a on the ladder: for n = 1..n_max, the
    r_n = sqrt(m) of a_{n-1,n} = [diag(r_n) | 0], as a|m, S> = sqrt(m)|m-1, S>
    keeps the basis order (``enumerate_subspace``) over the photon states."""
    return [np.sqrt(sub.photons[: sub.n_upper]) for sub in ladder.subspaces[1:]]


def excitation_diagonal(ladder):
    """Total excitation number carried by each ladder index (constant per block)."""
    return np.repeat(np.arange(len(ladder.subspaces), dtype=float),
                     np.diff(ladder.offsets))


def min_eigenvalue(rho):
    """Smallest eigenvalue of a Hermitian density matrix."""
    return float(np.linalg.eigvalsh(rho)[0])


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


def _resolve_grid(params, hamiltonians, t_max, dt):
    """``(dt, n_steps)`` of the output grid on the ladder's ``hamiltonians``.
    t_max defaults to 30 / |g_1|; dt to the largest step of at most
    DEFAULT_STEP / max(kappa, max|H_ij|) that divides it (t_max at rate 0)."""
    if t_max is None:
        if params.g[0] == 0.0:
            raise ValueError("t_max default needs g[0] != 0; pass t_max explicitly")
        t_max = 30.0 / abs(params.g[0])
    t_max = float(t_max)
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    rate = max(params.kappa, *(float(np.abs(h.matrix).max()) for h in hamiltonians))
    default = DEFAULT_STEP / rate if rate > 0 else t_max
    fixed = dt is not None
    dt = float(dt) if fixed else default
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # a longer dt takes Taylor sub-steps of about the default step's cost
    steps = t_max / min(dt, default)
    if not steps <= MAX_STEPS:  # also catches inf and NaN
        raise ValueError(
            f"the run needs {steps:.3g} steps, more than the {MAX_STEPS} "
            f"allowed; shorten t_max"
        )
    if not fixed:
        n_steps = max(1, int(np.ceil(steps - STEP_COUNT_SLACK)))
        return t_max / n_steps, n_steps
    n_steps = int(round(t_max / dt))
    if n_steps < 1 or abs(n_steps * dt - t_max) > DIVIDE_REL_TOL * t_max:
        raise ValueError(f"dt={dt} does not divide t_max={t_max} into whole steps")
    return dt, n_steps


@dataclass(frozen=True)
class Trajectory:
    """Fixed-grid populations and integrity diagnostics of one run."""

    times: np.ndarray = field(repr=False)
    names: tuple
    populations: dict = field(repr=False)
    trace: np.ndarray = field(repr=False)
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
        """max|rho - rho+| over the snapshots and final state; 0 by construction."""
        states = [self.final_state, *(rho for _, rho in self.snapshots)]
        return float(max(np.abs(rho - rho.conj().T).max() for rho in states))

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


def simulate(params, ladder, hamiltonians, initial, watch, t_max=None, dt=None,
             n_snapshots=0):
    """Integrate the master equation on ``ladder`` and return the trajectory.

    hamiltonians : the ladder's blocks, ``build_ladder_hamiltonian(params,
        ladder)``
    initial : normalized state vector over the ladder
    watch : mapping from column name to normalized state vector; populations
        of these states are recorded every step
    t_max : run length; defaults to 30 / |g_1|
    dt : output step, any that divides t_max into whole steps; defaults to
        the largest such step of the default grid (``_resolve_grid``)
    n_snapshots : how many evenly spaced density matrices the trajectory
        keeps as ``(t, rho)`` pairs (at most one per step; 0 keeps none)

    Its ``convergence_error`` is the kernel's a-priori truncation bound,
    summed over the run.
    """
    lowering = lowering_operator(ladder)
    exc = excitation_diagonal(ladder)

    psi = _unit_vector("initial state", initial, ladder.dim)
    names = tuple(watch)
    watch_vecs = np.zeros((len(names), ladder.dim), dtype=complex)
    for k, name in enumerate(names):
        watch_vecs[k] = _unit_vector(f"watch state {name!r}", watch[name], ladder.dim)

    dt, n_steps = _resolve_grid(params, hamiltonians, t_max, dt)
    n_snaps = min(n_snapshots, n_steps + 1)
    snap_steps = np.round(np.linspace(0, n_steps, n_snaps)).astype(np.int64)
    snap_steps = snap_steps[np.diff(snap_steps, prepend=-1) > 0]  # sorted: unique
    # |psi><psi| from psi = u + iv, exactly Hermitian as the kernel requires
    u, v = psi.real, psi.imag
    rho0 = np.outer(u, u) + np.outer(v, v) + 1j * (np.outer(v, u) - np.outer(u, v))
    try:
        pops, trace, excite, snap_mats, rho_f, fail, bound = kernels.evolve(
            [h.matrix for h in hamiltonians], lowering, params.kappa,
            rho0, dt, n_steps, watch_vecs, snap_steps, exc,
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
        excitation=excite,
        snapshots=tuple((float(s * dt), m) for s, m in zip(snap_steps, snap_mats)),
        final_state=rho_f,
        dt=dt,
        convergence_error=bound,
    )
