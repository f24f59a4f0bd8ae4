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
from .basis import ladder_spaces
from .hamiltonian import build_hamiltonian

__all__ = [
    "IntegrationError",
    "DensityMatrix",
    "SimulationConfig",
    "Trajectory",
    "build_ladder_hamiltonian",
    "lowering_operator",
    "excitation_diagonal",
    "population",
    "stability_bound",
    "simulate",
]

#: dt * max(kappa, max|H_ij|) of the default grid
STABILITY_LIMIT = 0.05

#: a run keeps a record of every step; 10**7 is 50 times the longest preset
MAX_STEPS = 10**7


class IntegrationError(RuntimeError):
    """Raised when the integrator produces non-finite entries or its kernel
    raises."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


def build_ladder_hamiltonian(params, ladder):
    """Block-diagonal Hamiltonian over the excitation ladder."""
    H = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    for n, sub in enumerate(ladder.subspaces):
        lo, hi = ladder.offsets[n], ladder.offsets[n + 1]
        H[lo:hi, lo:hi] = build_hamiltonian(params, basis=sub).matrix
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


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix bound to its excitation ladder, with integrity probes."""

    ladder: object
    matrix: np.ndarray = field(repr=False)

    @classmethod
    def from_pure(cls, ladder, psi, norm_tol=1e-12):
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != (ladder.dim,):
            raise ValueError(
                f"state vector has shape {psi.shape}, ladder dimension is {ladder.dim}"
            )
        nrm = np.linalg.norm(psi)
        if abs(nrm - 1.0) > norm_tol:
            raise ValueError(f"initial state is not normalized: |psi| = {nrm!r}")
        return cls(ladder=ladder, matrix=np.outer(psi, psi.conj()))

    def trace(self):
        return float(np.real(np.trace(self.matrix)))

    def hermiticity_defect(self):
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def min_eigenvalue(self):
        sym = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(sym)[0])


def population(rho, psi, norm_tol=1e-10):
    """<psi| rho |psi> for a normalized pure state against a density matrix.

    The result must come out real (imaginary part below 1e-12); values in
    [-1e-9, 0) are clipped to zero, anything lower is an error.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"population requires a normalized state, |psi| = {nrm!r}")
    val = complex(psi.conj() @ mat @ psi)
    if abs(val.imag) > 1e-12:
        raise ValueError(f"population has non-real value {val!r}")
    p = val.real
    if p < -1e-9:
        raise ValueError(f"population {p!r} below -1e-9; state is not positive")
    return 0.0 if p < 0.0 else p


def stability_bound(params, H):
    """Step of the default grid, before it is shortened to divide t_max."""
    scale = max(params.kappa, float(np.abs(H).max()), 1e-12)
    return STABILITY_LIMIT / scale


@dataclass
class SimulationConfig:
    """Everything one dissipative run needs.

    initial : normalized state vector over the ladder (dimension must match
        ``ladder_spaces(params.n_atoms, n_max)``)
    watch : mapping from column name to normalized state vector; populations
        of these states are recorded every step
    t_max : run length; defaults to 30 / |g_1|
    dt : output step, any that divides t_max into whole steps; defaults to
        the largest such step of at most ``stability_bound``
    n_snapshots : how many evenly spaced full density matrices the trajectory
        keeps (at most one per step; 0 keeps none)
    """

    params: object
    n_max: int
    initial: np.ndarray
    watch: dict
    t_max: float = None
    dt: float = None
    n_snapshots: int = 13

    def resolved_t_max(self):
        if self.t_max is not None:
            return float(self.t_max)
        g1 = abs(self.params.g[0])
        if g1 == 0.0:
            raise ValueError("t_max default needs g[0] != 0; pass t_max explicitly")
        return 30.0 / g1


def _resolve_grid(config, H):
    t_max = config.resolved_t_max()
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    bound = stability_bound(config.params, H)
    dt = bound if config.dt is None else float(config.dt)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # a longer dt takes Taylor sub-steps of about the default step's cost
    steps = t_max / min(dt, bound)
    if not steps <= MAX_STEPS:  # also catches inf and NaN
        raise ValueError(
            f"the run needs {steps:.3g} steps, more than the {MAX_STEPS} "
            f"allowed; shorten t_max"
        )
    if config.dt is None:
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
    final_state: DensityMatrix = field(repr=False)
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

    def population(self, name):
        return self.populations[name]

    def initial_populations(self):
        return {name: float(p[0]) for name, p in self.populations.items()}

    def final_populations(self):
        return {name: float(p[-1]) for name, p in self.populations.items()}

    def to_csv(self, path_or_file):
        """Write ``t, <watch name>...`` rows at full double precision."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", *self.names])
        cols = [self.populations[name] for name in self.names]
        for i, t in enumerate(self.times):
            writer.writerow(
                [repr(float(t)), *(repr(float(c[i])) for c in cols)]
            )


def simulate(config):
    """Integrate the master equation and return the trajectory.

    Its ``convergence_error`` is the kernel's a-priori truncation bound,
    summed over the run.
    """
    params = config.params
    ladder = ladder_spaces(params.n_atoms, config.n_max)
    H = build_ladder_hamiltonian(params, ladder)
    a_op = lowering_operator(ladder)
    exc = excitation_diagonal(ladder)

    rho0 = DensityMatrix.from_pure(ladder, config.initial)
    names = tuple(config.watch)
    if len(names) != len(set(names)):
        raise ValueError("watch names must be unique")
    watch = np.zeros((len(names), ladder.dim), dtype=complex)
    for k, name in enumerate(names):
        vec = np.asarray(config.watch[name], dtype=complex)
        if vec.shape != (ladder.dim,):
            raise ValueError(
                f"watch state {name!r} has shape {vec.shape}, expected ({ladder.dim},)"
            )
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"watch state {name!r} is not normalized: |psi| = {nrm!r}")
        watch[k] = vec

    dt, n_steps = _resolve_grid(config, H)
    n_snaps = min(config.n_snapshots, n_steps + 1)
    snap_steps = np.round(np.linspace(0, n_steps, n_snaps)).astype(np.int64)
    snap_steps = snap_steps[np.diff(snap_steps, prepend=-1) > 0]  # sorted: unique
    try:
        pops, trace, herm, excite, snap_mats, rho_f, fail, bound = kernels.evolve(
            H, a_op, params.kappa, rho0.matrix, dt, n_steps, watch, snap_steps,
            exc,
        )
    except ValueError as err:
        # the inputs are checked above: what is left is a numerical fault
        raise IntegrationError(f"the kernel failed: {err}") from err
    if fail >= 0:
        raise IntegrationError(
            f"non-finite density matrix at step {fail} (t = {fail * dt!r})",
            step=fail,
            time=fail * dt,
        )

    times = np.arange(n_steps + 1) * dt
    snapshots = tuple(
        (float(s * dt), DensityMatrix(ladder=ladder, matrix=m))
        for s, m in zip(snap_steps, snap_mats)
    )
    return Trajectory(
        times=times,
        names=names,
        populations={name: pops[:, k].copy() for k, name in enumerate(names)},
        trace=trace,
        hermiticity=herm,
        excitation=excite,
        snapshots=snapshots,
        final_state=DensityMatrix(ladder=ladder, matrix=rho_f),
        dt=dt,
        convergence_error=bound,
    )
