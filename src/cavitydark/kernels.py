"""Fixed-step RK4 integration of the photon-loss master equation.

    drho/dt = G rho + rho G+ + kappa a rho a+,   G = -iH - (kappa/2) a+a

which is i[rho, H] + kappa/2 (2 a rho a+ - {a+a, rho}) regrouped.  The
equation is linear and time-independent, so one classical RK4 step is a fixed
linear map P = sum_{k<=4} (dt L)^k / k! of the density matrix (L the
vectorised Liouvillian, as in QuTiP: Johansson, Nation & Nori, CPC 183, 1760
(2012)).  ``evolve`` applies it in one of two forms, chosen by
the number of density-matrix entries the dynamics can reach:

- up to ``PROPAGATOR_MAX_ENTRIES`` entries, P is built once on those entries
  from the columns of L, the right-hand side applied to the unit matrix of
  each entry; each step is then one matrix-vector product;
- above it, where a dense P costs more per step and in memory than it saves,
  the four RK4 stages run on the density matrix every step.

H conserves the excitation number and ``a`` lowers it by one, so every term
maps an entry between excitation blocks (n, n + delta) to entries with the
same offset delta: only the offsets present in rho0 can ever be non-zero.
Keeping just those entries is exact, also when rho0 mixes excitation numbers.

Iterates are buffered in chunks of about ``CHUNK_BYTES``; per chunk, from the
real iterates, the kernel records the trace, the worst Hermiticity defect,
the excitation expectation and the watch-state populations of every step,
copies out requested snapshots, and finds the first non-finite step.  Nothing
is renormalized along the way: trace and Hermiticity drift are integrity
metrics, so the integrator must not paper over them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PROPAGATOR_MAX_ENTRIES", "evolve"]

#: reachable-entry count up to which a precomputed propagator is used.  On
#: one core the propagator steps 2.3x faster than the matrix form at 372
#: entries (N=4, n_max=3) and 1.7x slower at 534 (N=6, n_max=2).
PROPAGATOR_MAX_ENTRIES = 450

#: size of the buffers that iterates and columns of L are handled in
CHUNK_BYTES = 1 << 16


def backend():
    """Integration backend, always "numpy"; read only by ``perfbench/run.py``."""
    return "numpy"


def _rk4_step(rho, G, Gh, a_op, ad_op, kappa, dt):
    """One classical RK4 step of the density matrix ``rho``."""

    def rhs(r):
        out = G @ r + r @ Gh
        if kappa != 0.0:
            out += kappa * (a_op @ r @ ad_op)
        return out

    k1 = rhs(rho)
    k2 = rhs(rho + (0.5 * dt) * k1)
    k3 = rhs(rho + (0.5 * dt) * k2)
    k4 = rhs(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reachable_entries(H, a_op, excitation, rho0):
    """Row and column indices, row-major, of the entries rho can populate."""
    offset = excitation[None, :] - excitation[:, None]
    if np.any(H[offset != 0]) or np.any(a_op[offset != 1]):
        raise ValueError(
            "H must conserve the excitation number and a must lower it by one"
        )
    spread = np.abs(offset)
    return np.nonzero(np.isin(spread, spread[rho0 != 0]))


def _propagator(rows, cols, G, a_op, kappa, dt):
    """RK4 propagator P = sum_{k<=4} (dt L)^k / k! on the entries (rows, cols).

    Column k of L is the right-hand side applied to the unit matrix E_ij of
    entry k; read at entry (r, c) it is
    G[r, i] [c == j] + [r == i] conj(G[c, j]) + kappa a[r, i] conj(a[c, j]).
    """
    n = rows.size
    A = np.empty((n, n), dtype=np.complex128)
    g_rows, g_cols = G[rows], G[cols].conj()
    a_rows, a_cols = a_op[rows], a_op[cols].conj()
    batch = max(1, CHUNK_BYTES // (16 * max(n, 1)))
    for k0 in range(0, n, batch):
        i, j = rows[k0 : k0 + batch], cols[k0 : k0 + batch]
        A[:, k0 : k0 + batch] = (
            g_rows[:, i] * (cols[:, None] == j)
            + (rows[:, None] == i) * g_cols[:, j]
            + kappa * (a_rows[:, i] * a_cols[:, j])
        )
    A *= dt
    # Horner form: I + A (I + A/2 (I + A/3 (I + A/4)))
    diag = np.arange(n)
    P = 0.25 * A
    P[diag, diag] += 1.0
    for c in (1.0 / 3.0, 0.5, 1.0):
        P = A @ P
        P *= c
        P[diag, diag] += 1.0
    return P


def evolve(H, a_op, kappa, rho0, dt, n_steps, watch, snap_steps,
           excitation_diag):
    """Integrate rho0 over ``n_steps`` RK4 steps of size ``dt``.

    ``watch`` holds one state vector per row; ``snap_steps`` the ascending
    steps whose full density matrix is returned; ``excitation_diag`` the
    conserved excitation number of each basis index, whose expectation value
    is recorded every step (it must never grow under pure photon loss).

    Returns per-step watch populations ``(n_steps + 1, n_watch)``, trace,
    Hermiticity defect max|rho - rho+| and excitation expectation, the
    snapshots, the final state, and the first step whose state has a
    non-finite entry (-1 if none).  After a failure the final state is that
    non-finite state and the per-step rows from the failed step on are NaN.
    """
    H = np.asarray(H, dtype=np.complex128)
    a_op = np.asarray(a_op, dtype=np.complex128)
    rho0 = np.asarray(rho0, dtype=np.complex128)
    watch = np.asarray(watch, dtype=np.complex128)
    excitation = np.asarray(excitation_diag, dtype=np.float64)
    snap_steps = np.asarray(snap_steps, dtype=np.int64)
    kappa, dt, n_steps = float(kappa), float(dt), int(n_steps)
    d = H.shape[0]

    ad_op = a_op.conj().T
    G = -1j * H - (0.5 * kappa) * (ad_op @ a_op)
    Gh = G.conj().T

    rows, cols = _reachable_entries(H, a_op, excitation, rho0)
    # a run that blows up is reported through fail_step, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if rows.size <= PROPAGATOR_MAX_ENTRIES:
            P = _propagator(rows, cols, G, a_op, kappa, dt)

            def step(x, out):
                np.matmul(P, x, out=out)
        else:

            def step(x, out):
                rho = np.zeros((d, d), dtype=np.complex128)
                rho[rows, cols] = x
                out[:] = _rk4_step(rho, G, Gh, a_op, ad_op, kappa, dt)[rows, cols]

        return _run(step, rows, cols, d, rho0, n_steps, watch, snap_steps,
                    excitation)


def _run(step, rows, cols, d, rho0, n_steps, watch, snap_steps, excitation):
    """Iterate ``step`` on the entry vector over (rows, cols), in chunks."""
    n = rows.size
    # one product per chunk gives trace, excitation and watch populations
    weights = np.empty((n, 2 + watch.shape[0]), dtype=np.complex128)
    weights[:, 0] = rows == cols
    weights[:, 1] = weights[:, 0] * excitation[rows]
    weights[:, 2:] = (watch[:, rows].conj() * watch[:, cols]).T
    # the entry set is closed under transposition: pair (i, j) with (j, i)
    position = np.zeros((d, d), dtype=np.int64)
    position[rows, cols] = np.arange(n)
    upper = np.flatnonzero(rows <= cols)
    mirror = position[cols[upper], rows[upper]]

    pops = np.full((n_steps + 1, watch.shape[0]), np.nan)
    trace, herm, excite = (np.full(n_steps + 1, np.nan) for _ in range(3))
    snaps = np.zeros((snap_steps.size, d, d), dtype=np.complex128)

    def record(block, first):
        """Diagnostics of iterates ``first, first + 1, ...``; returns how many
        lead the first non-finite one."""
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        good = block[: bad[0]] if bad.size else block
        last = first + len(good)
        sums = (good @ weights).real
        trace[first:last] = sums[:, 0]
        excite[first:last] = sums[:, 1]
        pops[first:last] = sums[:, 2:]
        herm[first:last] = np.abs(good[:, upper] - good[:, mirror].conj()).max(
            axis=1, initial=0.0
        )
        lo, hi = np.searchsorted(snap_steps, (first, last))
        for p in range(lo, hi):
            snaps[p][rows, cols] = good[snap_steps[p] - first]
        return len(good)

    chunk = max(1, CHUNK_BYTES // (16 * max(n, 1)))
    buf = np.empty((chunk + 1, n), dtype=np.complex128)
    buf[0] = rho0[rows, cols]
    fail_step = -1 if record(buf[:1], 0) else 0
    done = 0
    while fail_step < 0 and done < n_steps:
        m = min(chunk, n_steps - done)
        for r in range(1, m + 1):
            step(buf[r - 1], buf[r])
        good = record(buf[1 : m + 1], done + 1)
        if good < m:
            fail_step = done + 1 + good
            buf[0] = buf[1 + good]
        else:
            done += m
            buf[0] = buf[m]

    rho = np.zeros((d, d), dtype=np.complex128)
    rho[rows, cols] = buf[0]
    return pops, trace, herm, excite, snaps, rho, fail_step
