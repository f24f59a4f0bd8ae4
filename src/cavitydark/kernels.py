"""Fixed-step RK4 integration of the photon-loss master equation.

    drho/dt = G rho + rho G+ + kappa a rho a+,   G = -iH - (kappa/2) a+a

which is i[rho, H] + kappa/2 (2 a rho a+ - {a+a, rho}) regrouped.  Each
state has at most one source under a (|m, S> is lowered only from
|m + 1, S>), so a+a is the diagonal photon number, taken as the column sums
of |a|^2: the same floats as the product a+a, in O(d^2) instead of O(d^3).
The equation is linear and time-independent, so one classical RK4 step is a
fixed linear map P = sum_{k<=4} (dt L)^k / k! of the density matrix (L the
vectorised Liouvillian, as in QuTiP: Johansson, Nation & Nori, CPC 183, 1760
(2012)).

H conserves the excitation number and ``a`` lowers it by one, so every term
maps an entry between excitation blocks (n, n + delta) to entries with the
same offset delta: only the offsets present in rho0 can ever be non-zero.
Keeping just those entries is exact, also when rho0 mixes excitation numbers.
The reachable entries therefore form whole block pairs (n, m).  ``evolve``
packs them pair by pair, each pair a d_n x d_m matrix X_nm, and describes
the equation once, as a list of per-pair terms:

    drho_nm/dt = G_n X_nm + X_nm G_m+ + kappa a_{n,n+1} X_{n+1,m+1} a_{m,m+1}+

with G_n the diagonal blocks of G and a_{n,n+1} the lowering blocks.  Both
integration forms read that list; which one runs is chosen by the number of
reachable entries:

- up to ``PROPAGATOR_MAX_ENTRIES`` entries, dt L is assembled from Kronecker
  products of the pair blocks and P is built once; each step is then one
  matrix-vector product;
- above it, where a dense P costs more to build, per step and in memory than
  it saves, the four RK4 stages apply the pair terms as matrix products.
  With rho0 inside one block (delta = 0 only), a product over all pairs
  costs sum_n d_n^3 multiply-adds where a dense d x d product costs d^3: 85k
  against 373k on the N=6, n_max=3 ladder (blocks 1, 7, 22, 42).

Measured on one core (``OPENBLAS_NUM_THREADS=1``), from the last state of
the top block ("mixed": an equal superposition of the last state of every
block, so that every offset is present); P build includes the packing:

    ladder              entries  P build  P step   block-pair step
    N=4, n_max=2            147   4.2 ms   12 us   171 us
    N=16, n_max=1           290    23 ms   42 us   174 us
    N=4, n_max=3            372    38 ms   81 us   323 us
    N=3, n_max=3, mixed     400    45 ms  112 us   548 us
    N=5, n_max=2, mixed     529    96 ms  240 us   405 us
    N=6, n_max=2            534   100 ms  258 us   275 us
    N=7, n_max=2            906   432 ms  735 us   211 us
    N=6, n_max=3           2298        -        -  729 us

``simulate`` builds P twice (for dt and for the step-halving rerun at dt/2)
and takes three steps of the first run's count, so P pays for itself after
about 100 steps at 372 entries and 400 at 529; at 534, where both forms step
about as fast, only after thousands.

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

#: reachable-entry count up to which a precomputed propagator is used; the
#: propagator steps about 4x faster than the block-pair form at 372 entries
#: and about as fast, on top of its build, at 534 (table above)
PROPAGATOR_MAX_ENTRIES = 450

#: size of the buffers that iterates are handled in
CHUNK_BYTES = 1 << 16


def backend():
    """Integration backend, always "numpy"; read only by ``perfbench/run.py``."""
    return "numpy"


def _reachable_pairs(H, a_op, G, kappa, excitation, rho0):
    """Pack the entries rho can populate block pair by block pair.

    Returns their row and column indices and the pair list: per pair (n, m)
    its slice of the packed vector (X_nm, row-major), shape, G_n, G_m+ and,
    where pair (n + 1, m + 1) is reached, its kappa term (kappa a_{n,n+1},
    that pair's slice and shape, a_{m,m+1}+).  G is block-diagonal (H and a+a
    conserve the excitation number) and a maps block n + 1 to block n, so
    these are all the terms of drho_nm/dt (module docstring).
    """
    offset = excitation[None, :] - excitation[:, None]
    if np.any(H[offset != 0]) or np.any(a_op[offset != 1]):
        raise ValueError(
            "H must conserve the excitation number and a must lower it by one"
        )
    if np.any(np.count_nonzero(a_op, axis=1) > 1):
        raise ValueError("a must lower at most one state onto each state")
    levels, block = np.unique(excitation, return_inverse=True)
    index = [np.flatnonzero(block == b) for b in range(levels.size)]
    # the pairs (n, m), row-major, whose offset rho0 holds
    spread = np.abs(levels[None, :] - levels[:, None])
    reached = list(zip(*np.nonzero(np.isin(spread, np.abs(offset[rho0 != 0])))))
    ends = np.cumsum([0] + [index[n].size * index[m].size for n, m in reached])
    slices = {nm: slice(s, e) for nm, s, e in zip(reached, ends[:-1], ends[1:])}
    rows, cols = np.empty((2, ends[-1]), dtype=np.int64)
    G_blocks = [G[np.ix_(i, i)] for i in index]
    Gh_blocks = [np.ascontiguousarray(g.conj().T) for g in G_blocks]

    pairs = []
    for (n, m), sl in slices.items():
        rows[sl] = np.repeat(index[n], index[m].size)
        cols[sl] = np.tile(index[m], index[n].size)
        low = None
        # blocks n + 1 and m + 1 are the next levels up; where a level is
        # skipped, the lowering block is zero (checked above)
        q = (n + 1, m + 1)
        if kappa != 0.0 and q in slices:
            low = (
                kappa * a_op[np.ix_(index[n], index[q[0]])],
                slices[q],
                (index[q[0]].size, index[q[1]].size),
                np.ascontiguousarray(a_op[np.ix_(index[m], index[q[1]])].conj().T),
            )
        shape = (index[n].size, index[m].size)
        pairs.append((sl, shape, G_blocks[n], Gh_blocks[m], low))
    return rows, cols, pairs


def _propagator(pairs, size, dt):
    """RK4 propagator P = sum_{k<=4} (dt L)^k / k! on the ``size`` packed entries.

    dt L is assembled from the pair list.  For row-major vec,
    vec(A X B) = (A kron B^T) vec(X) (Van Loan, J. Comput. Appl. Math. 123,
    85 (2000)), so the block of pair (n, m) is G_n kron I + I kron (G_m+)^T,
    and the block feeding it from pair (n + 1, m + 1) is
    kappa a_{n,n+1} kron (a_{m,m+1}+)^T.
    """
    A = np.zeros((size, size), dtype=np.complex128)
    for sl, (dn, dm), Gn, Ghm, low in pairs:
        A[sl, sl] = np.kron(Gn, np.eye(dm)) + np.kron(np.eye(dn), Ghm.T)
        if low is not None:
            An, q_sl, _, Ah = low
            A[sl, q_sl] = np.kron(An, Ah.T)
    A *= dt
    # Horner form: I + A (I + A/2 (I + A/3 (I + A/4)))
    diag = np.arange(size)
    P = 0.25 * A
    P[diag, diag] += 1.0
    for c in (1.0 / 3.0, 0.5, 1.0):
        P = A @ P
        P *= c
        P[diag, diag] += 1.0
    return P


def _block_pair_step(pairs, size, dt):
    """RK4 step over the pair list: ``step(x, out)`` runs the four stages on
    the packed vector, each right-hand side a few products per pair."""

    def rhs(y, out):
        for sl, shape, Gn, Ghm, low in pairs:
            Y, O = y[sl].reshape(shape), out[sl].reshape(shape)
            np.matmul(Gn, Y, out=O)
            O += Y @ Ghm
            if low is not None:
                A, q_sl, q_shape, Ah = low
                O += A @ y[q_sl].reshape(q_shape) @ Ah

    k1, k2, k3, k4, y = (np.empty(size, dtype=np.complex128) for _ in range(5))

    def step(x, out):
        rhs(x, k1)
        for k_in, k_out, h in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
            np.multiply(k_in, h, out=y)
            np.add(y, x, out=y)
            rhs(y, k_out)
        # x + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.multiply(k2, 2.0, out=out)
        out += k1
        np.multiply(k3, 2.0, out=y)
        out += y
        out += k4
        out *= dt / 6.0
        out += x

    return step


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
    G = -1j * H
    G[np.diag_indices(d)] -= (0.5 * kappa) * (np.abs(a_op) ** 2).sum(axis=0)

    # a run that blows up is reported through fail_step, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols, pairs = _reachable_pairs(H, a_op, G, kappa, excitation, rho0)
        if rows.size <= PROPAGATOR_MAX_ENTRIES:
            P = _propagator(pairs, rows.size, dt)

            def step(x, out):
                np.matmul(P, x, out=out)
        else:
            step = _block_pair_step(pairs, rows.size, dt)

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
