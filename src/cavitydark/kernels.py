"""Exact-to-rounding fixed-step integration of the photon-loss master equation.

    drho/dt = G rho + rho G+ + kappa a rho a+,   G = -iH - (kappa/2) a+a

which is i[rho, H] + kappa/2 (2 a rho a+ - {a+a, rho}) regrouped.  Each
state has at most one source under a (|m, S> is lowered only from
|m + 1, S>), so a+a is the diagonal photon number, taken as the column sums
of |a|^2: the same floats as the product a+a, in O(d^2) instead of O(d^3).
The equation is linear and time-independent, so one step is the fixed map
exp(dt L) (L the vectorised Liouvillian, as in QuTiP: Johansson, Nation &
Nori, CPC 183, 1760 (2012)), applied as s sub-steps of its Taylor polynomial
T_m of degree m, with m and s read from a bound on ||dt L||_1 so that the
truncation stays below rounding (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011)): any dt is stable, and it sets only the output grid.

H conserves the excitation number and ``a`` lowers it by one, so every term
maps an entry between excitation blocks (n, n + delta) to entries with the
same offset delta: only the offsets present in rho0 can ever be non-zero.
Keeping just those entries is exact, also when rho0 mixes excitation numbers.
The reachable entries therefore form whole block pairs (n, m).  ``evolve``
packs them pair by pair, each pair a d_n x d_m matrix X_nm, and describes
the equation once, as a list of per-pair terms:

    drho_nm/dt = G_n X_nm + X_nm G_m+ + kappa a_{n,n+1} X_{n+1,m+1} a_{m,m+1}+

with G_n the diagonal blocks of G and a_{n,n+1} the lowering blocks.  The
bound on ||L||_1 and ``_increment``, the one Horner routine that applies
T_m(h L) - I to packed vectors, read that list.  Which of two integration
forms runs is chosen by the number of reachable entries:

- up to ``PROPAGATOR_MAX_ENTRIES`` entries, the step increment
  E = T_m(dt L / s)^s - I is built once, as the increment of the identity's
  rows; each step is then x + E x, one matrix-vector product;
- above it, where a dense E costs more to build, per step and in memory
  than it saves, each step is s sub-steps x += inc(x).
  With rho0 inside one block (delta = 0 only), a product over all pairs
  costs sum_n d_n^3 multiply-adds where a dense d x d product costs d^3: 85k
  against 373k on the N=6, n_max=3 ladder (blocks 1, 7, 22, 42).

Measured on one core (``OPENBLAS_NUM_THREADS=1``) at the default dt, with
s = 1, from the last state of the top block ("mixed": an equal superposition
of the last state of every block, so that every offset is present); E build
includes the packing, and a block-pair step is m products:

    ladder               entries   m  E build  E step  block-pair step
    N=4, n_max=2             147  13    12 ms    8 us   361 us
    N=16, n_max=1            290  19    52 ms   27 us   385 us
    N=4, n_max=3             372  13    64 ms   60 us   538 us
    N=3, n_max=3, mixed      400  12    79 ms   83 us  1393 us
    N=5, n_max=2, mixed      529  13   112 ms  187 us   843 us
    N=6, n_max=2             534  14   155 ms  186 us   483 us
    N=7, n_max=2             906  15   472 ms  559 us   636 us
    N=6, n_max=3            2298  14        -       -  1340 us

Below the switch E repays its build within 150 steps; at 529, 534 and 906
entries within 170, 520 and 6000 (there both forms step about as fast).

Iterates are buffered in chunks of about ``CHUNK_BYTES``; per chunk, from the
real iterates, the kernel records the trace, the worst Hermiticity defect,
the excitation expectation and the watch-state populations of every step,
copies out requested snapshots, and finds the first non-finite step.  Nothing
is renormalized along the way: trace and Hermiticity drift are integrity
metrics, so the integrator must not paper over them.
"""

from __future__ import annotations

from math import ceil, factorial

import numpy as np

__all__ = ["PROPAGATOR_MAX_ENTRIES", "evolve"]

#: reachable-entry count up to which a precomputed propagator is used
PROPAGATOR_MAX_ENTRIES = 450

#: theta_m, m = 1..30: the largest ||B||_1 at which T_m(B) is exp(B) to double
#: precision (Al-Mohy & Higham, Table 3.1); at 3.54 no term exceeds 7.4 ||x||
THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5e-2,
         8.96e-2, 0.144, 0.214, 0.3, 0.4, 0.514, 0.641, 0.781, 0.931, 1.09,
         1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54)

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


def _taylor_degree(pairs, dt):
    """Taylor degree m, sub-step count s and truncation bound of one step.

    As vec(A X B) = (A kron B^T) vec(X) for row-major vec, a column of L in
    pair (n, m) holds one of G_n kron I + I kron (G_m+)^T and one of the
    kappa term it feeds, and ||A kron B||_1 = ||A||_1 ||B||_1, which bounds
    ||dt L||_1.  Of the (m, s) with ||dt L||_1 / s <= theta_m the cheapest,
    fewest m s, is taken; the bound is sum_{k>m} x^k / k! at
    x = ||dt L||_1 / s, each sub-step's truncation relative to its input.
    """
    own = max((np.abs(Gn).sum(0).max() + np.abs(Ghm).sum(1).max()
               for _, _, Gn, Ghm, _ in pairs), default=0.0)
    fed = max((np.abs(low[0]).sum(0).max() * np.abs(low[3]).sum(1).max()
               for *_, low in pairs if low is not None), default=0.0)
    norm = dt * (own + fed)
    if not np.isfinite(norm):
        raise ValueError(f"the step's Liouvillian has norm {norm}")
    m, s = min(((m, max(1, ceil(norm / t))) for m, t in enumerate(THETA, 1)),
               key=lambda ms: ms[0] * ms[1])
    x = norm / s
    return m, s, x ** (m + 1) / factorial(m + 1) / (1.0 - x / (m + 2))


def _increment(pairs, h, m):
    """``inc(y)`` = (T_m(h L) - I) y for the packed vector y, or for packed
    vectors stacked as the rows of y, by Horner's rule
    h L (y + h L / 2 (y + ... (y + h L / m y))).  The outermost I is left
    out, so the increment never rounds against 1.  As rows, a lone vector's
    pair blocks are plain d_n x d_m matrices: one BLAS call per term.
    """

    def product(y):
        """L y, a few matrix products per pair (module docstring)."""
        out = np.empty_like(y)
        for sl, shape, Gn, Ghm, low in pairs:
            Y = y[..., sl].reshape(*y.shape[:-1], *shape)
            O = out[..., sl].reshape(Y.shape)
            np.matmul(Gn, Y, out=O)
            O += Y @ Ghm
            if low is not None:
                A, q_sl, q_shape, Ah = low
                O += A @ y[..., q_sl].reshape(*y.shape[:-1], *q_shape) @ Ah
        return out

    def inc(y):
        w = product(y)
        w *= h / m
        for k in range(m - 1, 0, -1):
            w += y
            w = product(w)
            w *= h / k
        return w

    return inc


def _propagator(inc, size, s):
    """Step increment E = T_m(h L)^s - I on the ``size`` packed entries; a
    step is x + E x, since I + E would round E's diagonal against 1.  ``inc``
    of the identity's rows is E^T, and with R_k = E_k^T the product
    E_{k+1} = (I + E_1)(I + E_k) - I reads R_{k+1} = R_k + R_1 + inc(R_k).
    """
    R1 = R = inc(np.eye(size, dtype=np.complex128))
    for _ in range(s - 1):
        R = R + R1 + inc(R)
    return R.T


def evolve(H, a_op, kappa, rho0, dt, n_steps, watch, snap_steps,
           excitation_diag):
    """Integrate rho0 over ``n_steps`` Taylor steps of size ``dt``.

    ``watch`` holds one state vector per row; ``snap_steps`` the ascending
    steps whose full density matrix is returned; ``excitation_diag`` the
    conserved excitation number of each basis index, whose expectation value
    is recorded every step (it must never grow under pure photon loss).

    Returns per-step watch populations ``(n_steps + 1, n_watch)``, trace,
    Hermiticity defect max|rho - rho+| and excitation expectation, the
    snapshots, the final state, the first step whose state has a non-finite
    entry (-1 if none), and the a-priori truncation bound summed over every
    sub-step of the run.  After a failure the final state is that non-finite
    state and the per-step rows from the failed step on are NaN.
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
        m, s, bound = _taylor_degree(pairs, dt)
        inc = _increment(pairs, dt / s, m)
        if rows.size <= PROPAGATOR_MAX_ENTRIES:
            E = _propagator(inc, rows.size, s)

            def step(x, out):
                np.matmul(E, x, out=out)
                out += x
        else:
            def step(x, out):  # s sub-steps over the pair terms
                out[:] = x
                for _ in range(s):
                    out += inc(out)

        return (*_run(step, rows, cols, d, rho0, n_steps, watch, snap_steps,
                      excitation), n_steps * s * bound)


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
