"""Exact-to-rounding fixed-step integration of the photon-loss master equation.

    drho/dt = -i[H, rho] - (K rho + rho K) + kappa a rho a+,   K = (kappa/2) a+a

which is i[rho, H] + kappa/2 (2 a rho a+ - {a+a, rho}) regrouped.  H is real
symmetric and a real, so this is a real map on Hermitian matrices (Alicki &
Lendi, LNP 286 (1987)): ``evolve`` integrates one real matrix, S = A + B for
rho = A + iB (A symmetric, B antisymmetric),

    dS/dt = S^T H - H S^T - (K S + S K) + kappa a S a^T,

and rebuilds rho = (S + S^T)/2 + i (S - S^T)/2, exactly Hermitian, only for
the snapshots and the final state.  H and ``a`` come as the ladder's blocks:
H_n on each excitation block n, and the diagonal r_n of each lowering block
a_{n-1,n} = [diag(r_n) | 0], which maps the leading d_{n-1} states of block
n in order onto block n - 1.  One step is the fixed map exp(dt L) (L the
vectorised Liouvillian, as in QuTiP: Johansson, Nation & Nori, CPC 183, 1760
(2012)), applied as s sub-steps of its Taylor polynomial T_m of degree m,
with m and s read from a bound on ||dt L||_1 so that the truncation stays
below rounding (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)): any
dt is stable, and it sets only the output grid.

Every term maps an entry between excitation blocks (n, n + delta) to
entries with the same offset delta, so keeping just the offsets present in
rho0 is exact.  The reachable entries form whole block pairs (n, m), with
(m, n) reached alongside (n, m).  ``evolve`` packs them pair by pair, each a
d_n x d_m matrix S_nm, and describes the equation once, as per-pair terms
that read the partner P = S_mn:

    dS_nm/dt = (H_m P - P H_n)^T - (k_n[i] + k_m[j]) S_nm[i, j]
               + kappa a_{n,n+1} S_{n+1,m+1} a_{m,m+1}^T

with K = k_n = (kappa/2) r_n^2 on the leading states of block n, 0 on the
rest; the kappa term reads the leading d_n x d_m corner of S_{n+1,m+1} as
(kappa r_i S_ij) r_j.  The bound on ||L||_1 and ``_increment``, the one
Horner routine that applies T_m(h L) - I to packed vectors, read that list.
Which of two integration forms runs is set by the reachable-entry count:

- up to ``PROPAGATOR_MAX_ENTRIES``, the step increment E = T_m(dt L / s)^s -
  I is built once, as the increment of the identity's rows; each step is
  then x + E x, one matrix-vector product;
- above it, each step is s sub-steps x += inc(x).  With rho0 inside one
  block, a product over all pairs costs sum_n 2 d_n^3 multiply-adds where a
  dense one costs d^3: 170k against 373k on the N=6, n_max=3 ladder
  (blocks 1, 7, 22, 42).

Measured on one core (``OPENBLAS_NUM_THREADS=1``; g = 1, 0.8, 1.5, 1.2,
-0.7, 0.9, 1.1, -1.3, ... in turn, V = 0.5, kappa = 0.3) at the default dt,
with s = 1, from the last state of the top block ("mixed": equally from the
last state of every block, so every offset is present); E build includes the
packing and a block-pair step is m products; best of 5 runs:

    ladder               entries   m  E build  E step  block-pair step
    N=4, n_max=2             147  13     4 ms    4 us   325 us
    N=16, n_max=1            290  19    39 ms   12 us   323 us
    N=4, n_max=3             372  13    24 ms   17 us   514 us
    N=3, n_max=3, mixed      400  12    42 ms   20 us  1905 us
    N=5, n_max=2, mixed      529  13    45 ms   61 us   899 us
    N=6, n_max=2             534  14    44 ms   72 us   413 us
    N=7, n_max=2             906  15   190 ms  293 us   745 us
    N=6, n_max=3            2298  14        -       -   635 us

Below the switch E repays its build within 130 steps, at 529, 534 and 906
entries within 55, 130 and 420: the crossover lies between 534 and 906,
where no ladder was measured, so the switch stays at 450.
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


def _reachable_pairs(H_blocks, lowering, kappa, rho0):
    """Pack the entries S can populate block pair by block pair.

    Returns their row and column indices and the pair list: per pair (n, m)
    its slice of the packed vector (S_nm, row-major), its partner S_mn's
    slice, H_n, H_m, the rates k_n[i] + k_m[j] as a d_n x d_m matrix, the
    bound on the column sums of its own terms and, where pair (n + 1, m + 1)
    is reached, its kappa term (kappa r_{n+1} as a column, that pair's slice
    and shape, r_{m+1}): all the terms of dS_nm/dt (module docstring).  The
    blocks sit on the ladder in order, each after the ones below it.
    """
    sizes = [h.shape[0] for h in H_blocks]
    offsets = np.cumsum([0] + sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    # the pairs (n, m), row-major, whose offset |n - m| rho0 holds
    i, j = np.nonzero(rho0)
    held = set(np.abs(block[i] - block[j]).tolist())
    reached = [(n, m) for n in range(len(sizes)) for m in range(len(sizes))
               if abs(n - m) in held]
    ends = np.cumsum([0] + [sizes[n] * sizes[m] for n, m in reached])
    slices = {nm: slice(s, e) for nm, s, e in zip(reached, ends[:-1], ends[1:])}
    rows, cols = np.empty((2, ends[-1]), dtype=np.int64)
    # k_n = (kappa/2) r_n^2 on the leading states of block n; the largest
    # column and row sums of |H_n| + diag|k_n| (equal but for rounding)
    rates = [np.zeros(d) for d in sizes]
    for k, r in zip(rates[1:], lowering):
        k[: r.size] = (0.5 * kappa) * r**2
    absH = [np.abs(H) + np.diag(np.abs(k)) for H, k in zip(H_blocks, rates)]
    sums = [(A.sum(0).max(), A.sum(1).max()) for A in absH]

    pairs = []
    for (n, m), sl in slices.items():
        rows[sl] = np.repeat(np.arange(offsets[n], offsets[n + 1]), sizes[m])
        cols[sl] = np.tile(np.arange(offsets[m], offsets[m + 1]), sizes[n])
        low = None
        if kappa != 0.0 and (n + 1, m + 1) in slices:
            low = (kappa * lowering[n][:, None], slices[n + 1, m + 1],
                   (sizes[n + 1], sizes[m + 1]), lowering[m])
        pairs.append((sl, slices[m, n], H_blocks[n], H_blocks[m],
                      rates[n][:, None] + rates[m], sums[n][0] + sums[m][1], low))
    return rows, cols, pairs


def _taylor_degree(pairs, dt):
    """Taylor degree m, sub-step count s and truncation bound of one step.

    Entry (i, j) of S_nm feeds its partner through column i of H_n and row j
    of H_m, itself through k_n[i] + k_m[j], and pair (n - 1, m - 1) through
    |kappa| max r_n max r_m: so each pair's own bound plus the largest kappa
    factor bounds ||dt L||_1 / dt.  Of the (m, s) with ||dt L||_1 / s <=
    theta_m the cheapest, fewest m s, is taken; the bound is sum_{k>m} x^k /
    k! at x = ||dt L||_1 / s, each sub-step's truncation relative to its input.
    """
    own = max((c for *_, c, _ in pairs), default=0.0)
    fed = max((np.abs(low[0]).max() * low[3].max()
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
        """L y: per pair, two products with the partner's transpose, a scaling."""
        out = np.empty_like(y)
        lead = y.shape[:-1]
        for sl, partner, Hn, Hm, rates, _, low in pairs:
            Y = y[..., sl].reshape(*lead, *rates.shape)
            PT = y[..., partner].reshape(*lead, *rates.T.shape).swapaxes(-1, -2)
            O = out[..., sl].reshape(Y.shape)
            np.matmul(PT, Hm, out=O)
            O -= Hn @ PT
            O -= rates * Y
            if low is not None:
                kr, q_sl, q_shape, r = low
                Q = y[..., q_sl].reshape(*lead, *q_shape)
                O += kr * Q[..., : kr.size, : r.size] * r
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
    R1 = R = inc(np.eye(size))
    for _ in range(s - 1):
        R = R + R1 + inc(R)
    return R.T


def evolve(H_blocks, lowering, kappa, rho0, dt, n_steps, watch, snap_steps,
           excitation_diag):
    """Integrate rho0 over ``n_steps`` Taylor steps of size ``dt``.

    ``H_blocks`` are the ladder's excitation blocks H_n, real symmetric, in
    ladder order; ``lowering`` the float arrays r_n of the lowering blocks
    [diag(r_n) | 0], n = 1 up to the top block.  ``rho0`` (exactly
    Hermitian), ``watch`` (one state per row) and ``excitation_diag`` (the
    excitation number of each ladder index, whose expectation must never
    grow under photon loss) are over the whole ladder; ``snap_steps`` are
    the ascending steps whose full density matrix is returned.

    Returns per-step watch populations ``(n_steps + 1, n_watch)``, trace and
    excitation expectation, the snapshots, the final state, the first step
    whose state has a non-finite entry (-1 if none), and the a-priori
    truncation bound summed over every sub-step of the run.  After a failure
    the final state is that non-finite state and the per-step rows from the
    failed step on are NaN.
    """
    if any(np.iscomplexobj(H) or not np.array_equal(H, H.T) for H in H_blocks):
        raise ValueError("every H block must be real symmetric")
    rho0 = np.asarray(rho0)
    if not np.array_equal(rho0, rho0.conj().T):
        raise ValueError("rho0 must be exactly Hermitian")
    watch = np.asarray(watch)
    excitation = np.asarray(excitation_diag, dtype=np.float64)
    snap_steps = np.asarray(snap_steps, dtype=np.int64)
    kappa, dt, n_steps = float(kappa), float(dt), int(n_steps)

    # a run that blows up is reported through fail_step, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols, pairs = _reachable_pairs(H_blocks, lowering, kappa, rho0)
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

        return (*_run(step, rows, cols, rho0, n_steps, watch, snap_steps,
                      excitation), n_steps * s * bound)


def _run(step, rows, cols, rho0, n_steps, watch, snap_steps, excitation):
    """Iterate ``step`` on the entries of S over (rows, cols) in ``CHUNK_BYTES``
    chunks, renormalizing nothing: trace drift is an integrity metric."""
    n, d = rows.size, rho0.shape[0]
    # one product per chunk gives trace, excitation and watch populations; for
    # w = u + iv, <w|rho|w> = sum_ij (u_i u_j + v_i v_j - u_i v_j + v_i u_j) S_ij
    weights = np.empty((n, 2 + watch.shape[0]))
    weights[:, 0] = rows == cols
    weights[:, 1] = weights[:, 0] * excitation[rows]
    for k, w in enumerate(watch, 2):
        u, v = w.real, w.imag
        weights[:, k] = (u[rows] + v[rows]) * u[cols] + (v[rows] - u[rows]) * v[cols]

    pops = np.full((n_steps + 1, watch.shape[0]), np.nan)
    trace, excite = np.full((2, n_steps + 1), np.nan)
    mats = np.zeros((snap_steps.size + 1, d, d))  # the snapshots, then the final S

    def record(block, first):
        """Diagnostics of iterates ``first, first + 1, ...``; returns how many
        lead the first non-finite one."""
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        good = block[: bad[0]] if bad.size else block
        last = first + len(good)
        sums = good @ weights
        trace[first:last] = sums[:, 0]
        excite[first:last] = sums[:, 1]
        pops[first:last] = sums[:, 2:]
        lo, hi = np.searchsorted(snap_steps, (first, last))
        for p in range(lo, hi):
            mats[p][rows, cols] = good[snap_steps[p] - first]
        return len(good)

    chunk = max(1, CHUNK_BYTES // (8 * max(n, 1)))
    buf = np.empty((chunk + 1, n))
    buf[0] = rho0.real[rows, cols] + rho0.imag[rows, cols]
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

    mats[-1][rows, cols] = buf[0]
    T = mats.swapaxes(1, 2)
    rhos = 0.5 * (mats + T) + 0.5j * (mats - T)  # exactly Hermitian: + commutes
    return pops, trace, excite, rhos[:-1], rhos[-1], fail_step
