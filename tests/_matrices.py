"""Independent references the package is checked against.

Hand-transcribed matrices for the uniform-interaction model: each function
writes out the full matrix (or its blocks) entry by entry, independently of
the package's element rules, so the builder can be checked against a second
route.  Basis order everywhere: photon number descending, then excited-atom
tuples lexicographic.

The arrowhead matrix assembled from an ``ArrowheadForm``, the projector
onto a span, and the closed-form single-excitation energies of a uniform
interaction.  Basis
states as (photons, excited-atom mask) pairs, and the photon annihilation
operator on the ladder, built state by state from
a|m, S> = sqrt(m)|m-1, S> and not from ``lowering_operator``.  The
master-equation right-hand side in commutator form, written independently
of the stepping kernel in ``cavitydark.kernels``, and the exact solution of
the master equation built from that right-hand side, both on the dense
ladder H that ``ladder_matrices`` assembles from the package's blocks and
that reference a.
"""

from math import sqrt

import numpy as np

R2 = np.sqrt(2.0)


def two_single(delta_a, g1, g2, v):
    """N=2, one excitation: |1,gg>, |0,eg>, |0,ge>."""
    return np.array(
        [
            [-delta_a, g1, g2],
            [g1, 0.0, v],
            [g2, v, 0.0],
        ]
    )


def three_single(delta_a, g, v):
    """N=3, one excitation: |1,ggg>, |0,egg>, |0,geg>, |0,gge>."""
    g1, g2, g3 = g
    d = -delta_a / 2.0
    return np.array(
        [
            [-3.0 * delta_a / 2.0, g1, g2, g3],
            [g1, d, v, v],
            [g2, v, d, v],
            [g3, v, v, d],
        ]
    )


def three_double(delta_a, g, v):
    """N=3, two excitations: |2,ggg>, |1,egg>, |1,geg>, |1,gge>,
    |0,eeg>, |0,ege>, |0,gee>."""
    g1, g2, g3 = g
    u = -delta_a / 2.0
    l = delta_a / 2.0
    return np.array(
        [
            [-3 * delta_a / 2, R2 * g1, R2 * g2, R2 * g3, 0.0, 0.0, 0.0],
            [R2 * g1, u, v, v, g2, g3, 0.0],
            [R2 * g2, v, u, v, g1, 0.0, g3],
            [R2 * g3, v, v, u, 0.0, g1, g2],
            [0.0, g2, g1, 0.0, l, v, v],
            [0.0, g3, 0.0, g1, v, l, v],
            [0.0, 0.0, g3, g2, v, v, l],
        ]
    )


def four_single(delta_a, g, v):
    """N=4, one excitation: |1,gggg> then |0,e...> singles."""
    g1, g2, g3, g4 = g
    d = -delta_a
    return np.array(
        [
            [-2.0 * delta_a, g1, g2, g3, g4],
            [g1, d, v, v, v],
            [g2, v, d, v, v],
            [g3, v, v, d, v],
            [g4, v, v, v, d],
        ]
    )


def four_double_blocks(delta_a, g, v):
    """N=4, two excitations: upper (5x5), coupling (5x6), lower (6x6).

    Lower order: |0,eegg>, |0,egeg>, |0,egge>, |0,geeg>, |0,gege>, |0,ggee>.
    """
    g1, g2, g3, g4 = g
    d = -delta_a
    upper = np.array(
        [
            [-2.0 * delta_a, R2 * g1, R2 * g2, R2 * g3, R2 * g4],
            [R2 * g1, d, v, v, v],
            [R2 * g2, v, d, v, v],
            [R2 * g3, v, v, d, v],
            [R2 * g4, v, v, v, d],
        ]
    )
    coupling = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [g2, g3, g4, 0.0, 0.0, 0.0],
            [g1, 0.0, 0.0, g3, g4, 0.0],
            [0.0, g1, 0.0, g2, 0.0, g4],
            [0.0, 0.0, g1, 0.0, g2, g3],
        ]
    )
    lower = np.array(
        [
            [0.0, v, v, v, v, 0.0],
            [v, 0.0, v, v, 0.0, v],
            [v, v, 0.0, 0.0, v, v],
            [v, v, 0.0, 0.0, v, v],
            [v, 0.0, v, v, 0.0, v],
            [0.0, v, v, v, v, 0.0],
        ]
    )
    return upper, coupling, lower


def four_triple_blocks(delta_a, g, v):
    """N=4, three excitations: coupling (11x4) and lower (4x4) blocks.

    Upper order: |3,gggg>, |2,e...> singles, |1,ee..> pairs (lex);
    lower order: |0,eeeg>, |0,eege>, |0,egee>, |0,geee>.
    """
    g1, g2, g3, g4 = g
    coupling = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [g3, g4, 0.0, 0.0],
            [g2, 0.0, g4, 0.0],
            [0.0, g2, g3, 0.0],
            [g1, 0.0, 0.0, g4],
            [0.0, g1, 0.0, g3],
            [0.0, 0.0, g1, g2],
        ]
    )
    lower = np.array(
        [
            [delta_a, v, v, v],
            [v, delta_a, v, v],
            [v, v, delta_a, v],
            [v, v, v, delta_a],
        ]
    )
    return coupling, lower


def states(*bases):
    """The (photons, excited-atom mask) pair of every state of ``bases``, in
    order."""
    return [(m, mask) for basis in bases
            for m, mask in zip(basis.photons.tolist(), basis.masks.tolist())]


def arrowhead_matrix(ham, arrow):
    """The arrowhead matrix of ``arrow``, unitarily equivalent to the
    subspace Hamiltonian ``ham``: its photon-carrying block unchanged, the
    dressed energies on the diagonal and the transformed couplings."""
    nu, nl = arrow.n_upper, arrow.n_lower
    H = np.zeros((nu + nl, nu + nl), dtype=arrow.couplings.dtype)
    H[:nu, :nu] = ham.matrix[:nu, :nu]
    H[:nu, nu:] = arrow.couplings
    H[nu:, :nu] = arrow.couplings.conj().T
    H[nu:, nu:] = np.diag(arrow.eigenvalues)
    return H


def projector(vectors):
    """Orthogonal projector onto the span of orthonormal columns, such as a
    dark-state report's vectors."""
    return vectors @ vectors.conj().T


def collective_eigenvalues(n_atoms, v_dd, delta_a=0.0):
    """Single-excitation dressed energies of a uniform interaction v_dd: the
    symmetric state's and that of the (N-1)-fold degenerate manifold."""
    base = -(n_atoms - 2) * delta_a / 2.0
    return base + (n_atoms - 1) * v_dd, base - v_dd


def lowering_matrix(ladder):
    """Dense photon annihilation operator on the ladder, one state at a
    time: each |m, S> with m > 0 goes to sqrt(m) |m-1, S>."""
    pairs = states(*ladder.subspaces)
    index = {pair: i for i, pair in enumerate(pairs)}
    a = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    for col, (m, mask) in enumerate(pairs):
        if m:
            a[index[m - 1, mask], col] = sqrt(m)
    return a


def ladder_matrices(params, ladder):
    """Dense ladder H, assembled from the package's subspace Hamiltonians,
    and the reference a of ``lowering_matrix``."""
    from cavitydark.dynamics import build_ladder_hamiltonian

    H = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    off = ladder.offsets
    for n, ham in enumerate(build_ladder_hamiltonian(params, ladder)):
        H[off[n] : off[n + 1], off[n] : off[n + 1]] = ham.matrix
    return H, lowering_matrix(ladder)


def liouvillian_apply(H, a_op, kappa, rho):
    """One evaluation of the master-equation right-hand side
    i [rho, H] + kappa/2 (2 a rho a+ - a+a rho - rho a+a)."""
    out = 1j * (rho @ H - H @ rho)
    if kappa != 0.0:
        ad = a_op.conj().T
        n_op = ad @ a_op
        out = out + kappa * (a_op @ rho @ ad) - 0.5 * kappa * (n_op @ rho + rho @ n_op)
    return out


def exact_populations(params, ladder, rho0, watch, times):
    """Watch populations <w| exp(t L) rho0 |w> of the exact master equation.

    L is the Liouvillian on the entries rho can reach: the entries between
    excitation blocks whose offset rho0 holds, which photon loss maps among
    themselves (checked here).  It is built column by column, applying
    ``liouvillian_apply`` to the unit matrix of each entry, and exponentiated
    with ``scipy.linalg.expm``.  Returns an array (len(times), len(watch)).
    """
    import scipy.linalg

    H, a = ladder_matrices(params, ladder)
    block = np.repeat(np.arange(len(ladder.subspaces)), np.diff(ladder.offsets))
    offset = np.abs(block[:, None] - block[None, :])
    keep = np.isin(offset, offset[rho0 != 0])
    rows, cols = np.nonzero(keep)
    L = np.empty((rows.size, rows.size), dtype=complex)
    for k, (i, j) in enumerate(zip(rows, cols)):
        unit = np.zeros((ladder.dim, ladder.dim), dtype=complex)
        unit[i, j] = 1.0
        column = liouvillian_apply(H, a, params.kappa, unit)
        assert not column[~keep].any(), "reachable entries are not invariant"
        L[:, k] = column[rows, cols]
    watch = np.asarray(watch, dtype=complex)
    out = np.empty((len(times), watch.shape[0]))
    for n, t in enumerate(times):
        rho = np.zeros((ladder.dim, ladder.dim), dtype=complex)
        rho[rows, cols] = scipy.linalg.expm(t * L) @ rho0[rows, cols]
        out[n] = np.einsum("wi,ij,wj->w", watch.conj(), rho, watch).real
    return out
