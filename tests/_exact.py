"""Exact dark count of a subspace Hamiltonian, for the tests: no eigensolver
and no tolerance.

A dark state is an eigenvector (0, x) of H = [[U, B], [B^T, L]] with no
photon-carrying amplitude, so B x = 0 and L x = lambda x.  Such x span the
largest L-invariant subspace inside ker B, the unobservable subspace of
(L, B) (Kalman 1963), whose dimension is

    d_lower - rank [B; B L; B L^2; ...].

Every float is a dyadic rational, so each block times a power of two is an
integer matrix, and scaling a block by a nonzero constant leaves that rank
alone.  The rank is taken modulo two primes below 2^26 in numpy int64: a
product of two residues stays below 2^52, and a row of up to 2^10 of them
sums below 2^62.  Rank modulo p never exceeds the rank over the rationals,
so the count is never too low, and two primes make an unlucky prime rare.

Uses the standard library and numpy alone; the package never imports it.
"""

import numpy as np

#: the two largest primes below 2^26
PRIMES = (67108859, 67108837)


def _integer_block(block):
    """``block`` times the least power of two that makes each entry an
    integer, as Python ints."""
    ratios = [float(x).as_integer_ratio() for x in np.ravel(block)]
    # every denominator is a power of two
    shift = max((d.bit_length() - 1 for _, d in ratios), default=0)
    ints = [n << (shift - (d.bit_length() - 1)) for n, d in ratios]
    return np.array(ints, dtype=object).reshape(np.shape(block))


def _krylov_rank(B, L, p):
    """Rank of [B; B L; B L^2; ...] modulo p, with B and L already reduced.

    The row space grows by the new rows' images under L until a step adds
    none; ``basis`` holds one row per pivot, monic and zero at every earlier
    pivot, in the order the pivots were found."""
    basis = []  # (pivot column, row)
    new = B
    while new.shape[0]:
        for col, row in basis:
            new = (new - np.outer(new[:, col], row)) % p
        added = []
        for i in range(new.shape[0]):
            nonzero = np.flatnonzero(new[i])
            if nonzero.size == 0:
                continue
            col = int(nonzero[0])
            row = new[i] * pow(int(new[i, col]), -1, p) % p
            new[i + 1:] = (new[i + 1:] - np.outer(new[i + 1:, col], row)) % p
            basis.append((col, row))
            added.append(row)
        new = np.array(added, dtype=np.int64).reshape(-1, L.shape[0]) @ L % p
    return len(basis)


def dark_count(ham):
    """Exact number of dark states of the subspace Hamiltonian ``ham``."""
    L, B = ham.lower_block, ham.coupling_block
    n = L.shape[0]
    assert n <= 2**10, "a row of residue products would overflow int64"
    iL, iB = _integer_block(L), _integer_block(B)
    rank = max(_krylov_rank((iB % p).astype(np.int64), (iL % p).astype(np.int64), p)
               for p in PRIMES)
    return n - rank
