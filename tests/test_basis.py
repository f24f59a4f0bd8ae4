"""Tests for subspace enumeration, ordering, and label round-trips."""

from math import comb

import numpy as np
import pytest

from cavitydark.basis import (
    MAX_ATOMS,
    MAX_LADDER_DIM,
    SubspaceBasis,
    enumerate_subspace,
    ladder_spaces,
    parse_label,
)


def test_two_atom_single_excitation_order():
    basis = enumerate_subspace(2, 1)
    assert basis.labels() == ["1,gg", "0,eg", "0,ge"]
    assert basis.n_upper == 1
    assert basis.n_lower == 2


def test_three_atom_double_excitation_order():
    basis = enumerate_subspace(3, 2)
    assert basis.labels() == [
        "2,ggg",
        "1,egg",
        "1,geg",
        "1,gge",
        "0,eeg",
        "0,ege",
        "0,gee",
    ]
    assert basis.labels().index("0,eeg") == 4


def test_four_atom_double_excitation_counts():
    basis = enumerate_subspace(4, 2)
    assert basis.dim == 11
    assert basis.n_upper == 5
    assert basis.n_lower == 6
    assert basis.labels()[:5] == ["2,gggg", "1,eggg", "1,gegg", "1,ggeg", "1,ggge"]
    assert basis.labels()[5:] == [
        "0,eegg",
        "0,egeg",
        "0,egge",
        "0,geeg",
        "0,gege",
        "0,ggee",
    ]


def test_pair_order_is_lexicographic_not_bitmask():
    # excited pair {1,4} has bitmask 9, pair {2,3} has bitmask 6; integer
    # order would swap them, index-tuple order (0,3) < (1,2) must not
    basis = enumerate_subspace(4, 2)
    labels = basis.labels()
    assert labels.index("0,egge") < labels.index("0,geeg")


def test_vacuum_subspace():
    basis = enumerate_subspace(3, 0)
    assert basis.labels() == ["0,ggg"]
    assert basis.n_upper == 0
    assert basis.n_lower == 1


@pytest.mark.parametrize("n_atoms", range(1, 9))
@pytest.mark.parametrize("excitation", range(0, 9))
def test_counts_and_split(n_atoms, excitation):
    basis = enumerate_subspace(n_atoms, excitation)
    expected = sum(comb(n_atoms, k) for k in range(min(excitation, n_atoms) + 1))
    assert basis.dim == expected
    if excitation < n_atoms:
        assert basis.n_upper == sum(comb(n_atoms, k) for k in range(excitation))
        assert basis.n_lower == comb(n_atoms, excitation)
    if excitation > n_atoms:
        assert basis.n_lower == 0
    if excitation == n_atoms:
        # the all-excited state is the single zero-photon member
        assert basis.n_lower == 1
    popcount = np.array([bin(mask).count("1") for mask in basis.masks.tolist()])
    assert (basis.photons + popcount == excitation).all()
    assert ((basis.photons > 0) == (np.arange(basis.dim) < basis.n_upper)).all()
    assert len(set(basis.masks.tolist())) == basis.dim


def test_ordering_invariant_photons_then_lex():
    basis = enumerate_subspace(5, 3)
    prev = None
    for m, mask in zip(basis.photons.tolist(), basis.masks.tolist()):
        key = (-m, tuple(j for j in range(5) if mask >> j & 1))
        if prev is not None:
            assert prev < key
        prev = key


def test_index_of_round_trips():
    ladder = ladder_spaces(4, 3)
    basis, offset = ladder.subspaces[3], ladder.offsets[3]
    for i, label in enumerate(basis.labels()):
        assert ladder.global_index_of_label(label) == offset + i


def test_index_of_rejects_foreign_state():
    # "0,ee" holds two excitations, outside a ladder that stops at one
    ladder = ladder_spaces(2, 1)
    with pytest.raises(ValueError, match="state 0,ee has excitation 2 > n_max=1"):
        ladder.global_index_of_label("0,ee")


def test_label_round_trip():
    assert parse_label("2,egeg") == (2, 0b0101, 4)
    basis = enumerate_subspace(4, 4)
    for label, m, mask in zip(basis.labels(), basis.photons.tolist(),
                              basis.masks.tolist()):
        assert parse_label(label) == (m, mask, 4)


@pytest.mark.parametrize("bad", ["", "1", "x,eg", "1,", "1,ex", "1,EG", "one,eg"])
def test_parse_label_rejects_malformed(bad):
    with pytest.raises(ValueError, match="malformed"):
        parse_label(bad)


def test_label_width_mismatch():
    ladder = ladder_spaces(3, 1)
    with pytest.raises(ValueError, match="describes 2 atoms, ladder has 3"):
        ladder.global_index_of_label("0,eg")


def test_basis_state_validation():
    with pytest.raises(ValueError, match="photon number must be >= 0, got -1"):
        parse_label("-1,eg")
    with pytest.raises(ValueError, match="state label must be a string"):
        parse_label(1)
    # an excited atom beyond the 16-atom bitmask
    with pytest.raises(ValueError, match="bitmask out of range: 65536"):
        parse_label("0," + "g" * MAX_ATOMS + "e")
    assert parse_label("0," + "g" * (MAX_ATOMS - 1) + "e") == (0, 1 << 15, MAX_ATOMS)


def test_enumerate_rejects_bad_sizes():
    with pytest.raises(ValueError, match="atoms"):
        enumerate_subspace(0, 1)
    with pytest.raises(ValueError, match="atoms"):
        enumerate_subspace(MAX_ATOMS + 1, 1)
    with pytest.raises(ValueError, match="excitation"):
        enumerate_subspace(2, -1)


# ------------------------------------------------------------- ladder


def test_ladder_dims_two_atoms():
    ladder = ladder_spaces(2, 1)
    assert [sub.dim for sub in ladder.subspaces] == [1, 3]
    assert ladder.dim == 4
    assert ladder.offsets == (0, 1, 4)


def test_ladder_dims_four_atoms():
    ladder = ladder_spaces(4, 2)
    assert [sub.dim for sub in ladder.subspaces] == [1, 5, 11]
    assert ladder.dim == 17


def test_ladder_vacuum_only():
    ladder = ladder_spaces(3, 0)
    assert [sub.dim for sub in ladder.subspaces] == [1]
    assert ladder.subspaces[0].labels() == ["0,ggg"]


def test_ladder_global_index_round_trip():
    ladder = ladder_spaces(3, 2)
    labels = [label for sub in ladder.subspaces for label in sub.labels()]
    assert [ladder.global_index_of_label(label) for label in labels] == list(
        range(ladder.dim)
    )
    assert ladder.global_index_of_label("0,ggg") == 0
    assert ladder.global_index_of_label("1,ggg") == 1
    with pytest.raises(ValueError, match="n_max"):
        ladder.global_index_of_label("3,ggg")


def test_ladder_labels_concatenate_subspaces():
    ladder = ladder_spaces(2, 2)
    assert [label for sub in ladder.subspaces for label in sub.labels()] == [
        "0,gg",
        "1,gg",
        "0,eg",
        "0,ge",
        "2,gg",
        "1,eg",
        "1,ge",
        "0,ee",
    ]


def test_ladder_rejects_negative_depth():
    with pytest.raises(ValueError, match="n_max"):
        ladder_spaces(2, -1)


def test_ladder_size_limit():
    # four atoms: excitations 0..3 hold 1 + 5 + 11 + 15 = 32 states, every
    # later one 2^4 = 16, so n_max = 129 reaches 2048 exactly
    assert ladder_spaces(4, 129).dim == MAX_LADDER_DIM == 2048
    with pytest.raises(ValueError, match="above the limit of 2048 states"):
        ladder_spaces(4, 130)
    with pytest.raises(ValueError, match="above the limit"):
        ladder_spaces(16, 10**308)


def test_label_letters_set_the_mask_bits():
    # atom j + 1 excited <-> bit j set; photons = excitation - popcount
    assert parse_label("0,gege") == (0, 0b1010, 4)
    basis = enumerate_subspace(4, 2)
    i = basis.labels().index("0,gege")
    assert basis.masks[i] == 0b1010 and basis.photons[i] == 0
    assert basis.labels()[basis.masks.tolist().index(0b0010)] == "1,gegg"


def test_random_subspace_membership_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_atoms = int(rng.integers(1, 7))
        excitation = int(rng.integers(0, 7))
        basis = enumerate_subspace(n_atoms, excitation)
        # brute force: every (photons, mask) pair with the right excitation
        seen = set(zip(basis.photons.tolist(), basis.masks.tolist()))
        expected = {
            (m, mask)
            for m in range(excitation + 1)
            for mask in range(1 << n_atoms)
            if m + bin(mask).count("1") == excitation
        }
        assert seen == expected


# ------------------------------------------------------ connection table


def test_table_arrays_are_read_only():
    basis = enumerate_subspace(4, 2)
    for name in ("masks", "photons", "hops", "absorptions"):
        arr = getattr(basis, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]


def test_table_leaves_equality_hash_and_repr_alone():
    # (N, n) fixes the states and their table, so they alone are compared
    basis = enumerate_subspace(3, 2)
    twin = SubspaceBasis(n_atoms=3, excitation=2)
    assert basis == twin and basis is not twin
    assert hash(basis) == hash(twin) == hash((3, 2))
    assert basis != enumerate_subspace(3, 1)
    assert repr(basis) == "SubspaceBasis(n_atoms=3, excitation=2)"
