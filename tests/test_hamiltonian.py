"""Hamiltonian assembly tests against hand-transcribed reference matrices and
against the element rules evaluated pair by pair."""

from math import sqrt

import numpy as np
import pytest

import _matrices as ref
from cavitydark.basis import BasisState, enumerate_subspace, ladder_spaces
from cavitydark.dynamics import build_ladder_hamiltonian, lowering_operator
from cavitydark.hamiltonian import SystemParams, build_hamiltonian, uniform_dipole_matrix

ATOL = 1e-12


def matrix_element(params, bra, ket):
    """<bra| H |ket> from the element rules; states need not share a subspace
    (elements between different excitation numbers are exactly zero)."""
    N = params.n_atoms
    if bra == ket:
        k = bra.n_excited
        return params.delta_a * (2 * k - N) / 2.0
    if bra.photons == ket.photons:
        moved = bra.excited ^ ket.excited
        if bin(moved).count("1") == 2 and bin(bra.excited).count("1") == bin(
            ket.excited
        ).count("1"):
            j = (moved & bra.excited).bit_length() - 1
            l = (moved & ket.excited).bit_length() - 1
            return params.V[j, l]
        return 0.0
    lo, hi = (bra, ket) if bra.photons < ket.photons else (ket, bra)
    if hi.photons == lo.photons + 1 and lo.excited & hi.excited == hi.excited:
        added = lo.excited ^ hi.excited
        if bin(added).count("1") == 1:
            return params.g[added.bit_length() - 1] * sqrt(hi.photons)
    return 0.0


def excitation_operator_check(params, n_max):
    """Largest :func:`matrix_element` between two states of different
    excitation number in the ladder 0..n_max, over *every* such pair.
    Exactly 0.0 for a conserving Hamiltonian."""
    ladder = ladder_spaces(params.n_atoms, n_max)
    states = [s for sub in ladder.subspaces for s in sub.states]
    leak = 0.0
    for a, sa in enumerate(states):
        for sb in states[a + 1 :]:
            if sa.excitation != sb.excitation:
                leak = max(leak, abs(matrix_element(params, sa, sb)))
    return leak


def uniform_hamiltonian(n_atoms, excitation, delta_a, g, v):
    return build_hamiltonian(uniform_params(n_atoms, delta_a, g, v),
                             enumerate_subspace(n_atoms, excitation))


def uniform_params(n_atoms, delta_a, g, v, **kw):
    return SystemParams(n_atoms=n_atoms, delta_a=delta_a, g=g, V=v, **kw)


def test_two_atom_single_excitation_matrix():
    delta_a, g1, g2, v = 0.7, 1.0, 0.8, 0.5
    ham = uniform_hamiltonian(2, 1, delta_a, [g1, g2], v)
    np.testing.assert_allclose(
        ham.matrix.real, ref.two_single(delta_a, g1, g2, v), atol=ATOL
    )
    assert np.abs(ham.matrix.imag).max() == 0.0


def test_three_atom_single_excitation_matrix():
    delta_a, g, v = -0.3, [1.0, 0.9, -1.9], 0.5
    ham = uniform_hamiltonian(3, 1, delta_a, g, v)
    np.testing.assert_allclose(ham.matrix.real, ref.three_single(delta_a, g, v), atol=ATOL)


def test_three_atom_double_excitation_matrix():
    delta_a, g, v = 0.4, [1.0, 0.9, -1.9], 0.5
    ham = uniform_hamiltonian(3, 2, delta_a, g, v)
    expected = ref.three_double(delta_a, g, v)
    np.testing.assert_allclose(ham.matrix.real, expected, atol=ATOL)
    # photon factor sqrt(2) on the two-photon row
    assert ham.matrix[0, 1].real == pytest.approx(np.sqrt(2.0) * g[0], abs=ATOL)


def test_four_atom_single_excitation_matrix():
    delta_a, g, v = 0.25, [1.0, 0.8, 1.5, 1.2], 0.5
    ham = uniform_hamiltonian(4, 1, delta_a, g, v)
    np.testing.assert_allclose(ham.matrix.real, ref.four_single(delta_a, g, v), atol=ATOL)


def test_four_atom_double_excitation_blocks():
    delta_a, g, v = 0.6, [1.0, 2.0, 2.0, -1.0], 0.5
    ham = uniform_hamiltonian(4, 2, delta_a, g, v)
    upper, coupling, lower = ref.four_double_blocks(delta_a, g, v)
    np.testing.assert_allclose(ham.upper_block.real, upper, atol=ATOL)
    np.testing.assert_allclose(ham.coupling_block.real, coupling, atol=ATOL)
    np.testing.assert_allclose(ham.lower_block.real, lower, atol=ATOL)


def test_four_atom_triple_excitation_blocks():
    delta_a, g, v = -0.45, [1.0, 0.8, 1.5, 1.2], 0.5
    ham = uniform_hamiltonian(4, 3, delta_a, g, v)
    coupling, lower = ref.four_triple_blocks(delta_a, g, v)
    assert ham.basis.n_upper == 11
    assert ham.basis.n_lower == 4
    np.testing.assert_allclose(ham.coupling_block.real, coupling, atol=ATOL)
    np.testing.assert_allclose(ham.lower_block.real, lower, atol=ATOL)


def test_zero_parameters_give_zero_matrix():
    ham = uniform_hamiltonian(3, 2, 0.0, [0.0, 0.0, 0.0], 0.0)
    assert np.abs(ham.matrix).max() == 0.0


def test_blocks_partition_full_matrix():
    ham = uniform_hamiltonian(3, 2, 0.1, [1.0, 0.5, 0.2], 0.3)
    nu = ham.basis.n_upper
    np.testing.assert_array_equal(ham.upper_block, ham.matrix[:nu, :nu])
    np.testing.assert_array_equal(ham.coupling_block, ham.matrix[:nu, nu:])
    np.testing.assert_array_equal(ham.lower_block, ham.matrix[nu:, nu:])


def test_photon_factor_scales_with_sqrt_m():
    params = uniform_params(2, 0.0, [1.3, 0.4], 0.2)
    high = BasisState(photons=3, excited=0)
    low = BasisState(photons=2, excited=0b01)
    assert matrix_element(params, high, low) == pytest.approx(np.sqrt(3.0) * 1.3, abs=ATOL)
    assert matrix_element(params, low, high) == matrix_element(params, high, low)


def test_random_draws_real_symmetric():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n_atoms = int(rng.integers(2, 7))
        excitation = int(rng.integers(1, n_atoms + 1))
        V = rng.standard_normal((n_atoms, n_atoms))
        V = 0.5 * (V + V.T)
        np.fill_diagonal(V, 0.0)
        params = SystemParams(
            n_atoms=n_atoms,
            delta_a=float(rng.standard_normal()),
            g=rng.uniform(-2, 2, n_atoms),
            V=V,
        )
        ham = build_hamiltonian(params, enumerate_subspace(n_atoms, excitation))
        m = ham.matrix
        assert np.abs(m.imag).max() == 0.0
        assert np.abs(m - m.T.conj()).max() == 0.0


def test_no_elements_between_different_excitations():
    params = uniform_params(3, 0.8, [1.0, 0.7, -0.4], 0.5)
    states = []
    for n in range(4):
        states.extend(enumerate_subspace(3, n).states)
    for a in states:
        for b in states:
            if a.excitation != b.excitation:
                assert matrix_element(params, a, b) == 0.0


def test_excitation_operator_check_is_exactly_zero():
    params = uniform_params(4, 0.3, [1.0, 0.8, 1.5, 1.2], 0.5)
    assert excitation_operator_check(params, 3) == 0.0


# (N, n) cases for the bit-flip generator; (5, 7) has no zero-photon states.
GENERATOR_CASES = [(1, 1), (2, 2), (3, 1), (4, 2), (6, 3), (8, 4), (10, 3), (5, 7)]


def generator_params(n_atoms, seed):
    """Random couplings with V asymmetric by up to 1e-13, signed exact zeros
    in V and g, and a nonzero detuning from omega_a - omega_c."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_atoms, n_atoms))
    V = 0.5 * (a + a.T) + rng.uniform(-1e-13, 1e-13, (n_atoms, n_atoms))
    if n_atoms > 2:
        V[0, 2], V[2, 0] = -0.0, 0.0
    np.fill_diagonal(V, 0.0)
    g = rng.uniform(-2.0, 2.0, n_atoms)
    g[1:2] = -0.0
    return SystemParams(
        n_atoms=n_atoms, g=g, V=V, omega_a=float(rng.uniform(1, 2)), omega_c=0.4
    )


def pair_scan(params, basis):
    """Reference assembly: matrix_element on the diagonal and on every state
    pair above it, zeros skipped, the value mirrored below."""
    dim = basis.dim
    H = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        sa = basis.states[a]
        H[a, a] = matrix_element(params, sa, sa)
        for b in range(a + 1, dim):
            el = matrix_element(params, sa, basis.states[b])
            if el != 0.0:
                H[a, b] = el
                H[b, a] = el
    return H


def assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


@pytest.mark.parametrize("n_atoms, excitation", GENERATOR_CASES)
def test_generator_matches_pair_scan_bitwise(n_atoms, excitation):
    params = generator_params(n_atoms, seed=100 * n_atoms + excitation)
    if n_atoms > 1:
        assert np.abs(params.V - params.V.T).max() > 0.0
    assert params.delta_a != 0.0
    basis = enumerate_subspace(n_atoms, excitation)
    want = pair_scan(params, basis)
    # the build is float64: the reference's real part, bit for bit, and a
    # reference with no imaginary part at all (not even -0.0)
    assert not np.signbit(want.imag).any() and not want.imag.any()
    assert_bitwise_equal(
        build_hamiltonian(params, basis).matrix,
        np.ascontiguousarray(want.real),
    )


@pytest.mark.parametrize("n_atoms, n_max", GENERATOR_CASES)
def test_ladder_operators_match_pair_scan_bitwise(n_atoms, n_max):
    params = generator_params(n_atoms, seed=7 * n_atoms + n_max)
    ladder = ladder_spaces(n_atoms, n_max)
    H = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    for n, sub in enumerate(ladder.subspaces):
        lo, hi = ladder.offsets[n], ladder.offsets[n + 1]
        H[lo:hi, lo:hi] = pair_scan(params, sub)
    assert_bitwise_equal(build_ladder_hamiltonian(params, ladder), H)

    a = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    for col in range(ladder.dim):
        state = ladder.state_at(col)
        if state.photons:
            target = BasisState(photons=state.photons - 1, excited=state.excited)
            a[ladder.global_index(target), col] = sqrt(state.photons)
    assert_bitwise_equal(lowering_operator(ladder), a)


def test_build_requires_excitation_or_basis():
    # the subspace is given only as an enumerated basis, which the
    # Hamiltonian keeps
    params = uniform_params(2, 0.0, [1.0, 1.0], 0.5)
    with pytest.raises(TypeError):
        build_hamiltonian(params, excitation=1)
    basis = enumerate_subspace(2, 1)
    ham = build_hamiltonian(params, basis)
    assert ham.basis is basis


def test_uniform_dipole_matrix():
    V = uniform_dipole_matrix(3, 0.5)
    assert V.shape == (3, 3)
    assert np.all(np.diag(V) == 0.0)
    off = V[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.5)


# ------------------------------------------------- parameter validation


def test_params_scalar_v_promotes_to_matrix():
    params = uniform_params(3, 0.0, [1.0, 1.0, 1.0], 0.5)
    np.testing.assert_array_equal(params.V, uniform_dipole_matrix(3, 0.5))


def test_params_reject_asymmetric_v():
    V = np.zeros((2, 2))
    V[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        SystemParams(n_atoms=2, delta_a=0.0, g=[1, 1], V=V)


def test_params_reject_nonzero_diagonal_v():
    V = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="zero diagonal"):
        SystemParams(n_atoms=2, delta_a=0.0, g=[1, 1], V=V)


def test_params_reject_wrong_g_length():
    with pytest.raises(ValueError, match="g must have shape"):
        SystemParams(n_atoms=3, delta_a=0.0, g=[1.0, 1.0], V=0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["delta_a", "g", "V", "kappa"])
def test_params_reject_non_finite(field, value):
    kw = {"delta_a": 0.1, "g": [1.0, 0.9], "V": 0.5, "kappa": 0.2}
    kw[field] = [1.0, value] if field == "g" else value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SystemParams(n_atoms=2, **kw)


def test_params_reject_negative_kappa():
    with pytest.raises(ValueError, match="decay"):
        SystemParams(n_atoms=2, delta_a=0.0, g=[1, 1], V=0.5, kappa=-0.1)


def test_params_reject_lone_omega():
    with pytest.raises(ValueError, match="together"):
        SystemParams(n_atoms=2, delta_a=0.0, g=[1, 1], V=0.5, omega_a=5.0)


def test_params_reject_inconsistent_delta():
    with pytest.raises(ValueError, match="inconsistent"):
        SystemParams(
            n_atoms=2, delta_a=1.0, g=[1, 1], V=0.5, omega_a=5.0, omega_c=4.5
        )


def test_params_frequency_pair_derives_delta():
    params = SystemParams(n_atoms=2, g=[1, 1], V=0.5, omega_a=5.0, omega_c=4.5)
    assert params.delta_a == pytest.approx(0.5, abs=1e-15)


def test_params_to_dict_round_trip():
    params = uniform_params(2, 0.1, [1.0, 0.9], 0.5, kappa=0.3)
    d = params.to_dict()
    rebuilt = SystemParams(
        n_atoms=d["n_atoms"], delta_a=d["delta_a"], g=d["g"], V=np.asarray(d["V"]),
        kappa=d["kappa"],
    )
    np.testing.assert_array_equal(rebuilt.g, params.g)
    np.testing.assert_array_equal(rebuilt.V, params.V)
