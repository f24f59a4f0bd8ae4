"""Unit tests for the shared dense linear-algebra helpers."""

import numpy as np
import pytest

from _matrices import liouvillian_apply, rk4_step
from cavitydark.linalg import HERMITICITY_TOL, eigh, fix_phases, rank_and_nullspace


def random_hermitian(n, rng, complex_valued=True):
    a = rng.standard_normal((n, n))
    if complex_valued:
        a = a + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------- eigh


def test_eigh_sorts_diagonal_matrix_ascending():
    dec = eigh(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=0)
    # eigenvectors are (signed) permutation columns
    np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-15)


def test_eigh_two_site_exchange_block():
    v = 0.5
    dec = eigh(np.array([[0.0, v], [v, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-v, v], atol=1e-15)
    s = 1.0 / np.sqrt(2.0)
    # phase convention: first sizeable entry of each column is positive
    np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, -s], atol=1e-15)
    np.testing.assert_allclose(dec.eigenvectors[:, 1], [s, s], atol=1e-15)


def test_eigh_reconstructs_random_hermitian():
    rng = np.random.default_rng(7)
    a = random_hermitian(6, rng)
    dec = eigh(a)
    recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
    scale = max(1.0, np.abs(a).max())
    assert np.abs(recon - a).max() <= 1e-10 * scale
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.abs(gram - np.eye(6)).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
def test_eigh_reconstruction_across_sizes(n):
    rng = np.random.default_rng(100 + n)
    a = random_hermitian(n, rng, complex_valued=(n % 2 == 0))
    dec = eigh(a)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    assert np.isrealobj(dec.eigenvalues)
    recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
    assert np.abs(recon - a).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_eigh_real_input_gives_real_vectors():
    rng = np.random.default_rng(3)
    a = random_hermitian(5, rng, complex_valued=False)
    dec = eigh(a)
    assert not np.iscomplexobj(dec.eigenvectors)


def test_eigh_rejects_non_hermitian_with_worst_offender():
    a = np.zeros((3, 3))
    a[0, 2] = 1e-6
    with pytest.raises(ValueError, match="not Hermitian") as err:
        eigh(a)
    assert "1e-06" in str(err.value).replace("1.000e-06", "1e-06")


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigh(np.zeros((2, 3)))


def test_eigh_tolerates_asymmetry_below_threshold():
    a = np.array([[0.0, 1.0], [1.0 + 0.5 * HERMITICITY_TOL, 0.0]])
    dec = eigh(a)
    assert dec.eigenvalues.shape == (2,)


def test_fix_phases_flips_negative_leading_entry():
    vecs = np.array([[-1.0, 0.0], [0.0, 2.0]])
    fixed = fix_phases(vecs)
    np.testing.assert_allclose(fixed, [[1.0, 0.0], [0.0, 2.0]], atol=0)


def test_fix_phases_rotates_complex_leading_entry_to_positive_real():
    col = np.array([1j, 1.0 + 0j])[:, None]
    fixed = fix_phases(col)
    assert fixed[0, 0].real > 0
    assert abs(fixed[0, 0].imag) < 1e-15


def test_fix_phases_skips_below_tolerance_entries():
    vecs = np.array([[1e-15], [-1.0]])
    fixed = fix_phases(vecs)
    # the tiny first entry is not a valid pivot; the second entry decides
    np.testing.assert_allclose(fixed[:, 0], [-1e-15, 1.0], atol=0)


def test_fix_phases_leaves_zero_column_alone():
    vecs = np.zeros((3, 1))
    np.testing.assert_allclose(fix_phases(vecs), vecs, atol=0)


def fix_phases_column_loop(vecs, tol=1e-12):
    """Reference: the phase convention applied one column at a time."""
    vecs = vecs.copy()
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size == 0:
            continue
        lead = col[nz[0]]
        if np.iscomplexobj(vecs):
            vecs[:, k] = col * (np.abs(lead) / lead)
        elif lead < 0:
            vecs[:, k] = -col
    return vecs


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("shape", [(7, 5), (40, 120), (6, 0), (0, 4)])
def test_fix_phases_matches_column_loop_bitwise(shape, complex_valued):
    rng = np.random.default_rng(sum(shape) + complex_valued)
    vecs = rng.standard_normal(shape)
    if complex_valued:
        vecs = vecs + 1j * rng.standard_normal(shape)
    if shape[0] >= 3 and shape[1] >= 3:
        vecs[:, 0] = 0.0  # zero column
        vecs[:, 1] *= 1e-13  # every entry below tolerance
        vecs[:2, 2] = [1e-14, -0.0]  # the lead sits below two skipped entries
    got = fix_phases(vecs)
    want = fix_phases_column_loop(vecs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------- rank_and_nullspace


def test_rank_zero_matrix():
    rank, null, _ = rank_and_nullspace(np.zeros((4, 2)))
    assert rank == 0
    assert null.shape == (2, 2)
    np.testing.assert_allclose(null.conj().T @ null, np.eye(2), atol=1e-12)


def test_rank_identical_columns():
    col = np.array([1.0, 2.0, -1.0])
    rank, null, _ = rank_and_nullspace(np.column_stack([col, col]))
    assert rank == 1
    assert null.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    overlap = abs(np.dot(expected, null[:, 0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_rank_of_structured_tall_coupling_block():
    # collective coupling columns of the four-atom, three-excitation problem
    # at g = (1, 0.8, 1.5, 1.2); generically independent
    g1, g2, g3, g4 = 1.0, 0.8, 1.5, 1.2
    r2, r6, r12 = np.sqrt(2.0), np.sqrt(6.0), 2.0 * np.sqrt(3.0)
    block = np.array(
        [
            [(-g3 + g4) / r2, (-g3 - g4) / r6, -(g3 + g4) / r12],
            [-g2 / r2, (-g2 + 2 * g4) / r6, -(g2 + g4) / r12],
            [g2 / r2, (-g2 + 2 * g3) / r6, -(g2 + g3) / r12],
            [-g1 / r2, -g1 / r6, (-g1 + 3 * g4) / r12],
            [g1 / r2, -g1 / r6, (-g1 + 3 * g3) / r12],
            [0.0, 2 * g1 / r6, (-g1 + 3 * g2) / r12],
        ]
    )
    full = np.vstack([np.zeros((5, 3)), block])
    oracle = np.linalg.matrix_rank(full)
    rank, null, _ = rank_and_nullspace(full)
    assert rank == oracle == 3
    assert null.shape == (3, 0)


def test_nullspace_vectors_annihilate_matrix():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows, cols, rank_true = rng.integers(1, 7), rng.integers(1, 7), 0
        rank_true = int(min(rows, cols, rng.integers(0, 5)))
        b = np.zeros((rows, cols), dtype=complex)
        for _ in range(rank_true):
            b += np.outer(
                rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                rng.standard_normal(cols),
            )
        rank, null, _ = rank_and_nullspace(b)
        assert rank + null.shape[1] == cols
        scale = max(np.abs(b).max(), 1.0)
        for k in range(null.shape[1]):
            assert np.abs(b @ null[:, k]).max() <= 1e-8 * scale
        if null.shape[1]:
            gram = null.conj().T @ null
            assert np.abs(gram - np.eye(null.shape[1])).max() <= 1e-10


def test_rank_returns_singular_values_and_skips_vectors_at_full_rank(monkeypatch):
    b = np.array([[3.0, 0.0], [0.0, 1e-12], [0.0, 0.0]])
    rank, null, s = rank_and_nullspace(b)
    np.testing.assert_array_equal(s, [3.0, 1e-12])
    assert rank == 1 and null.shape == (2, 1)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **k: calls.append(k) or svd(*a, **k)
    )
    rank, null, s = rank_and_nullspace(np.eye(3)[:, :2])
    assert rank == 2 and null.shape == (2, 0)
    assert calls == [{"compute_uv": False}]


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
def test_rank_rejects_out_of_range_tolerance(bad):
    with pytest.raises(ValueError, match="rel_tol"):
        rank_and_nullspace(np.eye(2), rel_tol=bad)


def test_rank_empty_matrix():
    rank, null, _ = rank_and_nullspace(np.zeros((0, 3)))
    assert rank == 0
    assert null.shape == (3, 3)


# ---------------------------------------- rk4_step (reference in _matrices)


def test_rk4_zero_derivative_is_identity():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = rk4_step(lambda m: np.zeros_like(m), y, 0.1)
    np.testing.assert_allclose(out, y, atol=0)


def test_rk4_matches_exponential_decay():
    kappa = 1.0
    dt = 0.01
    y = np.array([[1.0 + 0j]])
    out = rk4_step(lambda m: -kappa * m, y, dt)
    exact = np.exp(-kappa * dt)
    assert abs(out[0, 0] - exact) / exact <= 1e-9


def test_rk4_fourth_order_convergence():
    # halving dt should shrink the one-step error by ~2^5 (local order 5)
    def deriv(m):
        return -1.3 * m

    y = np.array([[1.0]])
    errs = []
    for dt in (0.1, 0.05):
        out = rk4_step(deriv, y, dt)
        errs.append(abs(out[0, 0] - np.exp(-1.3 * dt)))
    ratio = errs[0] / errs[1]
    assert 25 < ratio < 40


def test_rk4_preserves_trace_of_dissipative_generator():
    from cavitydark.basis import ladder_spaces
    from cavitydark.dynamics import build_ladder_hamiltonian, lowering_operator
    from cavitydark.hamiltonian import SystemParams

    params = SystemParams(n_atoms=2, delta_a=0.0, g=[1.0, 1.0], V=0.5, kappa=0.3)
    ladder = ladder_spaces(2, 1)
    h = build_ladder_hamiltonian(params, ladder)
    a_op = lowering_operator(ladder)
    rho = np.zeros((ladder.dim, ladder.dim), dtype=complex)
    rho[1, 1] = 1.0
    out = rk4_step(lambda r: liouvillian_apply(h, a_op, params.kappa, r), rho, 0.005)
    assert abs(np.trace(out) - 1.0) <= 1e-12


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(ValueError, match="dt"):
        rk4_step(lambda m: m, np.zeros((1, 1)), 0.0)


def test_rk4_names_diverging_stage():
    def deriv(m):
        return m * np.inf

    with pytest.raises(FloatingPointError, match="k1"):
        rk4_step(deriv, np.ones((1, 1)), 0.1)
