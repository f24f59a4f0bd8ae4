"""Unit tests for the dense linear algebra: the Hermiticity-checked
eigensolver, and the rank and null space that the detector takes of one
coupling block."""

import numpy as np
import pytest

from cavitydark.arrowhead import ArrowheadForm
from cavitydark.darkstates import RANK_TOL, cluster_ranks, detect
from cavitydark.linalg import HERMITICITY_TOL, eigh


def random_hermitian(n, rng, complex_valued=True):
    a = rng.standard_normal((n, n))
    if complex_valued:
        a = a + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


# ---------------------------------------------------------------- eigh


def test_eigh_sorts_diagonal_matrix_ascending():
    w, Q = eigh(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=0)
    # eigenvectors are (signed) permutation columns
    np.testing.assert_allclose(np.abs(Q), np.eye(3)[:, [1, 2, 0]], atol=1e-15)


def test_eigh_two_site_exchange_block():
    v = 0.5
    w, Q = eigh(np.array([[0.0, v], [v, 0.0]]))
    np.testing.assert_allclose(w, [-v, v], atol=1e-15)
    s = 1.0 / np.sqrt(2.0)
    # antisymmetric below, symmetric above, each up to its sign
    np.testing.assert_allclose(Q[:, 0] * np.sign(Q[0, 0]), [s, -s], atol=1e-15)
    np.testing.assert_allclose(Q[:, 1] * np.sign(Q[0, 1]), [s, s], atol=1e-15)


def test_eigh_reconstructs_random_hermitian():
    rng = np.random.default_rng(7)
    a = random_hermitian(6, rng)
    w, Q = eigh(a)
    recon = Q @ np.diag(w) @ Q.conj().T
    scale = max(1.0, np.abs(a).max())
    assert np.abs(recon - a).max() <= 1e-10 * scale
    gram = Q.conj().T @ Q
    assert np.abs(gram - np.eye(6)).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 16, 33, 64])
def test_eigh_reconstruction_across_sizes(n):
    rng = np.random.default_rng(100 + n)
    a = random_hermitian(n, rng, complex_valued=(n % 2 == 0))
    w, Q = eigh(a)
    assert np.all(np.diff(w) >= 0)
    assert np.isrealobj(w)
    recon = Q @ np.diag(w) @ Q.conj().T
    assert np.abs(recon - a).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_eigh_real_input_gives_real_vectors():
    rng = np.random.default_rng(3)
    a = random_hermitian(5, rng, complex_valued=False)
    _, Q = eigh(a)
    assert not np.iscomplexobj(Q)


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
    w, _ = eigh(a)
    assert w.shape == (2,)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e100])
def test_eigh_hermiticity_check_is_scale_free(scale):
    a = scale * np.array([[2.0, 1.0], [1.0, -1.0]])
    w, _ = eigh(a)
    expected = (1.0 + np.array([-1.0, 1.0]) * np.sqrt(13.0)) / 2.0
    np.testing.assert_allclose(w / scale, expected, rtol=1e-14)
    a[1, 0] = np.nextafter(a[0, 1], np.inf)  # a rounding-level asymmetry
    eigh(a)
    a[1, 0] = a[0, 1] * (1.0 + 1e-6)
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh(a)


def test_eigh_refuses_an_asymmetry_as_large_as_the_matrix():
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh(np.array([[0.0, 1e-300], [0.0, 0.0]]))


# ------------------------------- rank and null space of one coupling block


def one_cluster(block):
    """Arrowhead form whose dressed states, the identity basis, form one
    degenerate cluster with coupling block ``block``."""
    n = block.shape[1]
    return ArrowheadForm(basis=None, eigenvalues=np.zeros(n), couplings=block,
                         lower_transform=np.eye(n))


def rank_and_null(block):
    """Rank (from ``cluster_ranks``) and null space (from ``detect``) of a
    coupling block that forms one degenerate cluster of dressed states."""
    arrow = one_cluster(block)
    (cluster,), _ = cluster_ranks(arrow)
    report = detect(arrow)
    assert report.clusters == (cluster,)
    assert not report.vectors[: block.shape[0]].any()
    return cluster.rank, report.vectors[block.shape[0]:]


def test_rank_zero_matrix():
    rank, null = rank_and_null(np.zeros((4, 2)))
    assert rank == 0
    assert null.shape == (2, 2)
    np.testing.assert_allclose(null.conj().T @ null, np.eye(2), atol=1e-12)


def test_rank_identical_columns():
    col = np.array([1.0, 2.0, -1.0])
    rank, null = rank_and_null(np.column_stack([col, col]))
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
    rank, null = rank_and_null(full)
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
        rank, null = rank_and_null(b)
        assert rank + null.shape[1] == cols
        scale = max(np.abs(b).max(), 1.0)
        for k in range(null.shape[1]):
            assert np.abs(b @ null[:, k]).max() <= 1e-8 * scale
        if null.shape[1]:
            gram = null.conj().T @ null
            assert np.abs(gram - np.eye(null.shape[1])).max() <= 1e-10


def test_rank_returns_singular_values_and_skips_vectors_at_full_rank(monkeypatch):
    b = np.array([[3.0, 0.0], [0.0, 1e-12], [0.0, 0.0]])
    rank, null = rank_and_null(b)
    assert rank == 1 and null.shape == (2, 1)
    # the rank margin reads the smallest kept singular value, 3
    assert cluster_ranks(one_cluster(b))[1] == 3.0 / (RANK_TOL * 3.0)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **k: calls.append(k) or svd(*a, **k)
    )
    rank, null = rank_and_null(np.eye(3)[:, :2])
    assert rank == 2 and null.shape == (2, 0)
    # one singular-value pass each for cluster_ranks and for detect's rank
    # pass; no singular vectors when no cluster is dark
    assert calls == [{"compute_uv": False}] * 2


def test_rank_empty_matrix():
    rank, null = rank_and_null(np.zeros((0, 3)))
    assert rank == 0
    assert null.shape == (3, 3)
    np.testing.assert_allclose(null.T @ null, np.eye(3), atol=1e-12)
