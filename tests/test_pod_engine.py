"""Decomposition tests.

The independent oracle used throughout: form the weighted correlation matrix
C[i, j] = sqrt(g_i g_j) (w_i, w_j)_X explicitly and take its symmetric
eigendecomposition.  The implementation goes through an SVD of a
half-weighted data matrix instead, so agreement is a genuine cross-check.
"""

import tracemalloc

import numpy as np
import pytest

from podkit.errors import IndexOutOfRange, MalformedManifest, MissingDataFile, RankExceeded
from podkit.gram_space import identity_space, inner, make_space
from podkit.pod_engine import (
    apply_K,
    apply_K_adjoint,
    compute_pod,
    hs_norm_sq,
    load_basis,
    optimality_oracle,
    project_X,
    save_basis,
    spectrum_gapped,
    tail_energy,
)
from podkit.snapshot_io import make_snapshot_set

from conftest import GOLDEN_LAMBDA_1, GOLDEN_LAMBDA_2


def correlation_eigs(sset, space):
    """Oracle: eigenvalues of the weighted snapshot correlation matrix."""
    g = np.sqrt(sset.weights)
    C = (g[:, None] * inner(space, sset.data, sset.data).T * g[None, :])
    return np.sort(np.linalg.eigvalsh(C))[::-1]


def random_set(rng, dim, s, spd=True):
    if spd:
        A = rng.standard_normal((dim, dim))
        space = make_space((A.T @ A + dim * np.eye(dim)) / dim)
    else:
        space = identity_space(dim)
    data = rng.standard_normal((dim, s))
    weights = rng.uniform(0.5, 2.0, s)
    return make_snapshot_set(data, weights, space=space), space


def test_golden_eigenvalues(golden_instance):
    basis = compute_pod(golden_instance)
    assert basis.rank == 2
    assert basis.eigenvalues[0] == pytest.approx(GOLDEN_LAMBDA_1, abs=1e-14)
    assert basis.eigenvalues[1] == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-14)
    # modes orthonormal in the euclidean product
    assert np.allclose(basis.modes.T @ basis.modes, np.eye(2), atol=1e-13)


def test_eigenvalues_match_correlation_oracle():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 15))
        s = int(rng.integers(2, 20))
        sset, space = random_set(rng, dim, s)
        basis = compute_pod(sset, space)
        ref = correlation_eigs(sset, space)
        # the computed spectrum holds min(dim, s) values; the correlation
        # matrix is s x s and pads with zeros when dim < s
        k = basis.eigenvalues.size
        assert k == min(dim, s)
        assert np.allclose(basis.eigenvalues, ref[:k], rtol=1e-10, atol=1e-10)
        assert np.all(np.abs(ref[k:]) < 1e-10 * max(ref[0], 1.0))


def test_mode_orthonormality_both_sides():
    rng = np.random.default_rng(42)
    sset, space = random_set(rng, 9, 14)
    basis = compute_pod(sset, space)
    r = basis.rank
    assert np.allclose(inner(space, basis.modes, basis.modes), np.eye(r), atol=1e-12)
    # right vectors orthonormal under the weights
    F = basis.right_vectors
    W = np.diag(sset.weights)
    assert np.allclose(F.T @ W @ F, np.eye(r), atol=1e-12)


def test_duplicated_snapshot_sigma():
    # two copies of one vector with unit weights: sigma_1 = sqrt(2)||w||
    w = np.array([3.0, 4.0])
    sset = make_snapshot_set(np.column_stack([w, w]), [1.0, 1.0])
    basis = compute_pod(sset, identity_space(2))
    assert basis.rank == 1
    assert basis.sigma[0] == pytest.approx(np.sqrt(2.0) * 5.0, rel=1e-14)


def test_zero_data_rank_zero():
    sset = make_snapshot_set(np.zeros((4, 3)), np.ones(3))
    basis = compute_pod(sset, identity_space(4))
    assert basis.rank == 0
    assert basis.modes.shape == (4, 0)
    assert tail_energy(basis, 0) == 0.0


def test_drop_tol_controls_rank():
    # eigenvalues 1 and 1e-10; the cut is relative to the leading one
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    data = np.column_stack([u, 1e-5 * v])
    sset = make_snapshot_set(data, [1.0, 1.0])
    space = identity_space(2)
    assert compute_pod(sset, space).rank == 2
    assert compute_pod(sset, space, drop_tol=1e-11).rank == 2
    assert compute_pod(sset, space, drop_tol=1e-8).rank == 1


def test_project_X_guards():
    rng = np.random.default_rng(3)
    sset, space = random_set(rng, 5, 4)
    basis = compute_pod(sset, space)
    with pytest.raises(IndexOutOfRange):
        project_X(basis, -1, np.zeros(5))
    with pytest.raises(RankExceeded):
        project_X(basis, basis.rank + 1, np.zeros(5))
    x = rng.standard_normal(5)
    p = project_X(basis, basis.rank, x)
    assert np.allclose(project_X(basis, basis.rank, p), p, atol=1e-12)


def test_apply_K_and_adjoint_pairing():
    rng = np.random.default_rng(17)
    sset, space = random_set(rng, 6, 10)
    c = rng.standard_normal(10)
    x = rng.standard_normal(6)
    lhs = inner(space, apply_K(sset, c), x)
    rhs = float(np.sum(sset.weights * c * apply_K_adjoint(sset, space, x)))
    # K maps coefficients to states; the pairing uses the weighted product
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_energy_identity_and_hs_norm():
    rng = np.random.default_rng(23)
    sset, space = random_set(rng, 8, 13)
    basis = compute_pod(sset, space)
    energy = float(
        np.sum(sset.weights * np.array([inner(space, sset.data[:, j], sset.data[:, j]) for j in range(13)]))
    )
    assert np.sum(basis.eigenvalues) == pytest.approx(energy, rel=1e-12)
    assert hs_norm_sq(sset, space) == pytest.approx(energy, rel=1e-12)


def test_tail_energy_matches_residuals(golden_instance):
    basis = compute_pod(golden_instance)
    # rank-1 truncation of the hand instance
    assert tail_energy(basis, 1) == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-14)
    assert tail_energy(basis, 2) == pytest.approx(0.0, abs=1e-15)


def test_optimality_oracle(golden_instance):
    out = optimality_oracle(golden_instance, golden_instance.space, 1, trials=50, seed=0)
    assert out["pod_error"] == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-12)
    assert out["all_ge"]
    # the POD modes themselves achieve the tail: last competitor is them
    assert out["min_competitor"] == pytest.approx(out["pod_error"], abs=1e-10)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    sset, space = random_set(rng, 6, 9)
    basis = compute_pod(sset, space)
    path = str(tmp_path / "basis.json")
    save_basis(basis, path)
    back = load_basis(path, space=space)
    assert back.rank == basis.rank
    assert np.array_equal(back.sigma, basis.sigma)
    assert np.array_equal(back.modes, basis.modes)
    assert np.array_equal(back.right_vectors, basis.right_vectors)
    assert back.snapshots_ref == basis.snapshots_ref


def test_load_basis_errors(tmp_path):
    with pytest.raises(MissingDataFile):
        load_basis(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(MalformedManifest):
        load_basis(str(bad))


def test_spectrum_gapped():
    # clean gap: rank-1 data plus nothing
    sset = make_snapshot_set(np.column_stack([[1.0, 0.0], [2.0, 0.0]]), [1.0, 1.0])
    space = identity_space(2)
    assert spectrum_gapped(compute_pod(sset, space))
    # smooth decay through the cut: eigenvalues straddle the threshold
    rng = np.random.default_rng(9)
    U = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    sig = 10.0 ** -np.linspace(0.0, 14.0, 12)
    data = U @ np.diag(sig) @ np.linalg.qr(rng.standard_normal((12, 12)))[0]
    sset = make_snapshot_set(data, np.ones(12))
    basis = compute_pod(sset, identity_space(12))
    assert 0 < basis.rank < 12
    assert not spectrum_gapped(basis)


def test_compute_pod_memory_stays_linear_in_snapshot_count():
    # 5,000 snapshots: a single dense s x s float array would take 200 MB.
    rng = np.random.default_rng(17)
    n, s, k = 20, 5000, 6
    data = rng.standard_normal((n, k)) @ rng.standard_normal((k, s))
    A = rng.standard_normal((n, n))
    space = make_space(A.T @ A / n + np.eye(n))
    sset = make_snapshot_set(data, rng.uniform(0.5, 2.0, s), space=space)
    tracemalloc.start()
    try:
        basis = compute_pod(sset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert basis.rank == k
    F = basis.right_vectors
    assert np.allclose(F.T @ (sset.weights[:, None] * F), np.eye(k), atol=1e-12)
