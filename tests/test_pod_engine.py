"""Decomposition tests.

The independent oracle used throughout: form the weighted correlation matrix
C[i, j] = sqrt(g_i g_j) (w_i, w_j)_X explicitly and take its symmetric
eigendecomposition.  The implementation goes through an SVD of a
half-weighted data matrix instead, so agreement is a genuine cross-check.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import svd

from podkit.error_lab import certifier, rank_relation
from podkit.errors import DimensionMismatch
from podkit.fem import assemble_fem_1d
from podkit.gram_space import half_weight, half_weight_inv, identity, make_space
from podkit.linear_map import identity_map
from podkit.pod_engine import compute_pod, save_basis
from podkit.snapshot_io import IMAGE_ARRAYS, POD_ARRAYS, make_snapshot_set

from conftest import GOLDEN_LAMBDA_1, GOLDEN_LAMBDA_2
from oracles import apply_K, apply_K_adjoint, apply_projector, hs_norm_sq, inner
from oracles import optimality_oracle, pod_projector, tail_energy


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
        space = make_space(identity(dim))
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
        basis = compute_pod(sset)
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
    basis = compute_pod(sset)
    r = basis.rank
    assert np.allclose(inner(space, basis.modes, basis.modes), np.eye(r), atol=1e-12)
    # right vectors orthonormal under the weights
    F = basis.right_vectors
    W = np.diag(sset.weights)
    assert np.allclose(F.T @ W @ F, np.eye(r), atol=1e-12)


def test_duplicated_snapshot_sigma():
    # two copies of one vector with unit weights: sigma_1 = sqrt(2)||w||
    w = np.array([3.0, 4.0])
    sset = make_snapshot_set(np.column_stack([w, w]), [1.0, 1.0], space=make_space(identity(2)))
    basis = compute_pod(sset)
    assert basis.rank == 1
    assert basis.sigma[0] == pytest.approx(np.sqrt(2.0) * 5.0, rel=1e-14)


def test_zero_data_rank_zero():
    sset = make_snapshot_set(np.zeros((4, 3)), np.ones(3), space=make_space(identity(4)))
    basis = compute_pod(sset)
    assert basis.rank == 0
    assert basis.modes.shape == (4, 0)
    assert tail_energy(basis, 0) == 0.0


def test_drop_tol_controls_rank():
    # eigenvalues 1 and 1e-10; the cut is relative to the leading one
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    data = np.column_stack([u, 1e-5 * v])
    sset = make_snapshot_set(data, [1.0, 1.0], space=make_space(identity(2)))
    assert compute_pod(sset).rank == 2
    assert compute_pod(sset, drop_tol=1e-11).rank == 2
    assert compute_pod(sset, drop_tol=1e-8).rank == 1


def test_rank_arrays_are_views_of_the_one_basis():
    rng = np.random.default_rng(12)
    sset, _ = random_set(rng, 9, 14)
    basis = compute_pod(sset)
    assert np.shares_memory(basis.modes, basis.modes_full)
    assert np.shares_memory(basis.right_vectors, basis.right_full)
    assert basis.modes.shape == (9, basis.rank)
    assert basis.right_vectors.shape == (14, basis.rank)
    # the SVD's own singular values, squared and rooted again, bit for bit
    _, sig, _ = tall_svd(half_weight(sset.space, sset.data * np.sqrt(sset.weights)))
    assert np.array_equal(basis.sigma, sig[: basis.rank])
    assert np.array_equal(basis.sigma, np.sqrt(basis.eigenvalues[: basis.rank]))
    # truncation is a smaller rank over the same arrays
    cut = dataclasses.replace(basis, rank=3)
    assert cut.modes_full is basis.modes_full
    assert np.array_equal(cut.modes, basis.modes[:, :3])
    assert np.array_equal(cut.sigma, basis.sigma[:3])


def test_compute_pod_needs_the_sets_own_space():
    data = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch, match="no space attached"):
        compute_pod(make_snapshot_set(data, [1.0, 1.0]))
    sset = make_snapshot_set(data, [1.0, 1.0], space=make_space(identity(2)))
    with pytest.raises(DimensionMismatch, match="space dim 3 != snapshot dim 2"):
        compute_pod(dataclasses.replace(sset, space=make_space(identity(3))))


def test_pod_projector_is_idempotent_at_full_rank():
    # the level guard itself is error_lab's (test_one_level_guard)
    rng = np.random.default_rng(3)
    sset, _ = random_set(rng, 5, 4)
    basis = compute_pod(sset)
    proj = pod_projector(basis, basis.rank)
    x = rng.standard_normal(5)
    p = apply_projector(proj, x)
    assert np.allclose(apply_projector(proj, p), p, atol=1e-12)


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
    basis = compute_pod(sset)
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
    # the manifest and the two CSVs hold the basis bit for bit
    rng = np.random.default_rng(31)
    sset, _ = random_set(rng, 6, 9)
    basis = compute_pod(sset)
    path = tmp_path / "basis.json"
    save_basis(basis, sset, str(path))
    manifest = json.loads(path.read_text())
    assert manifest["rank"] == basis.rank
    assert manifest["drop_tol"] == basis.drop_tol
    assert np.array_equal(manifest["sigma"], basis.sigma)
    assert np.array_equal(manifest["eigenvalues"], basis.eigenvalues)
    # the data's fingerprint: BLAKE2b-256 of the data's and the weights' bytes
    digest = hashlib.blake2b(sset.data.tobytes() + sset.weights.tobytes(), digest_size=32)
    assert manifest["snapshots_ref"] == digest.hexdigest()[:12]
    for key, array in (("modes", basis.modes), ("right_vectors", basis.right_vectors)):
        back = np.loadtxt(tmp_path / manifest[key], delimiter=",", ndmin=2)
        assert np.array_equal(back, array)


def _relation(sset, basis):
    # under the identity map the image spectrum is the set's own spectrum and
    # every mapped mode norm is 1: the bound is the source's own tail
    return rank_relation(certifier(sset, basis, identity_map(basis.space)))


def test_spectrum_gapped():
    # clean gap: rank-1 data plus nothing
    sset = make_snapshot_set(
        np.column_stack([[1.0, 0.0], [2.0, 0.0]]), [1.0, 1.0], space=make_space(identity(2))
    )
    assert _relation(sset, compute_pod(sset))["decided"]
    # smooth decay through the cut: the eigenvalues past the rank sum to
    # 1.9e-13 of the largest, within the 1e-12 drop threshold
    rng = np.random.default_rng(9)
    U = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    sig = 10.0 ** -np.linspace(0.0, 14.0, 12)
    data = U @ np.diag(sig) @ np.linalg.qr(rng.standard_normal((12, 12)))[0]
    sset = make_snapshot_set(data, np.ones(12), space=make_space(identity(12)))
    basis = compute_pod(sset)
    assert 0 < basis.rank < 12
    relation = _relation(sset, basis)
    assert relation["decided"] and relation["passed"]
    # a hundred eigenvalues just below the cut sum to 50 times the threshold:
    # the bound cannot place the image's tail below it, so nothing is decided
    sset = make_snapshot_set(
        np.diag(np.sqrt(np.r_[1.0, np.full(100, 0.5e-12)])), np.ones(101),
        space=make_space(identity(101)),
    )
    basis = compute_pod(sset)
    assert basis.rank == 1
    relation = _relation(sset, basis)
    assert relation["passed"] and not relation["decided"]


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


_POD_RSS_SCRIPT = """
import sys
import numpy as np
from podkit.gram_space import identity, make_space
from podkit.pod_engine import compute_pod
from podkit.snapshot_io import make_snapshot_set

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

n = int(sys.argv[1])
sset = make_snapshot_set(np.random.default_rng(0).standard_normal((n, n)), np.ones(n),
                         space=make_space(identity(n)))
before = peak_kib()
compute_pod(sset)
print(peak_kib() - before)
"""


def test_compute_pod_peaks_within_its_counted_arrays():
    # the budget counts POD_ARRAYS dim x count arrays: the rise of peak RSS
    # over the data, in a fresh interpreter at one BLAS thread, on square
    # data, whose SVD workspace is the largest.  The peak is Linux's VmHWM,
    # which starts afresh at exec, where ru_maxrss starts from the pytest
    # process's size.
    n = 800
    env = {**os.environ, "PYTHONPATH": str(Path(compute_pod.__code__.co_filename).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _POD_RSS_SCRIPT, str(n)],
                          capture_output=True, text=True, env=env, check=True)
    rise = 1024 * int(done.stdout)
    assert 0 < rise < 8 * POD_ARRAYS * n * n, (rise, 8 * POD_ARRAYS * n * n)


_IMAGE_RSS_SCRIPT = """
import numpy as np
from podkit.fem import assemble_fem_1d
from podkit.gram_space import block_diag, make_space
from podkit.linear_map import derivative_map
from podkit.pod_engine import image_spectrum
from podkit.snapshot_io import make_snapshot_set

def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

space = make_space(block_diag([assemble_fem_1d(100).mass] * 2))
lmap = derivative_map(100, space)
data = np.random.default_rng(0).standard_normal((200, 2000))
before = peak_kib()
image_spectrum(lmap, make_snapshot_set(data, np.full(2000, 1e-3), space=space))
print(peak_kib() - before)
"""


def test_image_spectrum_peaks_within_its_counted_arrays():
    # the budget counts IMAGE_ARRAYS codomain dim x count arrays: the rise of
    # peak RSS over the data, measured as for compute_pod, on the flagship's
    # shapes: two 100-node fields, 2,000 snapshots, a 198 x 2,000 image
    env = {**os.environ, "PYTHONPATH": str(Path(compute_pod.__code__.co_filename).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _IMAGE_RSS_SCRIPT],
                          capture_output=True, text=True, env=env, check=True)
    rise, need = 1024 * int(done.stdout), 8 * IMAGE_ARRAYS * 198 * 2000
    assert 0 < rise < need, (rise, need)


def tall_svd(M):
    """numpy's thin SVD of M, U S Vt, factored in the orientation with at
    least as many rows as columns, as compute_pod factors it: for wide M,
    the SVD of M^T with its vectors' roles swapped.  xGESDD reduces a wide
    matrix by LQ and a tall one by QR, so the two orientations agree only
    to round-off, and a bit-for-bit oracle has to take the one compute_pod
    takes."""
    if M.shape[0] >= M.shape[1]:
        return svd(M, full_matrices=False)
    Ut, sig, V = svd(M.T, full_matrices=False)
    return V.T, sig, Ut.T


def unblocked_pod(sset):
    """The whole whitened data matrix in one SVD: eigenvalues, left vectors,
    modes and right vectors of the full spectrum, as compute_pod computed
    them before it filled its SVD input a column block at a time.  It calls
    the SVD compute_pod calls, numpy's, on the same orientation (tall_svd):
    scipy links an OpenBLAS build of its own, whose threaded products in
    xGESDD differ from numpy's in the last bits when more than one BLAS
    thread runs."""
    g12 = np.sqrt(sset.weights)
    U, sig, Vt = tall_svd(half_weight(sset.space, sset.data * g12[None, :]))
    return sig**2, U, half_weight_inv(sset.space, U), Vt.T / g12[:, None]


def assert_bit_equal_to_unblocked(sset):
    basis = compute_pod(sset)
    lam, left_full, modes_full, right_full = unblocked_pod(sset)
    assert np.array_equal(basis.eigenvalues, lam)
    # up to the sign of each leading column, the same flip on both sides
    flipped = np.any(basis.right_full != right_full, axis=0)
    assert np.array_equal(basis.right_full, np.where(flipped, -right_full, right_full))
    assert np.array_equal(basis.modes_full, np.where(flipped, -modes_full, modes_full))
    # the SVD's own left vectors are the modes in whitened coordinates
    assert np.array_equal(basis.left_full, np.where(flipped, -left_full, left_full))
    assert not flipped[basis.rank :].any()
    return basis


@pytest.mark.parametrize(
    "n, s, dense_gram",
    [(5, 7, True), (40, 3000, False), (150, 1600, True), (257, 900, False), (300, 120, True)],
)
def test_compute_pod_is_bit_equal_to_the_unblocked_svd(n, s, dense_gram):
    # the blocks are per-column products, so the SVD sees the same matrix;
    # the wide cases pin the transposed SVD, 300 x 120 the direct one
    rng = np.random.default_rng(n + s)
    if dense_gram:
        A = rng.standard_normal((n, n))
        space = make_space(A.T @ A / n + np.eye(n))
    else:
        space = make_space(assemble_fem_1d(n).mass)
    k = min(n, s) // 2 + 1
    data = rng.standard_normal((n, k)) @ rng.standard_normal((k, s))
    assert_bit_equal_to_unblocked(make_snapshot_set(data, rng.uniform(0.5, 2.0, s), space=space))


def test_flagship_pod_is_bit_equal_to_the_unblocked_svd(fhn_instance):
    # 200 x 2,000: seven column blocks
    assert assert_bit_equal_to_unblocked(fhn_instance["set"]).rank == 22


def test_compute_pod_peak_is_two_and_a_half_data_arrays():
    # tracemalloc sees the one Fortran-order working copy and the right
    # vectors, which become right_full, signed in place: with full rank
    # the traced peak above the input is about two data arrays, and the
    # basis keeps one, since right_vectors is a view of right_full.
    # numpy's SVD works in buffers tracemalloc does not trace (a copy of
    # its input, its vectors, xGESDD's workspace), so the process grows
    # more: by peak RSS the SVD alone adds 10.2 to 10.4 MiB for a 3.1 MB
    # 200 x 2000 input, and the flagship's compute_pod 15.5 MiB over load.
    n, s = 100, 10_000
    rng = np.random.default_rng(23)
    space = make_space(assemble_fem_1d(n).mass)
    sset = make_snapshot_set(rng.standard_normal((n, s)), rng.uniform(0.5, 2.0, s), space=space)
    tracemalloc.start()
    try:
        basis = compute_pod(sset)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert basis.rank == n
    assert peak <= 2.5 * sset.data.nbytes
    assert np.shares_memory(basis.right_vectors, basis.right_full)
    assert retained <= 1.1 * sset.data.nbytes
