import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import solve_triangular

from podkit.errors import (
    DimensionMismatch,
    NegativeQuadraticForm,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
)
from podkit.gram_space import (
    ORTH_DROP_TOL,
    GramSpace,
    adjoint_matrix,
    half_weight,
    half_weight_inv,
    identity_space,
    inner,
    make_space,
    norm,
    orthonormalize,
    solve_gram,
)
from podkit.fhn_gen import make_product_space
from podkit.snapshot_io import resolve_gram_spec


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return (A.T @ A + n * np.eye(n)) / n


def test_inner_hand_value():
    space = make_space([[2.0, 1.0], [1.0, 3.0]])
    u = np.array([1.0, 2.0])
    v = np.array([-1.0, 1.0])
    # v^T G u with G u = (4, 7)
    assert inner(space, u, v) == pytest.approx(3.0)
    assert norm(space, u) ** 2 == pytest.approx(float(u @ (space.gram @ u)))


def test_inner_matrix_arguments():
    rng = np.random.default_rng(0)
    space = make_space(random_spd(rng, 5))
    U = rng.standard_normal((5, 3))
    V = rng.standard_normal((5, 2))
    M = inner(space, U, V)
    assert M.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert M[i, j] == pytest.approx(inner(space, U[:, j], V[:, i]))


def test_make_space_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        make_space([[1.0, 0.1], [0.0, 1.0]])


def test_make_space_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        make_space([[1.0, 2.0], [2.0, 1.0]])


def test_make_space_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        make_space(np.ones((2, 3)))


def test_norm_clamps_tiny_negative():
    # direct construction bypasses validation so an indefinite "gram" can probe
    # the round-off guard on the quadratic form.
    eps = 1e-16
    G = np.diag([1.0, -eps])
    space = GramSpace(dim=2, gram=G, chol=np.eye(2))
    assert norm(space, np.array([0.0, 1.0])) == 0.0
    with pytest.raises(NegativeQuadraticForm):
        norm(GramSpace(dim=2, gram=np.diag([1.0, -1.0]), chol=np.eye(2)), np.array([0.0, 1.0]))


def test_half_weight_isometry():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        space = make_space(random_spd(rng, n))
        u = rng.standard_normal(n)
        assert np.linalg.norm(half_weight(space, u)) == pytest.approx(norm(space, u))
        assert np.allclose(half_weight_inv(space, half_weight(space, u)), u)


def test_solve_gram_inverts():
    rng = np.random.default_rng(4)
    space = make_space(random_spd(rng, 7))
    rhs = rng.standard_normal(7)
    assert np.allclose(space.gram @ solve_gram(space, rhs), rhs)


def test_orthonormalize_hand_example():
    # euclidean MGS of [[1,1],[0,1]] gives e1 and e2
    space = identity_space(2)
    Q = orthonormalize(space, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(Q, np.eye(2))


def test_orthonormalize_weighted():
    rng = np.random.default_rng(5)
    for seed in range(8):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 10))
        k = int(r.integers(1, n + 1))
        space = make_space(random_spd(r, n))
        Q = orthonormalize(space, r.standard_normal((n, k)))
        assert np.allclose(inner(space, Q, Q), np.eye(k), atol=1e-12)
    del rng


def test_orthonormalize_rank_deficient():
    space = identity_space(3)
    V = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(RankDeficient):
        orthonormalize(space, V)


def mgs_reference(space, vectors):
    """Column-by-column modified Gram-Schmidt with a second sweep per column.

    The reference orthonormalize must reproduce: same output columns, same
    pivot rule (a pivot at most ORTH_DROP_TOL times the largest so far marks
    the column as dependent).
    """
    V = np.array(vectors, dtype=float, copy=True)
    if V.ndim == 1:
        V = V[:, None]
    Q = np.empty_like(V)
    pivots = []
    for j in range(V.shape[1]):
        w = V[:, j].copy()
        for _ in range(2):
            for i in range(j):
                w -= inner(space, w, Q[:, i]) * Q[:, i]
        p = norm(space, w)
        ref = max(pivots + [p])
        if p == 0.0 or p <= ORTH_DROP_TOL * ref:
            raise RankDeficient(f"column {j} has pivot {p:.3e}")
        pivots.append(p)
        Q[:, j] = w / p
    return Q


def random_cases(count=40):
    for seed in range(count):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 13))
        k = int(r.integers(1, n + 1))
        yield make_space(random_spd(r, n)), r.standard_normal((n, k))


def test_orthonormalize_matches_gram_schmidt_reference():
    for space, V in random_cases():
        Q = orthonormalize(space, V)
        assert np.max(np.abs(Q - mgs_reference(space, V))) <= 1e-12


def test_orthonormalize_keeps_leading_spans():
    # R = (V_j, Q_i) must be upper triangular with a positive diagonal and
    # reproduce V: then span(Q[:, :k]) = span(V[:, :k]) for every k.
    for space, V in random_cases():
        Q = orthonormalize(space, V)
        R = inner(space, V, Q)
        scale = np.max(np.abs(R))
        assert np.max(np.abs(np.tril(R, -1))) <= 1e-12 * scale
        assert np.all(np.diag(R) > 0.0)
        assert np.allclose(Q @ np.triu(R), V, atol=1e-12 * scale)


@pytest.mark.parametrize(
    "columns, first_dependent",
    [
        # third column is the sum of the first two
        ([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
          [0.0, 0.0, 0.0, 0.0]], 2),
        # a repeated first column
        ([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]], 1),
        # more columns than the dimension: column 3 has no room left
        (np.arange(1.0, 16.0).reshape(3, 5) ** 2, 3),
        # an exact zero column up front
        ([[0.0, 1.0], [0.0, 1.0]], 0),
    ],
)
def test_orthonormalize_names_first_dependent_column(columns, first_dependent):
    space = make_space(random_spd(np.random.default_rng(9), len(columns)))
    for fn in (orthonormalize, mgs_reference):
        with pytest.raises(RankDeficient, match=f"^column {first_dependent} "):
            fn(space, np.array(columns))


def test_adjoint_diagonal_oracle():
    # with diagonal grams the adjoint matrix is d_from^{-1} A^T d_to entrywise
    d_from = np.array([1.0, 2.0, 4.0])
    d_to = np.array([3.0, 5.0])
    sf = make_space(np.diag(d_from))
    st = make_space(np.diag(d_to))
    A = np.arange(6, dtype=float).reshape(2, 3) + 1.0
    Astar = adjoint_matrix(sf, st, A)
    ref = (A.T * d_to[None, :]) / d_from[:, None]
    assert np.allclose(Astar, ref)


def test_adjoint_pairing_and_involution():
    rng = np.random.default_rng(11)
    sf = make_space(random_spd(rng, 4))
    st = make_space(random_spd(rng, 6))
    A = rng.standard_normal((6, 4))
    Astar = adjoint_matrix(sf, st, A)
    u = rng.standard_normal(4)
    v = rng.standard_normal(6)
    assert inner(st, A @ u, v) == pytest.approx(inner(sf, u, Astar @ v))
    # (T*)* = T
    assert np.allclose(adjoint_matrix(st, sf, Astar), A, atol=1e-10)


def test_dimension_checks():
    space = identity_space(3)
    with pytest.raises(DimensionMismatch):
        norm(space, np.ones(4))
    with pytest.raises(DimensionMismatch):
        inner(space, np.ones(3), np.ones(2))


# -- sparse storage: bandwidth detection and the banded kernels ---------------


def banded_spd(rng, n, kd):
    """Random SPD matrix with exactly kd nonzero subdiagonals."""
    A = random_spd(rng, n)
    return A * (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kd)


def gram_cases():
    """(name, space, dense Gram, expected kd) for every Gram layout in use."""
    rng = np.random.default_rng(21)
    flagship = make_product_space(8)
    cases = [
        ("identity", identity_space(7), np.eye(7), 0),
        ("identity-matrix", make_space(np.eye(7)), np.eye(7), 0),
        ("diagonal", make_space(np.diag(rng.uniform(0.5, 2.0, 7))), None, 0),
        ("fem-mass", resolve_gram_spec({"fem_mass": 9}, 9), None, 1),
        ("fem-h1", resolve_gram_spec({"fem_stiffness": 9}, 9), None, 1),
        ("flagship-block-diagonal", flagship, None, 1),
        ("flagship-from-csv", make_space(flagship.gram.toarray()), None, 1),
        ("pentadiagonal", make_space(banded_spd(rng, 11, 2)), None, 2),
        ("dense-random", make_space(random_spd(rng, 10)), None, 9),
    ]
    for name, space, dense, kd in cases:
        yield name, space, space.gram.toarray() if dense is None else dense, kd


CASES = list(gram_cases())
CASE_IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name, space, dense, kd", CASES, ids=CASE_IDS)
def test_bandwidth_is_read_off_the_gram(name, space, dense, kd):
    assert space.chol.shape == (kd + 1, space.dim)
    assert np.array_equal(space.gram.toarray(), dense)


def _close(got, want):
    return np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("name, space, dense, kd", CASES, ids=CASE_IDS)
def test_banded_kernels_match_dense_references(name, space, dense, kd):
    rng = np.random.default_rng(kd)
    n = space.dim
    L = np.linalg.cholesky(dense)
    other = make_space(random_spd(rng, 4))
    A = rng.standard_normal((n, 4))
    for U in (rng.standard_normal(n), rng.standard_normal((n, 5)), rng.standard_normal((5, n)).T):
        V = rng.standard_normal(U.shape)
        assert _close(inner(space, U, V), V.T @ dense @ U), name
        assert _close(half_weight(space, U), L.T @ U), name
        want = solve_triangular(L, U, lower=True, trans="T")
        assert _close(half_weight_inv(space, U), want), name
        assert _close(solve_gram(space, U), np.linalg.solve(dense, U)), name
    u = rng.standard_normal(n)
    assert norm(space, u) == pytest.approx(np.sqrt(u @ dense @ u), rel=1e-12)
    G_other = other.gram.toarray()
    assert _close(adjoint_matrix(space, other, A.T), np.linalg.solve(dense, A @ G_other))
    assert _close(adjoint_matrix(other, space, A), np.linalg.solve(G_other, A.T @ dense))


def test_sparse_and_dense_grams_build_the_same_space():
    dense = banded_spd(np.random.default_rng(5), 8, 2)
    a, b = make_space(dense), make_space(sparse.coo_array(dense))
    assert np.array_equal(a.chol, b.chol)
    assert np.array_equal(a.gram.toarray(), b.gram.toarray())
    with pytest.raises(NotSymmetric):
        make_space(sparse.csr_array(np.triu(dense)))
    with pytest.raises(NotPositiveDefinite):
        make_space(sparse.csr_array(-dense))


def test_generated_gram_spaces_allocate_no_dense_matrix():
    # the dense 5000 x 5000 Gram alone would be 200 MB
    n = 5000
    U = np.random.default_rng(0).standard_normal((n, 40))
    tracemalloc.start()
    try:
        space = resolve_gram_spec({"fem_stiffness": n}, n)
        identity_space(n)
        for kernel in (half_weight, half_weight_inv, solve_gram):
            kernel(space, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
