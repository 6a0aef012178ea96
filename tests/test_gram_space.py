import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag as dense_block_diag
from scipy.linalg import solve_triangular

from podkit.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric, ProblemTooLarge
from podkit.gram_space import Banded, block_diag, check_dense_budget, half_weight, half_weight_inv
from podkit.gram_space import identity_space
from podkit.gram_space import make_space
from podkit.projector import ORTH_DROP_TOL
from podkit.snapshot_io import POD_ARRAYS, resolve_gram_spec

from oracles import adjoint_matrix, inner, norm, solve_gram
from oracles import weighted_prefixes


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


def test_half_weight_isometry():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(2, 12))
        space = make_space(random_spd(rng, n))
        u = rng.standard_normal(n)
        assert np.linalg.norm(half_weight(space, u)) == pytest.approx(norm(space, u))
        assert np.allclose(half_weight_inv(space, half_weight(space, u)), u)
        # the adjoint pair takes functionals: f^T u = (C^{-1} f)^T (C^T u)
        f = rng.standard_normal(n)
        dual = half_weight_inv(space, f, adjoint=True)
        assert dual @ half_weight(space, u) == pytest.approx(f @ u)
        assert np.allclose(half_weight(space, half_weight_inv(space, f, adjoint=True), True), f)


def test_solve_gram_inverts():
    rng = np.random.default_rng(4)
    space = make_space(random_spd(rng, 7))
    rhs = rng.standard_normal(7)
    assert np.allclose(space.gram @ solve_gram(space, rhs), rhs)


def test_orthonormalize_hand_example():
    # euclidean Gram-Schmidt of [[1,1],[0,1]] gives e1 and e2
    space = identity_space(2)
    Q, k, reason = weighted_prefixes(space, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(Q, np.eye(2))
    assert (k, reason) == (2, None)


def test_orthonormalize_weighted():
    for seed in range(8):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 10))
        k = int(r.integers(1, n + 1))
        space = make_space(random_spd(r, n))
        Q, usable, _ = weighted_prefixes(space, r.standard_normal((n, k)))
        assert usable == k
        assert np.allclose(inner(space, Q, Q), np.eye(k), atol=1e-12)


def test_orthonormalize_rank_deficient():
    space = identity_space(3)
    V = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    _, k, reason = weighted_prefixes(space, V)
    assert k == 1 and reason.startswith("column 1 ")


def mgs_reference(space, vectors):
    """Column-by-column modified Gram-Schmidt with a second sweep per column.

    The reference weighted_prefixes must reproduce: the same columns up
    to the first dependent one, and the same pivot rule (a pivot at most
    ORTH_DROP_TOL times the largest so far marks the column as dependent).
    Returns (Q, k), Q's leading k columns orthonormal and column k the first
    dependent one (k the column count with none).
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
            return Q, j
        pivots.append(p)
        Q[:, j] = w / p
    return Q, V.shape[1]


def random_cases(count=40):
    for seed in range(count):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 13))
        k = int(r.integers(1, n + 1))
        yield make_space(random_spd(r, n)), r.standard_normal((n, k))


def test_orthonormalize_matches_gram_schmidt_reference():
    for space, V in random_cases():
        Q, k, _ = weighted_prefixes(space, V)
        ref, k_ref = mgs_reference(space, V)
        assert k == k_ref == V.shape[1]
        assert np.max(np.abs(Q - ref)) <= 1e-12


def test_orthonormalize_keeps_leading_spans():
    # R = (V_j, Q_i) must be upper triangular with a positive diagonal and
    # reproduce V: then span(Q[:, :k]) = span(V[:, :k]) for every k.
    for space, V in random_cases():
        Q, _, _ = weighted_prefixes(space, V)
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
    V = np.array(columns)
    Q, k, reason = weighted_prefixes(space, V)
    assert k == first_dependent and reason.startswith(f"column {first_dependent} ")
    ref, k_ref = mgs_reference(space, V)
    assert k_ref == first_dependent
    # the leading columns before the dependent one are the reference's
    assert np.max(np.abs(Q[:, :k] - ref[:, :k]), initial=0.0) <= 1e-12


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
    for kernel in (half_weight, half_weight_inv):
        for adjoint in (False, True):
            with pytest.raises(DimensionMismatch):
                kernel(space, np.ones(4), adjoint)


# -- banded storage: bandwidth detection and the banded kernels ---------------


def banded_spd(rng, n, kd):
    """Random SPD matrix with exactly kd nonzero subdiagonals."""
    A = random_spd(rng, n)
    return A * (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kd)


def gram_cases():
    """(name, space, dense Gram, expected kd) for every Gram layout in use."""
    rng = np.random.default_rng(21)
    flagship = resolve_gram_spec({"block_diag": [{"fem_mass": 8}] * 2}, 16)
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
        assert _close(half_weight(space, U, adjoint=True), L @ U), name
        want = solve_triangular(L, U, lower=True)
        assert _close(half_weight_inv(space, U, adjoint=True), want), name
        assert _close(solve_gram(space, U), np.linalg.solve(dense, U)), name
    u = rng.standard_normal(n)
    assert norm(space, u) == pytest.approx(np.sqrt(u @ dense @ u), rel=1e-12)
    G_other = other.gram.toarray()
    assert _close(adjoint_matrix(space, other, A.T), np.linalg.solve(dense, A @ G_other))
    assert _close(adjoint_matrix(other, space, A), np.linalg.solve(G_other, A.T @ dense))


def test_sparse_and_dense_grams_build_the_same_space():
    dense = banded_spd(np.random.default_rng(5), 8, 2)
    def diagonals(M):
        return Banded({k: np.diagonal(M, k) for k in range(-2, 3)}, M.shape)

    a, b = make_space(dense), make_space(diagonals(dense))
    assert np.array_equal(a.chol, b.chol)
    assert np.array_equal(a.gram.toarray(), b.gram.toarray())
    with pytest.raises(NotSymmetric):
        make_space(diagonals(np.triu(dense)))
    with pytest.raises(NotPositiveDefinite):
        make_space(diagonals(-dense))


def test_generated_gram_spaces_allocate_no_dense_matrix():
    # the dense 5000 x 5000 Gram alone would be 200 MB
    n = 5000
    U = np.random.default_rng(0).standard_normal((n, 40))
    tracemalloc.start()
    try:
        space = resolve_gram_spec({"fem_stiffness": n}, n)
        identity_space(n)
        for kernel in (half_weight, half_weight_inv):
            kernel(space, U)
            kernel(space, U, adjoint=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def random_banded(rng, shape, offsets):
    m, n = shape
    return Banded(
        {k: rng.standard_normal(min(m, n - k) - max(0, -k)) for k in offsets}, shape
    )


def test_banded_algebra_matches_dense():
    rng = np.random.default_rng(31)
    A = random_banded(rng, (7, 9), (-2, 0, 1, 3))
    B = random_banded(rng, (9, 5), (-1, 0, 2))
    C = random_banded(rng, (7, 9), (-3, 0, 1))
    dA, dB, dC = A.toarray(), B.toarray(), C.toarray()
    X, Y = rng.standard_normal((9, 4)), rng.standard_normal((3, 7))
    assert np.array_equal(dA[np.arange(7), np.arange(7) + 1], A.diagonal(1))
    assert np.array_equal(A.diagonal(2), np.zeros(7))
    assert np.array_equal(A.T.toarray(), dA.T)
    assert np.allclose(A @ X, dA @ X, rtol=1e-14, atol=1e-14)
    assert np.allclose(A @ X[:, 0], dA @ X[:, 0], rtol=1e-14, atol=1e-14)
    assert np.allclose(Y @ A, Y @ dA, rtol=1e-14, atol=1e-14)
    assert np.allclose((A @ B).toarray(), dA @ dB, rtol=1e-14, atol=1e-14)
    assert np.array_equal((A + C).toarray(), dA + dC)
    assert np.array_equal((A - C).toarray(), dA - dC)
    assert np.array_equal(dC - A, dC - dA)
    assert np.array_equal((0.5 * A).toarray(), 0.5 * dA)
    with pytest.raises(ValueError):
        A @ X.T
    with pytest.raises(DimensionMismatch):
        Banded({0: np.ones(3)}, (4, 4))


def test_block_diag_of_rectangular_blocks_matches_dense():
    rng = np.random.default_rng(32)
    blocks = [
        random_banded(rng, (4, 5), (0, 1)),
        random_banded(rng, (3, 3), (-1, 0, 1)),
        random_banded(rng, (5, 4), (-1, 0)),
    ]
    got = block_diag(blocks).toarray()
    assert np.array_equal(got, dense_block_diag(*[b.toarray() for b in blocks]))


def test_a_refused_budget_reports_its_need_to_a_tenth_of_a_mib():
    # pod on a 2,798 x 2,000 bundle needs 512.3 MiB: rounded to whole MiB
    # the refusal read "(512 MiB), over the 512 MiB budget"
    with pytest.raises(ProblemTooLarge) as info:
        check_dense_budget(POD_ARRAYS, (2798, 2000), "the POD")
    assert str(info.value) == (
        "the POD needs 12 dense 2798 x 2000 arrays (512.3 MiB), over the 512 MiB budget"
    )
    check_dense_budget(POD_ARRAYS, (2796, 2000), "the POD")  # 511.9 MiB fits
