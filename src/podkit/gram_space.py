"""Finite-dimensional real inner-product spaces defined by Gram matrices.

A space is R^n with the inner product (u, v) = v^T G u for a symmetric
positive definite G, kept in O(n kd) memory: G as a scipy.sparse CSR array
and its Cholesky factor L (G = L L^T) in LAPACK lower band storage.  kd is
G's lower bandwidth, its outermost nonzero subdiagonal: 0 for identity and
diagonal Grams, 1 for the FEM Grams, n - 1 for a dense CSV Gram, all through
the same code.  Each kernel is one library call whatever kd and the column
count: sparse products with G and L^T, dtbtrs and dpbtrs solves.  A dense
step (a CSV Gram or "matrix" map, the generated trajectory, the Ritz
ellipticity on a wide band) first checks its bytes against
DENSE_BYTES_BUDGET.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .errors import (
    DimensionMismatch,
    NegativeQuadraticForm,
    NotPositiveDefinite,
    NotSymmetric,
    ProblemTooLarge,
    RankDeficient,
)

SYMMETRY_RTOL = 1e-13
NORM_CLAMP = 1e-14
ORTH_DROP_TOL = 1e-12
# Bytes one dense step may allocate, 512 MiB: beyond it a CSV Gram
# (snapshot_io.CSV_GRAM_ARRAYS n^2 doubles), an m x n "matrix" map
# (linear_map.MATRIX_CSV_ARRAYS m n), the generated trajectory
# (fhn_gen.TRAJECTORY_ARRAYS 2n (steps + 1)) and the Ritz ellipticity's
# dense eigensolve on a wide band (3 n^2) raise ProblemTooLarge (exit 2)
# rather than run out of memory.
DENSE_BYTES_BUDGET = 2**29


def check_dense_budget(arrays, shape, what):
    """ProblemTooLarge unless arrays dense doubles of this shape fit the budget."""
    rows, cols = shape
    need = 8 * arrays * rows * cols
    if need > DENSE_BYTES_BUDGET:
        raise ProblemTooLarge(
            f"{what} needs {arrays} dense {rows} x {cols} arrays ({need / 2**20:.0f} MiB), "
            f"over the {DENSE_BYTES_BUDGET / 2**20:.0f} MiB budget"
        )


def as_matrix(M):
    """M as a float CSR array when it is sparse, else as a dense float array."""
    return sparse.csr_array(M, dtype=float) if sparse.issparse(M) else np.asarray(M, dtype=float)


def to_dense(M):
    """A dense array of M, which may be sparse."""
    return M.toarray() if sparse.issparse(M) else M


@dataclass
class GramSpace:
    """R^dim with the inner product induced by an SPD Gram matrix.

    Attributes
    ----------
    dim : int
        Dimension of the space.
    gram : scipy.sparse.csr_array, shape (dim, dim)
        Symmetric positive definite Gram matrix (symmetrized copy).
    chol : ndarray, shape (kd + 1, dim)
        Its lower Cholesky factor L in LAPACK lower band storage,
        chol[i, j] = L[j + i, j], kd being the Gram's lower bandwidth.
    """

    dim: int
    gram: sparse.csr_array
    chol: np.ndarray

    @cached_property
    def chol_t(self):
        """L^T as a CSR array, built from the band storage on first use."""
        offsets = -np.arange(self.chol.shape[0])  # the band rows are L's diagonals
        return sparse.dia_array((self.chol, offsets), shape=(self.dim,) * 2).T.tocsr()


def _lower_band(G):
    """LAPACK lower band storage of a CSR matrix's lower triangle; its row
    count is one more than the outermost nonzero subdiagonal."""
    rows = np.repeat(np.arange(G.shape[0]), np.diff(G.indptr))
    offset = rows - G.indices
    lower = offset >= 0
    band = np.zeros((int(offset.max(initial=0)) + 1, G.shape[0]))
    band[offset[lower], G.indices[lower]] = G.data[lower]
    return band


def make_space(gram):
    """Validate a Gram matrix and build the space around it.

    Parameters
    ----------
    gram : array_like or scipy.sparse matrix, shape (n, n)
        Candidate Gram matrix.  Must be symmetric to relative tolerance
        1e-13 in the Frobenius norm; it is then symmetrized exactly.

    Returns
    -------
    GramSpace

    Raises
    ------
    NotSymmetric
        If the asymmetry exceeds the relative tolerance.
    NotPositiveDefinite
        If the banded Cholesky factorization fails.
    """
    G = gram if sparse.issparse(gram) else np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"gram must be square, got shape {G.shape}")
    G = sparse.csr_array(G, dtype=float)
    scale = np.linalg.norm(G.data)
    skew = np.linalg.norm((G - G.T).data)
    if skew > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetric(
            f"gram asymmetry {skew:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    G = 0.5 * (G + G.T)
    G.eliminate_zeros()
    try:
        L = cholesky_banded(_lower_band(G), lower=True)
    except Exception as exc:  # LinAlgError, or ValueError for non-finite entries
        raise NotPositiveDefinite(str(exc)) from None
    return GramSpace(dim=G.shape[0], gram=G, chol=L)


def identity_space(dim):
    """Euclidean R^dim (identity Gram matrix, kd = 0)."""
    return GramSpace(dim=dim, gram=sparse.eye_array(dim, format="csr"), chol=np.ones((1, dim)))


def _check_dim(space, u):
    u = np.asarray(u, dtype=float)
    if u.shape[0] != space.dim:
        raise DimensionMismatch(
            f"vector of leading dimension {u.shape[0]} in space of dim {space.dim}"
        )
    return u


def inner(space, u, v):
    """Inner product (u, v) = v^T G u.

    Both arguments may be single vectors or matrices of column vectors; with
    matrices the result is the matrix of pairwise products, [i, j] entry
    (u_j, v_i).
    """
    u = _check_dim(space, u)
    v = _check_dim(space, v)
    return v.T @ (space.gram @ u)


def norm(space, u):
    """Norm induced by the Gram matrix, with a round-off guard.

    A quadratic form that comes out barely negative (at most 1e-14 times the
    squared Euclidean norm of u) is clamped to zero; anything more negative
    raises NegativeQuadraticForm.
    """
    u = _check_dim(space, u)
    q = float(u @ (space.gram @ u))
    if q < 0.0:
        guard = NORM_CLAMP * float(u @ u)
        if q >= -guard:
            return 0.0
        raise NegativeQuadraticForm(
            f"quadratic form {q:.3e} below round-off guard {-guard:.3e}"
        )
    return float(np.sqrt(q))


def solve_gram(space, rhs):
    """G^{-1} rhs through the cached banded Cholesky factor (dpbtrs)."""
    rhs = _check_dim(space, rhs)
    return cho_solve_banded((space.chol, True), rhs)


def half_weight(space, u):
    """L^T u, the change of variables that turns the G-norm Euclidean.

    Satisfies ||half_weight(space, u)||_2 = norm(space, u); applied to the
    columns of a matrix it realizes Hilbert-Schmidt norms as plain Frobenius
    norms.
    """
    u = _check_dim(space, u)
    return space.chol_t @ u


def half_weight_inv(space, u):
    """Inverse of half_weight: L^{-T} u by one banded triangular solve."""
    u = _check_dim(space, u)
    if u.size == 0:  # the dtbtrs wrapper crashes on zero right-hand sides
        return np.zeros(u.shape)
    x, _ = dtbtrs(space.chol, u.reshape(space.dim, -1), uplo="L", trans="T")
    return x.reshape(u.shape)


def orthonormal_prefixes(space, vectors):
    """Orthonormalization of every leading block of columns by one QR.

    Factors L^T V = Q R with diag(R) > 0 and returns (L^{-T} Q, k,
    reason): for j <= k the leading j columns are the Gram-Schmidt result
    for the leading j input columns.  Column k is the first whose pivot
    |R_kk| is at most 1e-12 times the largest up to it, so that it lies
    numerically in the span of the previous ones, and reason states that
    pivot; with no such column k is the column count and reason None.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    Q, R = np.linalg.qr(half_weight(space, V))
    diag = np.diag(R)
    # Columns beyond the dimension have no pivot of their own: zero.
    pivots = np.abs(np.append(diag, np.zeros(V.shape[1] - diag.size)))
    largest = np.maximum.accumulate(pivots)
    dependent = np.flatnonzero(pivots <= ORTH_DROP_TOL * largest)
    k, reason = V.shape[1], None
    if dependent.size:
        k = int(dependent[0])
        reason = f"column {k} has pivot {pivots[k]:.3e} against largest pivot {largest[k]:.3e}"
    return half_weight_inv(space, Q * np.sign(diag)), k, reason


def orthonormalize(space, vectors):
    """Orthonormalization in the space's inner product: orthonormal_prefixes
    for all columns, raising RankDeficient at a numerically dependent one."""
    Q, _, reason = orthonormal_prefixes(space, vectors)
    if reason is not None:
        raise RankDeficient(reason)
    return Q


def adjoint_matrix(space_from, space_to, matrix):
    """Matrix of the adjoint of a linear map between two Gram spaces.

    For T : space_from -> space_to with coordinate matrix A, the adjoint
    T* : space_to -> space_from satisfies (T u, v)_to = (u, T* v)_from and has
    coordinate matrix G_from^{-1} A^T G_to, evaluated here with Cholesky
    solves against G_from (A^T G_to = (G_to A)^T, G_to being symmetric).
    A may be sparse; the adjoint matrix is dense.
    """
    A = as_matrix(matrix)
    if A.shape != (space_to.dim, space_from.dim):
        raise DimensionMismatch(
            f"map matrix {A.shape} inconsistent with spaces "
            f"({space_to.dim}, {space_from.dim})"
        )
    return solve_gram(space_from, to_dense(space_to.gram @ A).T)
