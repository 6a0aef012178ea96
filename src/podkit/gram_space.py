"""Finite-dimensional real inner-product spaces defined by Gram matrices.

A space is just R^n equipped with the inner product (u, v) = v^T G u for a
symmetric positive definite G.  The Cholesky factor of G is computed once at
construction; every routine that needs G^{-1} goes through triangular solves
with that factor, never through an explicit inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import (
    DimensionMismatch,
    NegativeQuadraticForm,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
)

SYMMETRY_RTOL = 1e-13
NORM_CLAMP = 1e-14
ORTH_DROP_TOL = 1e-12


@dataclass
class GramSpace:
    """R^dim with the inner product induced by an SPD Gram matrix.

    Attributes
    ----------
    dim : int
        Dimension of the space.
    gram : ndarray, shape (dim, dim)
        Symmetric positive definite Gram matrix (symmetrized copy).
    chol : ndarray, shape (dim, dim)
        Lower-triangular Cholesky factor, gram = chol @ chol.T.
    """

    dim: int
    gram: np.ndarray
    chol: np.ndarray


def make_space(gram):
    """Validate a Gram matrix and build the space around it.

    Parameters
    ----------
    gram : array_like, shape (n, n)
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
        If the Cholesky factorization fails.
    """
    G = np.asarray(gram, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"gram must be square, got shape {G.shape}")
    scale = np.linalg.norm(G)
    skew = np.linalg.norm(G - G.T)
    if skew > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetric(
            f"gram asymmetry {skew:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    G = 0.5 * (G + G.T)
    try:
        L = cholesky(G, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    except Exception as exc:  # scipy raises its own LinAlgError type
        raise NotPositiveDefinite(str(exc)) from None
    return GramSpace(dim=G.shape[0], gram=G, chol=L)


def identity_space(dim):
    """Euclidean R^dim (identity Gram matrix)."""
    eye = np.eye(dim)
    return GramSpace(dim=dim, gram=eye, chol=eye.copy())


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
    """G^{-1} rhs through the cached Cholesky factor."""
    rhs = _check_dim(space, rhs)
    return cho_solve((space.chol, True), rhs)


def half_weight(space, u):
    """chol^T u, the change of variables that turns the G-norm Euclidean.

    Satisfies ||half_weight(space, u)||_2 = norm(space, u); applied to the
    columns of a matrix it realizes Hilbert-Schmidt norms as plain Frobenius
    norms.
    """
    u = _check_dim(space, u)
    return space.chol.T @ u


def half_weight_inv(space, u):
    """Inverse of half_weight: chol^{-T} u via a triangular solve."""
    u = _check_dim(space, u)
    return solve_triangular(space.chol, u, lower=True, trans="T")


def orthonormal_prefixes(space, vectors):
    """Orthonormalization of every leading block of columns by one QR.

    Factors chol^T V = Q R with diag(R) > 0 and returns (chol^{-T} Q, k,
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
    solves against G_from.
    """
    A = np.asarray(matrix, dtype=float)
    if A.shape != (space_to.dim, space_from.dim):
        raise DimensionMismatch(
            f"map matrix {A.shape} inconsistent with spaces "
            f"({space_to.dim}, {space_from.dim})"
        )
    return cho_solve((space_from.chol, True), A.T @ space_to.gram)
