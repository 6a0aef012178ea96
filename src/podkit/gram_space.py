"""Finite-dimensional real inner-product spaces defined by Gram matrices.

A space is R^n with the inner product (u, v) = v^T G u for a symmetric
positive definite G, kept in O(n kd) memory: G as a scipy.sparse CSR array
and its Cholesky factor C (G = C C^T) in LAPACK lower band storage.  kd is
G's lower bandwidth, its outermost nonzero subdiagonal: 0 for identity and
diagonal Grams, 1 for the FEM Grams, n - 1 for a dense CSV Gram, all through
the same code.  In whitened coordinates a vector v is C^T v, in which the
G-norm is Euclidean, and a functional f is C^{-1} f, so that f^T v is their
dot product; half_weight and half_weight_inv move between the coordinates,
one sparse product or dtbtrs solve whatever kd and the column count, and
whitened_blocks whitens data by column blocks.  The Gram itself is read
only to build C and by the Ritz ellipticity.  A dense step (a CSV Gram or
"matrix" map, a generated snapshot set, the Ritz ellipticity on a wide
band) first checks its bytes against DENSE_BYTES_BUDGET.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    NotSymmetric,
    ProblemTooLarge,
)

SYMMETRY_RTOL = 1e-13
# Bytes one dense step may allocate, 512 MiB: beyond it a CSV Gram
# (snapshot_io.CSV_GRAM_ARRAYS n^2 doubles), an m x n "matrix" map
# (linear_map.MATRIX_CSV_ARRAYS m n), the generated trajectory
# (fhn_gen.TRAJECTORY_ARRAYS 2n (steps + 1)), the synthetic set
# (fhn_gen.SYNTHETIC_ARRAYS n (snapshots + 1)) and the Ritz ellipticity's
# dense eigensolve on a wide band (3 n^2) raise ProblemTooLarge (exit 2)
# rather than run out of memory.
DENSE_BYTES_BUDGET = 2**29
# Bytes of a column block, the size of the data-sized temporaries; a block
# has >= 16 columns, as sparse products slow on fewer (30,000 nodes: 25%).
COLUMN_BLOCK_BYTES = 2**19


def column_blocks(rows, cols, min_width=1):
    """Column slices of COLUMN_BLOCK_BYTES of rows doubles, >= min_width, 16."""
    width = max(min_width, 16, COLUMN_BLOCK_BYTES // (8 * max(rows, 1)))
    return [slice(j, min(j + width, cols)) for j in range(0, cols, width)]


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
        Its lower Cholesky factor C in LAPACK lower band storage,
        chol[i, j] = C[j + i, j], kd being the Gram's lower bandwidth.
    """

    dim: int
    gram: sparse.csr_array
    chol: np.ndarray

    @cached_property
    def chol_t(self):
        """C^T as a CSR array, built from the band storage on first use."""
        offsets = -np.arange(self.chol.shape[0])  # the band rows are C's diagonals
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


def half_weight(space, u, adjoint=False):
    """C^T u, the whitening: ||C^T u||_2^2 = u^T G u.  With adjoint, C u,
    which takes a functional's whitened coordinates back to natural ones."""
    u = _check_dim(space, u)
    return (space.chol_t.T if adjoint else space.chol_t) @ u


def half_weight_inv(space, u, adjoint=False):
    """Inverse of half_weight: C^{-T} u, or with adjoint C^{-1} u (the
    whitened coordinates of a functional), by one banded triangular solve."""
    u = _check_dim(space, u)
    if u.size == 0:  # the dtbtrs wrapper crashes on zero right-hand sides
        return np.zeros(u.shape)
    x, _ = dtbtrs(space.chol, u.reshape(space.dim, -1), uplo="L", trans="N" if adjoint else "T")
    return x.reshape(u.shape)


def whitened_blocks(columns, space=None, lmap=None, scale=None, min_width=1):
    """(blk, C_x^T W_b, C_y^T L W_b) for column blocks W_b of the columns W,
    scaled by scale first, the second None without a space and the third
    without a map: how the POD, the image spectrum and every residual whiten
    data, a block of the larger dimension's COLUMN_BLOCK_BYTES (>= min_width
    columns) at a time, so no whitened copy of the whole data is held."""
    rows = max(len(columns), 0 if lmap is None else lmap.codomain.dim)
    for blk in column_blocks(rows, columns.shape[1], min_width):
        W = columns[:, blk] if scale is None else columns[:, blk] * scale[blk]
        X = None if space is None else half_weight(space, W)
        yield blk, X, None if lmap is None else half_weight(lmap.codomain, lmap.matrix @ W)
