"""Finite-dimensional real inner-product spaces defined by Gram matrices.

A space is R^n with the inner product (u, v) = v^T G u for a symmetric
positive definite G, kept in O(n kd) memory: G as a Banded matrix (its
diagonals) and its Cholesky factor C (G = C C^T) in LAPACK lower band
storage.  kd is G's lower bandwidth, its outermost nonzero subdiagonal: 0
for identity and diagonal Grams, 1 for the FEM Grams, n - 1 for a dense CSV
Gram, all through the same code.  In whitened coordinates a vector v is
C^T v, in which the G-norm is Euclidean, and a functional f is C^{-1} f, so
that f^T v is their dot product; half_weight and half_weight_inv move
between the coordinates, by a banded product or a banded triangular solve,
and whitened_blocks whitens data by column blocks.  The Gram itself is read
only to build C and by the Ritz ellipticity.  A dense step (a CSV Gram or
"matrix" map, a generated snapshot set, the Ritz ellipticity on a wide
band) first checks its bytes against DENSE_BYTES_BUDGET.

Banded is the one sparse type: every operator podkit generates (FEM mass
and stiffness, the derivative maps, their block diagonals, identities and
diagonals) is one.  The kernels are numpy loops in LAPACK's operation
order, so that no certify command needs scipy: band_cholesky is dpbtf2's,
a product adds each row's terms in column order as a CSR product does,
and the back-substitution C^{-T} u subtracts the sum of its terms as dtbsv
does.  On the flagship's and the 1,000-node L^2 Grams they give LAPACK's
doubles.  Where an OpenBLAS kernel fuses a multiply and an add (dpbtf2's
dsyr update, the forward substitution's daxpy) these loops round twice,
so on the H^1 Gram the last bits can differ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# has >= 16 columns, as a banded product costs a loop step per diagonal.
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
            f"{what} needs {arrays} dense {rows} x {cols} arrays ({need / 2**20:.1f} MiB), "
            f"over the {DENSE_BYTES_BUDGET / 2**20:.0f} MiB budget"
        )


def _rows(shape, k):
    """The first row of diagonal k of an m x n matrix and one past its last."""
    m, n = shape
    first = max(0, -k)
    return first, max(first, min(m, n - k))


class Banded:
    """An m x n matrix held by its diagonals.

    diags maps an offset k (column minus row) to the entries A[i, i + k] of
    that diagonal, from row max(0, -k) on, as many as the shape holds.  A
    Banded is never modified once built: A @ X and X @ A (X an ndarray or,
    for A @ X, a Banded), A.T, A + B, A - B, c * A and A.toarray() make new
    arrays, and A.T shares A's diagonals.  A @ X adds each row's terms in
    column order onto zero, as a CSR product does, whatever X's layout.
    """

    __array_ufunc__ = None  # so that ndarray @ Banded and ndarray - Banded defer here

    def __init__(self, diags, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        self.diags = {}
        for k in sorted(diags):
            d = np.asarray(diags[k], dtype=float)
            r0, r1 = _rows(self.shape, k)
            if d.shape != (r1 - r0,):
                raise DimensionMismatch(f"diagonal {k} of shape {d.shape} in a {self.shape} matrix")
            self.diags[int(k)] = d

    @property
    def T(self):
        return Banded({-k: d for k, d in self.diags.items()}, self.shape[::-1])

    @property
    def data(self):
        """Every stored entry, diagonal by diagonal."""
        return np.concatenate([np.zeros(0), *self.diags.values()])

    def diagonal(self, k=0):
        r0, r1 = _rows(self.shape, k)
        return self.diags.get(k, np.zeros(r1 - r0))

    def toarray(self):
        out = np.zeros(self.shape)
        for k, d in self.diags.items():
            rows = np.arange(*_rows(self.shape, k))
            out[rows, rows + k] = d
        return out

    def __matmul__(self, other):
        if isinstance(other, Banded):
            return self._product(other)
        X = np.asarray(other)
        if X.ndim not in (1, 2) or X.shape[0] != self.shape[1]:
            raise ValueError(f"matmul: shapes {self.shape} and {X.shape} do not align")
        out = np.zeros((self.shape[0],) + X.shape[1:], np.result_type(X, float))
        for k, d in self.diags.items():
            r0, r1 = _rows(self.shape, k)
            out[r0:r1] += (d if X.ndim == 1 else d[:, None]) * X[r0 + k : r1 + k]
        return out

    def __rmatmul__(self, other):
        return (self.T @ np.asarray(other).T).T

    def _product(self, other):
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"matmul: shapes {self.shape} and {other.shape} do not align")
        shape, out = (self.shape[0], other.shape[1]), {}
        for ka, da in self.diags.items():
            a0, a1 = _rows(self.shape, ka)
            for kb, db in other.diags.items():
                b0, b1 = _rows(other.shape, kb)
                lo, hi = max(a0, b0 - ka), min(a1, b1 - ka)  # rows i with i + ka in db's rows
                if lo < hi:
                    k = ka + kb
                    c0, c1 = _rows(shape, k)
                    d = out.setdefault(k, np.zeros(c1 - c0))
                    d[lo - c0 : hi - c0] += da[lo - a0 : hi - a0] * db[lo + ka - b0 : hi + ka - b0]
        return Banded(out, shape)

    def __add__(self, other):
        if not isinstance(other, Banded):
            out = np.array(other, dtype=float)
            if out.shape != self.shape:
                raise ValueError(f"add: shapes {self.shape} and {out.shape} differ")
            for k, d in self.diags.items():
                rows = np.arange(*_rows(self.shape, k))
                out[rows, rows + k] += d
            return out
        if other.shape != self.shape:
            raise ValueError(f"add: shapes {self.shape} and {other.shape} differ")
        out = dict(self.diags)
        for k, d in other.diags.items():
            out[k] = out[k] + d if k in out else d
        return Banded(out, self.shape)

    __radd__ = __add__

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return Banded({k: d * scalar for k, d in self.diags.items()}, self.shape)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other


def banded(M):
    """M as a Banded: M itself, or a dense matrix's nonzero diagonals."""
    if isinstance(M, Banded):
        return M
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"a matrix must be 2-D, got shape {A.shape}")
    m, n = A.shape
    return Banded({k: A.diagonal(k).copy() for k in range(1 - m, n) if A.diagonal(k).any()}, A.shape)


def identity(n):
    """The n x n identity as a Banded."""
    return Banded({0: np.ones(n)}, (n, n))


def block_diag(blocks):
    """The block diagonal of Banded blocks, which need not be square."""
    shape, out = tuple(sum(b.shape[i] for b in blocks) for i in (0, 1)), {}
    row = col = 0
    for b in blocks:
        for k, d in b.diags.items():
            g = k + col - row  # the diagonal's offset in the whole matrix
            first, end = _rows(shape, g)
            at = row + _rows(b.shape, k)[0] - first
            out.setdefault(g, np.zeros(end - first))[at : at + d.size] = d
        row, col = row + b.shape[0], col + b.shape[1]
    return Banded(out, shape)


def lower_band(G):
    """LAPACK lower band storage of a square Banded matrix's lower triangle;
    its row count is one more than the outermost nonzero subdiagonal."""
    n = G.shape[0]
    kd = max((-k for k, d in G.diags.items() if k <= 0 and d.any()), default=0)
    band = np.zeros((kd + 1, n))
    for k in range(kd + 1):
        band[k, : n - k] = G.diagonal(-k)
    return band


def band_cholesky(band):
    """The lower Cholesky factor of an SPD matrix, both in LAPACK lower band
    storage, in dpbtf2's operation order: column j takes c = sqrt(d), scales
    the kd entries below it by 1 / c and subtracts their outer product from
    the trailing kd x kd triangle, a contiguous run of the band per column.
    A full band (kd = n - 1 > 0) is a dense matrix, factored by
    numpy.linalg.cholesky (LAPACK's blocked dpotrf) instead of n^2 / 2 loop
    steps.  NotPositiveDefinite at a non-finite entry or a pivot d <= 0."""
    L = np.array(band, dtype=float)
    if not np.isfinite(L).all():
        raise NotPositiveDefinite("the matrix has non-finite entries")
    kd, n = L.shape[0] - 1, L.shape[1]
    if kd == n - 1 > 0:
        dense = np.zeros((n, n))
        for k, row in enumerate(L):  # the lower triangle, which is all dpotrf reads
            dense[np.arange(k, n), np.arange(n - k)] = row[: n - k]
        try:
            dense = np.linalg.cholesky(dense)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(str(exc)) from None
        for k, row in enumerate(L):
            row[: n - k] = dense.diagonal(-k)
        return L
    for j in range(n):
        d = L[0, j]
        if not d > 0.0:
            raise NotPositiveDefinite(f"leading minor of order {j + 1} is not positive definite")
        c = L[0, j] = math.sqrt(d)
        kn = min(kd, n - 1 - j)
        if kn:
            x = L[1 : kn + 1, j] * (1.0 / c)
            L[1 : kn + 1, j] = x
            for q in range(kn):
                L[: kn - q, j + 1 + q] -= x[q:] * x[q]
    return L


@dataclass
class GramSpace:
    """R^dim with the inner product induced by an SPD Gram matrix.

    Attributes
    ----------
    dim : int
        Dimension of the space.
    gram : Banded, shape (dim, dim)
        Symmetric positive definite Gram matrix (symmetrized copy).
    chol : ndarray, shape (kd + 1, dim)
        Its lower Cholesky factor C in LAPACK lower band storage,
        chol[i, j] = C[j + i, j], kd being the Gram's lower bandwidth.
    """

    dim: int
    gram: Banded
    chol: np.ndarray


def make_space(gram):
    """Validate a Gram matrix and build the space around it.

    Parameters
    ----------
    gram : array_like or Banded, shape (n, n)
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
    G = banded(gram)
    if G.shape[0] != G.shape[1]:
        raise DimensionMismatch(f"gram must be square, got shape {G.shape}")
    scale = np.linalg.norm(G.data)
    skew = np.linalg.norm((G - G.T).data)
    if skew > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NotSymmetric(
            f"gram asymmetry {skew:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}"
        )
    G = (G + G.T) * 0.5
    return GramSpace(dim=G.shape[0], gram=G, chol=band_cholesky(lower_band(G)))


def identity_space(dim):
    """Euclidean R^dim (identity Gram matrix, kd = 0)."""
    return GramSpace(dim=dim, gram=identity(dim), chol=np.ones((1, dim)))


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
    n = space.dim
    C_t = Banded({k: row[: n - k] for k, row in enumerate(space.chol)}, (n, n))
    return (C_t.T if adjoint else C_t) @ u


def half_weight_inv(space, u, adjoint=False):
    """Inverse of half_weight: C^{-T} u, or with adjoint C^{-1} u (the
    whitened coordinates of a functional), by a banded triangular solve,
    one row at a time: row i subtracts the dot product of its <= kd
    off-diagonal factor entries with the rows solved before it, then
    divides by C_ii."""
    u = _check_dim(space, u)
    band, n = space.chol, space.dim
    kd = len(band) - 1
    x = np.array(u, dtype=float, order="C")  # one summation order per row, whatever u's layout
    if adjoint:  # C x = u, rows in ascending order; row i of C is rows[i]
        rows = np.zeros((n, kd))
        for k in range(1, kd + 1):
            rows[k:, kd - k] = band[k, : n - k]
        for i in range(n):
            m = min(i, kd)
            if m:
                x[i] -= rows[i, kd - m :] @ x[i - m : i]
            x[i] /= band[0, i]
    else:  # C^T x = u, rows in descending order; row i of C^T is band[:, i]
        for i in range(n - 1, -1, -1):
            m = min(kd, n - 1 - i)
            if m:
                x[i] -= band[1 : m + 1, i] @ x[i + 1 : i + m + 1]
            x[i] /= band[0, i]
    return x


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
