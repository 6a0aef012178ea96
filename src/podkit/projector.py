"""Rank-r codomain projections assembled from a POD basis.

A projection P is stored as the pair it is applied by in whitened
coordinates y~ = C_y^T y (G_y = C_y C_y^T): range R~ and functionals F~,
P~ y~ = R~ (F~^T y~), F~^T R~ = I.  A natural pair (R, F) reads
(C_y^T R, C_y^{-1} F), so applying a level forms no Gram product or solve.
Maps and forms may be sparse and are applied with @; only the Ritz
ellipticity on a wide band forms an n x n array.  Families, with
V~ = C_y^T L Phi the whitened mapped modes, Q~ from one QR of V~,
Q = C_y^{-T} Q~, B = Q^T A Q and U = C_x^T Phi the basis's left vectors:

- "orthogonal": orthogonal projection, in the codomain, onto the
  span of the mapped modes: (Q~, Q~).
- "ritz": projection onto the mapped modes determined by a bilinear form
  (a(Pu, v) = a(u, v) for all v in the range): (Q~, C_y^{-1} A^T Q B^{-T}).
- "composite-xy": the pushforward, the domain projection conjugated into
  the codomain by an invertible map, L P L^{-1}: (V~, C_y^{-1} L^{-T} C_x U),
  read from the inverse the map certified when it was built.

mapped_orthogonal_levels, ritz_levels and pushforward_levels, each taking
(basis, lmap) first, build a family once for all rank columns and return
its Levels, which slice level r and run its own checks; error_lab.check_level
holds r to 1..rank.  error_lab.certifier is the one caller, so a projection
built from another map or basis never reaches a battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh, lu_factor, lu_solve
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .errors import DimensionMismatch, FormNotElliptic, NotInvertible, RankDeficientImage
from .errors import SingularRitzSystem
from .gram_space import _lower_band, as_matrix, check_dense_budget, half_weight, half_weight_inv

ELLIPTICITY_DEGENERACY = 1e-13
ORTH_DROP_TOL = 1e-12


@dataclass(frozen=True)
class Levels:
    """A family for every rank column: level r is levels(r) = (range[:, :r],
    functionals(r)), the latter running level r's own checks."""

    range: np.ndarray
    functionals: Callable

    def __call__(self, r):
        return self.range[:, :r], self.functionals(r)


def whitened_images(basis, lmap, columns=None):
    """V~ = C_y^T L Phi for the modes modes_full[:, :columns], by default all."""
    if lmap.domain.dim != basis.space.dim:
        raise DimensionMismatch("map domain does not hold the POD modes")
    return half_weight(lmap.codomain, lmap.matrix @ basis.modes_full[:, :columns])


def orthonormal_prefixes(vectors):
    """Gram-Schmidt of every leading block of columns by one QR V = Q R,
    diag(R) > 0: returns (Q, k, reason), column k being the first whose
    pivot |R_kk| is at most ORTH_DROP_TOL times the largest up to it (it lies
    numerically in the span of the previous ones), reason stating that
    pivot; with no such column k is the column count and reason None."""
    Q, R = np.linalg.qr(vectors)
    diag = np.diag(R)
    # Columns beyond the dimension have no pivot of their own: zero.
    pivots = np.abs(np.append(diag, np.zeros(vectors.shape[1] - diag.size)))
    largest = np.maximum.accumulate(pivots)
    dependent = np.flatnonzero(pivots <= ORTH_DROP_TOL * largest)
    k, reason = vectors.shape[1], None
    if dependent.size:
        k = int(dependent[0])
        reason = f"column {k} has pivot {pivots[k]:.3e} against largest pivot {largest[k]:.3e}"
    return Q * np.sign(diag), k, reason


def mapped_orthogonal_levels(basis, lmap):
    """Orthogonal projection onto the span of the mapped leading modes: level
    r is (Q~_r, Q~_r), Q~ from one QR of the rank columns of V~.  Past the
    first numerically dependent column a level raises RankDeficientImage;
    no deflation is attempted."""
    Q, usable, reason = orthonormal_prefixes(whitened_images(basis, lmap, basis.rank))

    def leading(r):
        if r > usable:
            raise RankDeficientImage(f"mapped modes are numerically dependent: {reason}")
        return Q[:, :r]

    return Levels(Q, leading)


def _definite_sup(S, G):
    """The sup of the t at which dpbtrf factors S - t G (band storage of equal
    depth), bisected on integer keys ordered as the floats: <= 64 steps."""
    def definite(t):  # a NaN pivot can pass dpbtrf, never the diagonal check
        L, info = dpbtrf(S - t * G, lower=1, overwrite_ab=1)
        return info == 0 and np.isfinite(L[0]).all()
    hi = (S[0] / G[0]).min()  # a Rayleigh quotient, so no less than the sup
    lo = hi - (abs(hi) or 1.0)
    while not definite(lo):  # widen the bracket by doubling
        if not np.isfinite(lo):
            raise FormNotElliptic(f"S - t G is not definite for any finite t below {hi}")
        hi, lo = lo, lo - 2 * (hi - lo)
    lo, hi = (int(k) for k in np.float64([lo, hi]).view(np.int64))
    lo, hi = (k if k >= 0 else -(k & 2**63 - 1) for k in (lo, hi))  # keys in float order
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = float(np.copysign(np.int64(abs(mid)).view(np.float64), mid))
        lo, hi = (mid, hi) if definite(t) else (lo, mid)
    return float(np.copysign(np.int64(abs(hi)).view(np.float64), hi))


def form_ellipticity(space, form):
    """Extreme generalized eigenvalues of the symmetric part of a form.

    Returns (c, C), the extreme eigenvalues of S = sym(A) against the Gram G,
    (0, 0) if S has no nonzeros: for symmetric A, the ellipticity and
    continuity constants of v^T A u.  S - t G is definite exactly when t < c
    (Sylvester's law of inertia), so c is bisected on banded Cholesky
    factorizations, O(n kd^2) each, and C likewise on -S; both carry an
    error of order u kappa(G) (C = 1 + 1.7e-9 on the 3,000-node H^1 Gram).
    Where cheaper, 10/3 n^3 against 2 * 64 n (kd + 1)^2 flops, the dense
    eigensolve of L^{-1} S L^{-T} (G = L L^T) runs instead, within budget.
    """
    A = as_matrix(form)
    if A.shape != (space.dim, space.dim):
        raise DimensionMismatch(f"form {A.shape} on space of dim {space.dim}")
    S = sparse.csr_array((A + A.T) * 0.5)
    if S.count_nonzero() == 0:
        return 0.0, 0.0
    bands = _lower_band(S), _lower_band(space.gram)
    kd, n = max(map(len, bands)) - 1, space.dim
    if 2 * 64 * n * (kd + 1) ** 2 <= 10 / 3 * n**3:
        S_band, G_band = (np.pad(b, ((0, kd + 1 - len(b)), (0, 0))) for b in bands)
        return _definite_sup(S_band, G_band), -_definite_sup(-S_band, G_band)
    check_dense_budget(3, (n, n), "the Ritz ellipticity eigensolve")
    sym = S.toarray()
    # sym is exactly symmetric, so sym.T is it in Fortran order: solved in place
    half, _ = dtbtrs(space.chol, sym.T, uplo="L", overwrite_b=True)
    reduced, _ = dtbtrs(space.chol, half.T, uplo="L", overwrite_b=True)
    vals = eigvalsh(reduced, overwrite_a=True)
    return float(vals[0]), float(vals[-1])


def ritz_levels(basis, lmap, form):
    """Form-determined projection onto the mapped leading modes.

    The projection P y solves a(P y, v) = a(y, v) for all v in the span of
    the mapped modes, where a(u, v) = v^T A u on the codomain.  The symmetric
    part of A must be positive definite against the codomain Gram matrix.
    Level r is (Q~_r, C_y^{-1} A^T Q_r B_r^{-T}), Q = C_y^{-T} Q~ from the
    QR and pivot rule of mapped_orthogonal_levels and B = Q^T A Q, so
    P = Q_r B_r^{-1} Q_r^T A: that is V_r (V_r^T A V_r)^{-1} V_r^T A, but B_r
    is as well conditioned as the form.  Past the first dependent mapped
    mode a level raises RankDeficientImage.
    """
    A = as_matrix(form)
    c_low, c_high = form_ellipticity(lmap.codomain, A)
    if c_low <= ELLIPTICITY_DEGENERACY * max(abs(c_high), 1e-300):
        raise FormNotElliptic(
            f"symmetric part has smallest eigenvalue {c_low:.3e} "
            f"against largest {c_high:.3e}"
        )
    orthogonal = mapped_orthogonal_levels(basis, lmap)
    Q = half_weight_inv(lmap.codomain, orthogonal.range)
    B, AtQ = Q.T @ (A @ Q), half_weight_inv(lmap.codomain, A.T @ Q, adjoint=True)

    def functionals(r):
        orthogonal.functionals(r)  # the orthogonal family's guard
        B_r = B[:r, :r]
        rcond = 1.0 / np.linalg.cond(B_r)
        if not np.isfinite(rcond) or rcond < 1e-14:
            raise SingularRitzSystem(f"reciprocal condition {rcond:.3e}")
        return lu_solve(lu_factor(B_r), AtQ[:, :r].T).T

    return Levels(orthogonal.range, functionals)


def pushforward_levels(basis, lmap):
    """The mode projection conjugated into the codomain: L P L^{-1}.

    Level r is (V~_r, N_r), N = C_y^{-1} L^{-T} C_x U the whitened
    functionals y -> (L^{-1} y, phi_k) of the rank modes (C_x U = G_x Phi),
    formed once from the map's inverse, which LinearMap certified.
    """
    if lmap.inverse is None:
        raise NotInvertible("pushforward projector needs an invertible map")
    modes = half_weight(basis.space, basis.left_full[:, : basis.rank], adjoint=True)
    N = half_weight_inv(lmap.codomain, lmap.inverse.T @ modes, adjoint=True)
    return Levels(whitened_images(basis, lmap, basis.rank), lambda r: N[:, :r])
