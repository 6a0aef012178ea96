"""Rank-r codomain projections assembled from a POD basis.

Every projection P is stored as the pair it is applied by, its range R and
its coefficient functionals F: P y = R (F^T y), F^T R = I, with no Gram
solve or product.  The dual basis G^{-1} F is solved only for the
pushforward's cross-check.  Maps and forms may be sparse and are applied
with @.  Only the Ritz ellipticity on a wide band forms an n x n array; the
pushforward cross-check runs on one sparse LU (splu) of L^T.  Families, Q
the G-orthonormalized mapped modes and B = Q^T A Q:

- "orthogonal": orthogonal projection, in the codomain, onto the
  span of the mapped modes: R = Q, F = G Q.
- "ritz": projection onto the mapped modes determined by a bilinear form
  (a(Pu, v) = a(u, v) for all v in the range): R = Q, F = A^T Q B^{-T}.
- "composite-xy": the pushforward, the domain projection conjugated into
  the codomain by an invertible map, L P L^{-1}: R = L Phi,
  F = L^{-T} G_x Phi.

Each family is built once per bundle and sliced per level.
mapped_orthogonal_levels, ritz_levels and pushforward_levels, each taking
(basis, lmap) first, build what is free of r (ellipticity constants, the
cross-check's sums) or nested in r (the mapped modes, their QR, the Ritz
matrix, the functionals) for all rank columns and return a level factory
r -> (R_r, F_r) that slices it and runs the level's own checks;
error_lab.check_level holds r to 1..rank.  error_lab.certifier is the one caller: it picks the family by name
and owns the factory, so a projection built from another map or basis never
reaches a battery.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh, lu_factor, lu_solve
from scipy.linalg.lapack import dpbtrf, dtbtrs

from .errors import DimensionMismatch, FormNotElliptic, NotInvertible, RankDeficientImage
from .errors import SingularRitzSystem
from .gram_space import _lower_band, as_matrix, check_dense_budget
from .gram_space import orthonormal_prefixes, solve_gram

ELLIPTICITY_DEGENERACY = 1e-13
PUSHFORWARD_CROSS_CHECK_TOL = 1e-8


def _mapped_modes(basis, lmap):
    if lmap.domain.dim != basis.space.dim:
        raise DimensionMismatch("map domain does not hold the POD modes")
    return lmap.matrix @ basis.modes


def _orthonormal_images(basis, lmap):
    """(Q, leading): the mapped modes G-orthonormalized by one QR, and r ->
    Q[:, :r], raising RankDeficientImage past the first dependent column."""
    Q, usable, reason = orthonormal_prefixes(lmap.codomain, _mapped_modes(basis, lmap))

    def leading(r):
        if r > usable:
            raise RankDeficientImage(f"mapped modes are numerically dependent: {reason}")
        return Q[:, :r]

    return Q, leading


def mapped_orthogonal_levels(basis, lmap):
    """Orthogonal projection onto the span of the mapped leading modes.

    One Householder QR of all mapped modes and one Gram product G Q; level r
    is (Q_r, (G Q)_r), their leading r columns.  Past the first numerically
    dependent column a level raises RankDeficientImage; no deflation is
    attempted.
    """
    Q, leading = _orthonormal_images(basis, lmap)
    GQ = lmap.codomain.gram @ Q
    return lambda r: (leading(r), GQ[:, :r])


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
    It is built once on Q, the G-orthonormal mapped modes of
    mapped_orthogonal_levels (same QR and pivot rule), with B = Q^T A Q:
    level r is (Q_r, A^T Q_r B_r^{-T}), so P = Q_r B_r^{-1} Q_r^T A.  That is
    V_r (V_r^T A V_r)^{-1} V_r^T A, as V_r = Q_r R_r, but B_r is as well
    conditioned as the form.  Past the first dependent mapped mode a level
    raises RankDeficientImage.
    """
    A = as_matrix(form)
    c_low, c_high = form_ellipticity(lmap.codomain, A)
    if c_low <= ELLIPTICITY_DEGENERACY * max(abs(c_high), 1e-300):
        raise FormNotElliptic(
            f"symmetric part has smallest eigenvalue {c_low:.3e} "
            f"against largest {c_high:.3e}"
        )
    Q, leading = _orthonormal_images(basis, lmap)
    B, AtQ = Q.T @ (A @ Q), A.T @ Q

    def level(r):
        Q_r, B_r = leading(r), B[:r, :r]
        rcond = 1.0 / np.linalg.cond(B_r)
        if not np.isfinite(rcond) or rcond < 1e-14:
            raise SingularRitzSystem(f"reciprocal condition {rcond:.3e}")
        return Q_r, lu_solve(lu_factor(B_r), AtQ[:, :r].T).T

    return level


def pushforward_levels(basis, lmap):
    """The mode projection conjugated into the codomain: L P L^{-1}.

    Level r is (V_r, F_r), V = L Phi the mapped modes and F = L^{-T} G_x Phi
    the functionals y -> (L^{-1} y, phi_k).  Their representers G_y^{-1} F,
    the inverse-adjoint images of the modes, serve only the cross-check: both
    evaluation routes are assembled once for all modes, and at every level r
    their leading r columns must agree to PUSHFORWARD_CROSS_CHECK_TOL, which
    guards the certified inverse against a stale or inconsistent matrix.
    The second route solves the adjoint system L* d = phi, that is
    L^T (G_y d) = G_x phi, with one sparse LU of L^T (splu, for a dense L
    too) and one Gram solve.
    """
    if lmap.inverse is None:
        raise NotInvertible("pushforward projector needs an invertible map")
    V, Phi = _mapped_modes(basis, lmap), basis.modes
    G_x_Phi = basis.space.gram @ Phi
    # Route one: representers via the inverse matrix.
    F = lmap.inverse.T @ G_x_Phi
    dual = solve_gram(lmap.codomain, F)
    # Route two: solve L* d = phi; level r's mismatch sums its leading columns.
    # imported here: a module-level import costs every process 1.2 MB
    from scipy.sparse.linalg import splu

    G_y_d = splu(sparse.csc_array(lmap.matrix.T)).solve(G_x_Phi)
    adjoint_route = solve_gram(lmap.codomain, G_y_d)
    miss = np.cumsum(np.sum((dual - adjoint_route) ** 2, axis=0))
    scale = np.cumsum(np.sum(dual**2, axis=0))

    def level(r):
        mismatch = np.sqrt(miss[r - 1]) / max(np.sqrt(scale[r - 1]), 1e-300)
        if mismatch > PUSHFORWARD_CROSS_CHECK_TOL:
            raise NotInvertible(f"inverse and adjoint routes disagree by {mismatch:.3e}")
        return V[:, :r], F[:, :r]

    return level
