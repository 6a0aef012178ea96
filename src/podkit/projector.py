"""Rank-r projection operators assembled from a POD basis.

Every projector is stored in factored form, P x = range @ (dual^T G x), and
applied in O(dim * (r + kd)) work, kd the bandwidth of the sparse Gram G.
Maps and forms may be sparse (every generated map and the default Ritz
form are) and are applied with @.  Only two steps form an n x n array: the
dense_matrix diagnostic, and the Ritz ellipticity, which reduces the pencil
(sym(A), G) to standard form with G's banded Cholesky factor and takes the
eigenvalues of the dense result after checking its bytes against
gram_space.DENSE_BYTES_BUDGET.  op_norm works on the factors, the
pushforward cross-check on one sparse LU (splu) of L^T.
Families:

- "pod_orthogonal": orthogonal projection onto the leading modes.
- "mapped_orthogonal": orthogonal projection, in the codomain, onto the
  span of the mapped modes.
- "ritz": projection onto the mapped modes determined by a bilinear form
  (a(Pu, v) = a(u, v) for all v in the range).
- "pushforward": the domain projection conjugated into the codomain by an
  invertible map, L P L^{-1}.
- "pullback": a codomain projection conjugated back, L^{-1} Q L.

The three codomain families are built once per bundle and sliced per level.
mapped_orthogonal_levels, ritz_levels and pushforward_levels build what is
free of r (ellipticity constants) or nested in r (the mapped modes, their QR,
the Ritz matrix, the pushforward dual basis) for all rank columns and return
a level factory r -> Projector that slices it and runs the level's own
checks (error_lab.codomain_projectors picks one by family name);
pod_projector and pullback_projector build their one level directly.

Provenance fingerprints record which basis, map and form each projector was
built from; composites refuse ingredients that do not match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh, lu_factor, lu_solve
from scipy.linalg.lapack import dtbtrs

from .errors import (
    DimensionMismatch,
    FormNotElliptic,
    IndexOutOfRange,
    NotInvertible,
    ProvenanceMismatch,
    RankDeficientImage,
    RankExceeded,
    SingularRitzSystem,
)
from .gram_space import GramSpace, as_matrix, check_dense_budget, half_weight
from .gram_space import orthonormal_prefixes, solve_gram, to_dense
from .pod_engine import basis_fingerprint, fingerprint

ELLIPTICITY_DEGENERACY = 1e-13
PUSHFORWARD_CROSS_CHECK_TOL = 1e-8


@dataclass
class Projector:
    """Factored rank-r projection operator on a Gram space.

    P x = range_basis @ (dual_basis^T @ (gram @ x)); idempotency follows
    from dual_basis^T G range_basis = I, which every constructor arranges.
    """

    space: GramSpace
    r: int
    range_basis: np.ndarray = field(repr=False)
    dual_basis: np.ndarray = field(repr=False)
    family: str
    provenance: dict = field(default_factory=dict)


def matrix_fingerprint(matrix):
    """Fingerprint of a dense matrix, or of a sparse one's CSR shape, indptr,
    indices and data."""
    if sparse.issparse(matrix):
        M = sparse.csr_array(matrix)
        return fingerprint(np.array(M.shape), M.indptr, M.indices, M.data)
    return fingerprint(matrix)


def apply_projector(proj, x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != proj.space.dim:
        raise DimensionMismatch(
            f"vector of dim {x.shape[0]} under projector on dim {proj.space.dim}"
        )
    return proj.range_basis @ (proj.dual_basis.T @ (proj.space.gram @ x))


def _check_r(basis, r):
    if r < 1:
        raise IndexOutOfRange(f"truncation level must be >= 1, got {r}")
    if r > basis.rank:
        raise RankExceeded(f"requested r = {r} beyond computed rank {basis.rank}")


def pod_projector(basis, r):
    """Orthogonal projection onto the leading r POD modes."""
    _check_r(basis, r)
    Phi = basis.modes[:, :r].copy()
    provenance = {"family": "pod_orthogonal", "basis": basis_fingerprint(basis), "r": r}
    return Projector(basis.space, r, Phi, Phi, "pod_orthogonal", provenance)


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


def _levels(family, basis, lmap, level, **provenance):
    """Level factory r -> codomain Projector; level(r) returns the range and
    dual bases of level r sliced from the family's one-time build."""
    provenance = {
        "family": family,
        "basis": basis_fingerprint(basis),
        "map": matrix_fingerprint(lmap.matrix),
        **provenance,
    }

    def projector(r):
        _check_r(basis, r)
        return Projector(lmap.codomain, r, *level(r), family, {**provenance, "r": r})

    return projector


def mapped_orthogonal_levels(basis, lmap):
    """Orthogonal projection onto the span of the mapped leading modes.

    One Householder QR of all mapped modes; level r takes its leading r
    columns.  Past the first numerically dependent column a level raises
    RankDeficientImage; no deflation is attempted.
    """
    _, leading = _orthonormal_images(basis, lmap)
    return _levels("mapped_orthogonal", basis, lmap, lambda r: (leading(r),) * 2)


def form_ellipticity(space, form):
    """Extreme generalized eigenvalues of the symmetric part of a form.

    Returns (c, C): the smallest and largest eigenvalues of sym(A) against
    the space's Gram matrix G = L L^T.  For symmetric A these are the
    ellipticity and continuity constants of a(u, v) = v^T A u.  As dsygvd
    does, but without densifying G, the pencil is reduced to the standard
    form L^{-1} sym(A) L^{-T} by two banded dtbtrs solves on a dense sym(A);
    its 3 n^2 doubles are checked against DENSE_BYTES_BUDGET first.  (A
    Lanczos solve fails on a form with no symmetric part and stalls when c
    is tiny against C.)
    """
    A = as_matrix(form)
    if A.shape != (space.dim, space.dim):
        raise DimensionMismatch(f"form {A.shape} on space of dim {space.dim}")
    check_dense_budget(3, (space.dim,) * 2, "the Ritz ellipticity eigensolve")
    sym = to_dense(A + A.T)
    sym *= 0.5
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
    level r has range Q_r and dual G^{-1} A^T Q_r B_r^{-T}.  That is
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
    B = Q.T @ (A @ Q)
    GAQ = solve_gram(lmap.codomain, A.T @ Q)

    def level(r):
        Q_r, B_r = leading(r), B[:r, :r]
        rcond = 1.0 / np.linalg.cond(B_r)
        if not np.isfinite(rcond) or rcond < 1e-14:
            raise SingularRitzSystem(f"reciprocal condition {rcond:.3e}")
        return Q_r, lu_solve(lu_factor(B_r), GAQ[:, :r].T).T

    return _levels(
        "ritz", basis, lmap, level,
        form=matrix_fingerprint(A), ellipticity=c_low, continuity=c_high,
    )


def pushforward_levels(lmap, basis):
    """The mode projection conjugated into the codomain: L P L^{-1}.

    The dual vectors are the codomain representers of y -> (L^{-1} y, phi_k);
    they equal the inverse-adjoint images of the modes.  Both evaluation
    routes are assembled once for all modes, and at every level r their
    leading r columns must agree to PUSHFORWARD_CROSS_CHECK_TOL, which guards the
    certified inverse against a stale or inconsistent matrix.  The second
    route solves the adjoint system L* d = phi, that is L^T (G_y d) = G_x phi,
    with one sparse LU of L^T (splu, for a dense L too) and one Gram solve.
    """
    if lmap.inverse is None:
        raise NotInvertible("pushforward projector needs an invertible map")
    V, Phi = _mapped_modes(basis, lmap), basis.modes
    G_x_Phi = basis.space.gram @ Phi
    # Route one: representers via the inverse matrix.
    dual = solve_gram(lmap.codomain, lmap.inverse.T @ G_x_Phi)
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
        return V[:, :r], dual[:, :r]

    return _levels("pushforward", basis, lmap, level)


def pullback_projector(lmap, inner_proj, r):
    """A codomain projection conjugated back to the domain: L^{-1} Q L.

    inner_proj must be a projector on the map's codomain built from the same
    map at the same truncation level; anything else raises
    ProvenanceMismatch.  When the inner projection fixes the mapped modes,
    the result fixes the modes themselves.
    """
    if lmap.inverse is None:
        raise NotInvertible("pullback projector needs an invertible map")
    if inner_proj.space.dim != lmap.codomain.dim:
        raise DimensionMismatch("inner projector does not live on the codomain")
    if inner_proj.r != r:
        raise ProvenanceMismatch(
            f"inner projector has r = {inner_proj.r}, requested {r}"
        )
    inner_map_fp = inner_proj.provenance.get("map")
    if inner_map_fp is not None and inner_map_fp != matrix_fingerprint(lmap.matrix):
        raise ProvenanceMismatch("inner projector was built from a different map")
    rng = lmap.inverse @ inner_proj.range_basis
    # L* D = G_x^{-1} L^T G_y D, without the n x n adjoint matrix
    dual = solve_gram(lmap.domain, lmap.matrix.T @ (lmap.codomain.gram @ inner_proj.dual_basis))
    provenance = {
        "family": "pullback",
        "map": matrix_fingerprint(lmap.matrix),
        "inner": dict(inner_proj.provenance),
        "r": r,
    }
    return Projector(lmap.domain, r, rng, dual, "pullback", provenance)


def dense_matrix(proj):
    """The dim x dim matrix of the projector (diagnostics only)."""
    return proj.range_basis @ (proj.space.gram @ proj.dual_basis).T


def op_norm(proj):
    """Operator norm of the projector in the space's own norm.

    With G = L L^T, ||P|| = ||L^T P L^{-T}||_2 = ||(L^T R)(L^T D)^T||_2 for
    the range basis R and dual basis D.  Thin QRs L^T R = Q_R S_R and
    L^T D = Q_D S_D reduce this to the largest singular value of the r x r
    product S_R S_D^T.  Orthogonal families return 1 up to round-off, the
    form-determined family is bounded by its continuity-to-ellipticity ratio.
    """
    S_range = np.linalg.qr(half_weight(proj.space, proj.range_basis), mode="r")
    S_dual = np.linalg.qr(half_weight(proj.space, proj.dual_basis), mode="r")
    return float(np.linalg.svd(S_range @ S_dual.T, compute_uv=False)[0])
