"""Reference implementations that the tests compare the library against,
the seeded random instances the property suites draw, and the operators
that the certificate never forms but the tests reason with: inner products,
norms, Gram solves and orthonormalization, the snapshot operator K and its
adjoint, adjoint matrices, the FEM convection form, the factored projector
with its apply and its conversions to and from podkit's whitened levels,
the mode and pulled-back projections, dense projector matrices and
operator norms, the POD optimality oracle, the L^2 / H^1 identity-embedding instances and the
flagship's set, spaces and map, built from the specs generate-fhn writes.

They live here, not in podkit, so that a check never shares code with the
route it checks, and so that podkit holds only what its command line runs
(test_surface.py asserts it).
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded

from podkit.errors import DimensionMismatch, NotInvertible, RankDeficientImage, RankExceeded
from podkit.fhn_gen import EMBEDDING_SNAPSHOTS, make_fhn_instance, synthetic_states
from podkit.gram_space import GramSpace, as_matrix, half_weight, half_weight_inv, make_space
from podkit.gram_space import to_dense
from podkit.linear_map import build_map_from_spec, identity_map, make_map
from podkit.pod_engine import compute_pod
from podkit.projector import orthonormal_prefixes
from podkit.snapshot_io import from_trajectory, make_snapshot_set, resolve_gram_spec


# -- inner products ------------------------------------------------------------

def inner(space, u, v):
    """Inner product (u, v) = v^T G u; for matrices of column vectors, the
    matrix of pairwise products, [i, j] entry (u_j, v_i)."""
    return np.asarray(v, dtype=float).T @ (space.gram @ np.asarray(u, dtype=float))


def norm(space, u):
    """The norm sqrt(u^T G u) of one vector."""
    return float(np.sqrt(inner(space, u, u)))


def solve_gram(space, rhs):
    """G^{-1} rhs through the space's banded Cholesky factor (dpbtrs)."""
    return cho_solve_banded((space.chol, True), np.asarray(rhs, dtype=float))


def weighted_prefixes(space, vectors):
    """projector.orthonormal_prefixes in the space's inner product: the QR
    of the whitened columns, its Q taken back to natural coordinates."""
    V = np.asarray(vectors, dtype=float)
    Q, k, reason = orthonormal_prefixes(half_weight(space, V[:, None] if V.ndim == 1 else V))
    return half_weight_inv(space, Q), k, reason


def orthonormalize(space, vectors):
    """Orthonormalization of all columns in the space's inner product, the
    references' Gram-Schmidt: weighted_prefixes, raising RankDeficientImage
    at a numerically dependent column."""
    Q, _, reason = weighted_prefixes(space, vectors)
    if reason is not None:
        raise RankDeficientImage(reason)
    return Q


# -- the snapshot operator and the POD optimality oracle ----------------------

def apply_K(sset, coeffs):
    """Weighted combination of the snapshots: K c = sum_j g_j c_j w_j."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 1:
        return sset.data @ (sset.weights * coeffs)
    return sset.data @ (sset.weights[:, None] * coeffs)


def apply_K_adjoint(sset, space, x):
    """Adjoint of the snapshot operator: (K* x)_j = (x, w_j)_X."""
    return sset.data.T @ (space.gram @ np.asarray(x, dtype=float))


def hs_norm_sq(sset, space=None):
    """Total weighted data energy sum_j g_j ||w_j||_X^2.

    Equals the squared Hilbert-Schmidt norm of the snapshot operator, and by
    the spectral identity also the sum of all POD eigenvalues.
    """
    A = half_weight(sset.space if space is None else space, sset.data)
    return float(np.einsum("ij,ij,j->", A, A, sset.weights))


def tail_energy(basis, r):
    """Sum of eigenvalues beyond index r over the whole computed spectrum."""
    return float(np.sum(basis.eigenvalues[r:]))


def optimality_oracle(sset, space, r, trials=8, seed=0):
    """Check POD optimality against random rank-r competitor families.

    Every competitor approximates snapshot j by a combination of r fixed
    vectors; its weighted squared error can never fall below the POD tail
    energy.  Competitors of three kinds are drawn: random vectors with random
    coefficients, random vectors with optimal (projection) coefficients, and
    the POD modes themselves, which must achieve the tail exactly.

    Returns a dict with the POD tail, each competitor's error, and whether
    the lower bound held with slack 1e-10.
    """
    basis = compute_pod(sset)
    if r < 0 or r > basis.rank:
        raise RankExceeded(f"r = {r} outside [0, {basis.rank}]")
    pod_error = tail_energy(basis, r)
    rng = np.random.default_rng(seed)
    W = sset.data

    def weighted_error(approx):
        A = half_weight(space, W - approx)
        return float(np.einsum("ij,ij,j->", A, A, sset.weights))

    def best_coeffs(eta):
        Q = orthonormalize(space, eta)
        return Q @ (Q.T @ (space.gram @ W))

    errors = []
    for t in range(trials):
        eta = rng.standard_normal((sset.space_dim, r))
        if t % 2 == 0:
            errors.append(weighted_error(eta @ rng.standard_normal((r, sset.count))))
        else:
            errors.append(weighted_error(best_coeffs(eta)))
    if r:
        errors.append(weighted_error(best_coeffs(basis.modes[:, :r])))
    else:
        errors.append(weighted_error(np.zeros_like(W)))
    return {
        "r": r,
        "pod_error": pod_error,
        "competitor_errors": errors,
        "min_competitor": min(errors),
        "all_ge": all(e >= pod_error - 1e-10 for e in errors),
        "trials": trials,
    }


# -- maps: application and adjoints -------------------------------------------

def apply(lmap, x):
    return lmap.matrix @ np.asarray(x, dtype=float)


def adjoint_matrix(space_from, space_to, matrix):
    """Matrix of the adjoint of a linear map between two Gram spaces.

    For T : space_from -> space_to with coordinate matrix A, the adjoint
    T* : space_to -> space_from satisfies (T u, v)_to = (u, T* v)_from and has
    coordinate matrix G_from^{-1} A^T G_to (A^T G_to = (G_to A)^T, G_to
    being symmetric).  A may be sparse; the adjoint matrix is dense.
    """
    A = as_matrix(matrix)
    if A.shape != (space_to.dim, space_from.dim):
        raise DimensionMismatch(
            f"map matrix {A.shape} inconsistent with spaces ({space_to.dim}, {space_from.dim})"
        )
    return solve_gram(space_from, to_dense(space_to.gram @ A).T)


def adjoint(lmap):
    """Matrix of the adjoint map codomain -> domain."""
    return adjoint_matrix(lmap.domain, lmap.codomain, lmap.matrix)


def apply_inverse(lmap, y):
    """L^{-1} y by the certified inverse; NotInvertible without one."""
    if lmap.inverse is None:
        raise NotInvertible("map has no certified inverse")
    return lmap.inverse @ np.asarray(y, dtype=float)


def inverse_adjoint(lmap):
    """Matrix of the adjoint of the inverse, domain -> codomain."""
    if lmap.inverse is None:
        raise NotInvertible("map has no certified inverse")
    return adjoint_matrix(lmap.codomain, lmap.domain, lmap.inverse)


# -- projections the battery certifies through but never forms ----------------

@dataclass
class Projector:
    """Factored rank-r projection operator on a Gram space.

    P x = range_basis @ (dual_basis^T @ (gram @ x)): the dual basis holds the
    representers G^{-1} F of the functionals F that podkit stores, so that
    dual_basis^T G range_basis = I.  The rank r is the column count of
    either basis.
    """

    space: GramSpace
    range_basis: np.ndarray = field(repr=False)
    dual_basis: np.ndarray = field(repr=False)


def apply_projector(proj, x):
    x = np.asarray(x, dtype=float)
    if x.shape[0] != proj.space.dim:
        raise DimensionMismatch(
            f"vector of dim {x.shape[0]} under projector on dim {proj.space.dim}"
        )
    return proj.range_basis @ (proj.dual_basis.T @ (proj.space.gram @ x))


def level_projector(space, level):
    """The Projector of one whitened level (R~, F~) of a podkit level factory
    on space, G = C C^T: range C^{-T} R~ and dual basis G^{-1} F =
    C^{-T} F~, as F~ = C^{-1} F."""
    R, F = level
    return Projector(space, half_weight_inv(space, R), half_weight_inv(space, F))


def whitened_pair(proj):
    """A Projector as podkit stores a level, in whitened coordinates: range
    C^T R and functionals C^{-1} F, G = C C^T, F = G D for the dual basis
    D.  C^{-1} F is computed as C^T D, by a banded product: forming F = G D
    first would cancel (|G| |D| reaches 4e6 |G D| on a 1,000-node H^1 Gram)."""
    return half_weight(proj.space, proj.range_basis), half_weight(proj.space, proj.dual_basis)


def pod_projector(basis, r):
    """Orthogonal projection onto the leading r POD modes."""
    if not 1 <= r <= basis.rank:
        raise RankExceeded(f"r = {r} outside [1, {basis.rank}]")
    Phi = basis.modes[:, :r].copy()
    return Projector(basis.space, Phi, Phi)


def pullback_projector(lmap, inner_proj):
    """A codomain projection conjugated back to the domain: L^{-1} Q L.

    When the inner projection fixes the mapped modes, the result fixes the
    modes themselves.
    """
    if lmap.inverse is None:
        raise NotInvertible("pullback projector needs an invertible map")
    rng = lmap.inverse @ inner_proj.range_basis
    # L* D = G_x^{-1} L^T G_y D, without the n x n adjoint matrix
    dual = solve_gram(lmap.domain, lmap.matrix.T @ (lmap.codomain.gram @ inner_proj.dual_basis))
    return Projector(lmap.domain, rng, dual)


def dense_matrix(proj):
    """The dim x dim matrix of the projector."""
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


# -- instances ----------------------------------------------------------------

def convection(nodes):
    """The first-derivative form (u', v) of the nodal hat functions on the
    uniform mesh of [0, 1], tridiagonal: skew apart from the boundary terms,
    so adding it to an elliptic form makes a nonsymmetric elliptic form."""
    n = int(nodes)
    off = np.full(n - 1, 0.5)
    boundary = np.zeros(n)
    boundary[[0, -1]] = -0.5, 0.5
    return sparse.diags_array([-off, boundary, off], offsets=(-1, 0, 1), format="csr")


def make_embedding_instance(nodes, which, seed=None):
    """Identity-embedding instance between the L^2 and H^1 inner products.

    which = 1: ambient L^2, codomain H^1 (the natural embedding direction
    reversed: the map is the identity, only the norms change); the set and
    map of generate-synthetic and its map spec.
    which = 2: ambient H^1, codomain L^2.
    which = 3: variant of 1 that also carries the H^1 bilinear form for the
    form-determined projection family.

    Returns a dict with the snapshot set (fhn_gen.synthetic_states reduced
    on the ambient space, seed 100 + which by default, so layout 1 is
    fhn_gen.embedding_set), both spaces, the sparse identity map (with its
    exact inverse), and the form as a CSR array (or None).
    """
    if which not in (1, 2, 3):
        raise DimensionMismatch(f"embedding instance must be 1, 2 or 3, got {which}")
    space_x = resolve_gram_spec({"fem_stiffness" if which == 2 else "fem_mass": nodes}, nodes)
    seed = 100 + which if seed is None else seed
    tgrid, states = synthetic_states(nodes, EMBEDDING_SNAPSHOTS, seed)
    sset = from_trajectory(tgrid, states, space=space_x)
    space_y = resolve_gram_spec({"fem_mass" if which == 2 else "fem_stiffness": nodes}, nodes)
    return {
        "set": sset,
        "space_x": sset.space,
        "space_y": space_y,
        "map": identity_map(sset.space, space_y),
        "form": space_y.gram if which == 3 else None,
    }


def make_fhn_dict(config=None):
    """generate-fhn's bundle as the suites read it: the snapshot set, both
    spaces and the derivative map, built from the returned map spec as the
    command line builds it from the bundle's map file."""
    sset, _, map_spec = make_fhn_instance(config)
    lmap, _ = build_map_from_spec(json.dumps(map_spec), sset)
    return {"set": sset, "space_x": sset.space, "space_y": lmap.codomain, "map": lmap}


def induced_snapshots(lmap, sset):
    """Push a snapshot set through the map; weights and kind are preserved.

    Its POD is the reference for pod_engine.image_spectrum, which reads the
    same spectrum off the data without forming the image set's vectors, and
    for the image rank of error_lab.rank_relation.
    """
    if sset.space_dim != lmap.domain.dim:
        raise DimensionMismatch(
            f"snapshots of dim {sset.space_dim} through map from dim {lmap.domain.dim}"
        )
    return make_snapshot_set(
        lmap.matrix @ sset.data,
        sset.weights.copy(),
        kind=sset.kind,
        grid=None if sset.grid is None else sset.grid.copy(),
        space=lmap.codomain,
    )


def _random_spd_space(rng, dim):
    A = rng.standard_normal((dim, dim))
    return make_space((A.T @ A + dim * np.eye(dim)) / dim)


def _random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))[None, :]


def random_instance(
    dim,
    s,
    seed,
    invertible=True,
    dim_y=None,
    map_rank=None,
    data_rank=None,
    kind="discrete",
):
    """Seeded random weighted-POD instance with a controlled spectrum.

    Data columns are synthesized from an exact-rank SVD with log-uniform
    singular values, so the numerical rank is unambiguous; Gram matrices are
    random SPD with eigenvalues of order one; invertible maps are random
    orthogonal-diagonal-orthogonal products with condition at most four.
    Rank-deficient or rectangular maps are produced by the matching knobs.

    Returns a dict with the snapshot set, both spaces, and the map.
    """
    rng = np.random.default_rng(seed)
    space_x = _random_spd_space(rng, dim)
    dim_y = dim if dim_y is None else dim_y
    space_y = _random_spd_space(rng, dim_y)

    rk = min(dim, s) if data_rank is None else min(data_rank, dim, s)
    U = _random_orthogonal(rng, dim)[:, :rk]
    V = _random_orthogonal(rng, s)[:, :rk]
    sv = np.exp(rng.uniform(np.log(0.3), np.log(3.0), rk))
    data = U @ (sv[:, None] * V.T)

    if invertible:
        if dim_y != dim:
            raise DimensionMismatch("invertible instances need equal dimensions")
        d = np.exp(rng.uniform(np.log(0.5), np.log(2.0), dim))
        matrix = _random_orthogonal(rng, dim) @ (
            d[:, None] * _random_orthogonal(rng, dim).T
        )
        lmap = make_map(space_x, space_y, matrix, invertible=True)
    else:
        mrk = min(dim, dim_y) if map_rank is None else min(map_rank, dim, dim_y)
        d = np.exp(rng.uniform(np.log(0.5), np.log(2.0), mrk))
        matrix = _random_orthogonal(rng, dim_y)[:, :mrk] @ (
            d[:, None] * _random_orthogonal(rng, dim)[:, :mrk].T
        )
        lmap = make_map(space_x, space_y, matrix)

    if kind == "continuous":
        t0 = np.cumsum(rng.uniform(0.05, 1.0, s + 1))
        grid = t0 - t0[0]
        sset = make_snapshot_set(
            data, np.diff(grid), kind="continuous", grid=grid, space=space_x
        )
    else:
        weights = rng.uniform(0.5, 2.0, s)
        sset = make_snapshot_set(data, weights, kind="discrete", space=space_x)
    return {"set": sset, "space_x": space_x, "space_y": space_y, "map": lmap}
