"""Reference implementations that the tests compare the library against,
the seeded random instances the property suites draw, and the operators
that the certificate never forms but the tests reason with: the snapshot
operator K and its adjoint, adjoint matrices, the mode and pulled-back
projections, dense projector matrices and operator norms, the POD
optimality oracle and the L^2 / H^1 identity-embedding instances.

They live here, not in podkit, so that a check never shares code with the
route it checks, and so that podkit holds only what its command line runs
(test_surface.py asserts it).
"""

import numpy as np

from podkit.errors import DimensionMismatch, NotInvertible, RankExceeded
from podkit.fhn_gen import EMBEDDING_SNAPSHOTS, synthetic_states
from podkit.gram_space import as_matrix, half_weight, make_space, orthonormalize, solve_gram
from podkit.gram_space import to_dense
from podkit.linear_map import identity_map, make_map
from podkit.pod_engine import compute_pod
from podkit.projector import Projector
from podkit.snapshot_io import from_trajectory, make_snapshot_set, resolve_gram_spec


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
    basis = compute_pod(sset, space)
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


def inverse_adjoint(lmap):
    """Matrix of the adjoint of the inverse, domain -> codomain."""
    if lmap.inverse is None:
        raise NotInvertible("map has no certified inverse")
    return adjoint_matrix(lmap.codomain, lmap.domain, lmap.inverse)


# -- projections the battery certifies through but never forms ----------------

def pod_projector(basis, r):
    """Orthogonal projection onto the leading r POD modes."""
    if not 1 <= r <= basis.rank:
        raise RankExceeded(f"r = {r} outside [1, {basis.rank}]")
    Phi = basis.modes[:, :r].copy()
    return Projector(basis.space, r, Phi, Phi, "pod_orthogonal")


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
    return Projector(lmap.domain, inner_proj.r, rng, dual, "pullback")


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
        "map": identity_map(sset.space, space_y, kind="embedding"),
        "form": space_y.gram if which == 3 else None,
    }


def induced_snapshots(lmap, sset):
    """Push a snapshot set through the map; weights and kind are preserved.

    Its POD is the reference for linear_map.image_spectrum, which reads the
    same spectrum off the data without forming the image set's vectors.
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
