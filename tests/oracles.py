"""Reference implementations that the tests compare the library against,
and the seeded random instances the property suites draw.

They live here, not in podkit, so that a check never shares code with the
route it checks.
"""

import numpy as np

from podkit.errors import DimensionMismatch
from podkit.gram_space import make_space
from podkit.linear_map import make_map
from podkit.snapshot_io import make_snapshot_set


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
