"""Reference implementations that the tests compare the library against.

They live here, not in podkit, so that a check never shares code with the
route it checks.
"""

from podkit.errors import DimensionMismatch
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
