"""Weighted proper orthogonal decomposition with certified error identities.

The package computes PODs of snapshot data in inner-product spaces given by
SPD Gram matrices, builds orthogonal and non-orthogonal (Ritz, composite)
projections from the modes, and numerically certifies the exact error
formulas, Hilbert-Schmidt identities, rank relations and per-snapshot and
pointwise error bounds that relate a snapshot set to its image under a
linear map between two such spaces.  Import from the submodules:
gram_space, snapshot_io, pod_engine, linear_map, projector, error_lab,
fhn_gen and cli.
"""

__version__ = "0.1.0"
