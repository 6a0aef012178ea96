"""Weighted proper orthogonal decomposition with certified error identities.

The package computes PODs of snapshot data in inner-product spaces given by
SPD Gram matrices, builds orthogonal and non-orthogonal (Ritz, composite)
projections from the modes, and numerically certifies the exact error
formulas, Hilbert-Schmidt identities, rank relations and per-snapshot and
pointwise error bounds that relate a snapshot set to its image under a
linear map between two such spaces.
"""

from .errors import (
    DimensionMismatch,
    EigenFailure,
    FormNotElliptic,
    IndexOutOfRange,
    InputError,
    MalformedManifest,
    MissingDataFile,
    NonMonotoneGrid,
    NotInvertible,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalError,
    PodkitError,
    ProblemTooLarge,
    ProvenanceMismatch,
    RankDeficientImage,
    RankExceeded,
    SingularRitzSystem,
    SolverDiverged,
    UsageError,
    WeightNonPositive,
)
from .gram_space import (
    GramSpace,
    half_weight,
    half_weight_inv,
    identity_space,
    make_space,
    solve_gram,
)
from .fem import FemMesh, assemble_fem_1d
from .snapshot_io import (
    SnapshotSet,
    from_trajectory,
    load,
    make_snapshot_set,
    read_matrix_csv,
    resolve_gram_spec,
    save,
    write_matrix_csv,
)
from .pod_engine import (
    DEFAULT_DROP_TOL,
    PodBasis,
    compute_pod,
    image_spectrum,
    save_basis,
)
from .linear_map import (
    LinearMap,
    apply_inverse,
    identity_map,
    make_map,
)
from .projector import form_ellipticity
from .error_lab import (
    ErrorReport,
    battery_level,
    certifier,
    rank_relation,
    read_report,
    report_format,
    snapshot_guarantee_threshold,
    sweep,
    write_report,
)
from .fhn_gen import (
    FhnConfig,
    make_fhn_instance,
    solve_fhn,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "EigenFailure",
    "FormNotElliptic",
    "IndexOutOfRange",
    "InputError",
    "MalformedManifest",
    "MissingDataFile",
    "NonMonotoneGrid",
    "NotInvertible",
    "NotPositiveDefinite",
    "NotSymmetric",
    "NumericalError",
    "PodkitError",
    "ProblemTooLarge",
    "ProvenanceMismatch",
    "RankDeficientImage",
    "RankExceeded",
    "SingularRitzSystem",
    "SolverDiverged",
    "UsageError",
    "WeightNonPositive",
    "GramSpace",
    "half_weight",
    "half_weight_inv",
    "identity_space",
    "make_space",
    "solve_gram",
    "FemMesh",
    "assemble_fem_1d",
    "SnapshotSet",
    "from_trajectory",
    "load",
    "make_snapshot_set",
    "read_matrix_csv",
    "resolve_gram_spec",
    "save",
    "write_matrix_csv",
    "DEFAULT_DROP_TOL",
    "PodBasis",
    "compute_pod",
    "image_spectrum",
    "save_basis",
    "LinearMap",
    "apply_inverse",
    "identity_map",
    "make_map",
    "form_ellipticity",
    "ErrorReport",
    "battery_level",
    "certifier",
    "rank_relation",
    "read_report",
    "report_format",
    "snapshot_guarantee_threshold",
    "sweep",
    "write_report",
    "FhnConfig",
    "make_fhn_instance",
    "solve_fhn",
    "__version__",
]
