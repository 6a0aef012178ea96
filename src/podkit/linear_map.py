"""Linear maps between Gram spaces.

A map carries its domain and codomain spaces, so every norm of its images
and every adjoint route is taken in the right inner product.  Invertibility
is a certificate, not a guess: a LinearMap checks its own invariants at
construction, so a map built directly, by a factory below or by
dataclasses.replace has a matrix of its spaces' shape and, when it holds an
inverse, one whose two residuals ||L Linv - I|| and ||Linv L - I|| pass
below tolerance.  make_map computes a dense inverse when asked, rejecting
overly ill-conditioned matrices outright.  Maps named by a JSON map spec are
built by build_map_from_spec, which documents the grammar.

Generated maps are scipy.sparse CSR arrays: identity_map stores one sparse
identity as matrix and exact inverse, derivative_map a CSR block diagonal,
and a "diag" spec a CSR diagonal with its exact reciprocal as inverse, so
no n x n array is formed on their path, the inverse certificate included.
A "matrix" (CSV) spec map stays dense; its rows and columns are counted
before it is read and checked against gram_space.DENSE_BYTES_BUDGET.
Every consumer applies a map and its inverse with @, whatever their type.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from . import fem
from .errors import DimensionMismatch, MalformedManifest, NotInvertible, ProvenanceMismatch
from .gram_space import GramSpace, as_matrix, check_dense_budget, make_space, to_dense
from .snapshot_io import _read_json, _spec_int, gram_matrix
from .snapshot_io import csv_shape, read_matrix_csv, resolve_gram_spec

INVERSE_RESIDUAL_TOL = 1e-8
MAX_CONDITION = 1e12
# Peak of reading a "matrix" spec's m x n CSV and building its map, in m n
# doubles (tracemalloc, 600 to 2,000 rows, and peak RSS): 1.1 to 1.3 for
# the loadtxt array alone, 6.0 to 6.7 with the computed inverse (the SVD
# condition number, the solve against the identity and both residuals).
MATRIX_CSV_ARRAYS = {False: 2, True: 7}


@dataclass(frozen=True)
class LinearMap:
    """Map between two Gram spaces with optional certified inverse.

    Attributes
    ----------
    domain, codomain : GramSpace
    matrix : ndarray or scipy.sparse CSR array, shape (codomain.dim, domain.dim)
        Sparse from identity_map, derivative_map and a "diag" spec, dense
        from a "matrix" spec.
    inverse : ndarray, scipy.sparse CSR array or None
        Square like matrix and certified at construction (NotInvertible
        otherwise); identity_map's is the same sparse identity as its matrix.
    """

    domain: GramSpace
    codomain: GramSpace
    matrix: np.ndarray | sparse.csr_array
    inverse: np.ndarray | sparse.csr_array | None = field(default=None, repr=False)

    def __post_init__(self):
        shape = self.matrix.shape
        if shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatch(
                f"matrix {shape} between spaces of dims "
                f"{self.domain.dim} -> {self.codomain.dim}"
            )
        if self.inverse is not None:
            if shape[0] != shape[1] or self.inverse.shape != shape:
                raise NotInvertible("an inverse requires matching square matrices")
            _certify_inverse(self.matrix, self.inverse)


def _check_condition(cond):
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise NotInvertible(f"condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}")


def _certify_inverse(matrix, inverse):
    # the Frobenius residuals; with sparse factors no dense n x n array forms
    eye = sparse.eye_array(matrix.shape[0], format="csr")
    res_right, res_left = (
        np.linalg.norm(R.data if sparse.issparse(R) else R)
        for R in (matrix @ inverse - eye, inverse @ matrix - eye)
    )
    if res_right > INVERSE_RESIDUAL_TOL or res_left > INVERSE_RESIDUAL_TOL:
        raise NotInvertible(
            f"inverse residuals {res_right:.3e} / {res_left:.3e} "
            f"exceed {INVERSE_RESIDUAL_TOL:.0e}"
        )


def make_map(domain, codomain, matrix, invertible=False):
    """Build a LinearMap, computing a dense inverse when one is wanted.

    Parameters
    ----------
    domain, codomain : GramSpace
    matrix : array_like or scipy.sparse matrix, shape (codomain.dim, domain.dim)
    invertible : bool
        Compute a dense inverse, which LinearMap certifies.  Square matrices
        only; condition numbers above MAX_CONDITION are rejected.
    """
    lmap = LinearMap(domain, codomain, as_matrix(matrix))
    if not invertible:
        return lmap
    A = lmap.matrix
    if A.shape[0] != A.shape[1]:
        raise NotInvertible(f"non-square map {A.shape} cannot be inverted")
    dense = to_dense(A)
    _check_condition(np.linalg.cond(dense))
    return replace(lmap, inverse=np.linalg.solve(dense, np.eye(A.shape[0])))


def identity_map(domain, codomain=None):
    """Identity-matrix map, by default an embedding between equal-dim spaces.

    One sparse identity is both matrix and inverse, exact, so its
    certificate reads two sparse zero residuals.
    """
    if codomain is None:
        codomain = domain
    if codomain.dim != domain.dim:
        raise DimensionMismatch("identity map needs equal dimensions")
    eye = sparse.eye_array(domain.dim, format="csr")
    return LinearMap(domain, codomain, eye, inverse=eye)


def derivative_map(nodes, domain, scheme="forward"):
    """Componentwise derivative of nodal fields on the uniform FEM mesh.

    The domain holds one nodal field or two stacked ones ([u; v]); each
    component is differentiated on its own.  "forward" maps onto the
    elementwise slopes with element-length weights, so the codomain norm is
    the exact H^1 seminorm.  "centered" maps onto nodal central differences
    (one-sided at the two ends) measured in the L^2 mass norm.  Constants lie
    in the kernel of both, so the map has no inverse.
    """
    if domain.dim not in (nodes, 2 * nodes):
        raise DimensionMismatch(
            f"derivative map on {nodes} nodes against snapshots of dim "
            f"{domain.dim}; expected {nodes} or {2 * nodes}"
        )
    mesh = fem.assemble_fem_1d(nodes)
    if scheme == "forward":
        block, gram = mesh.deriv, sparse.diags_array(mesh.element_lengths)
    elif scheme == "centered":
        h, ones = mesh.h, np.ones(nodes - 1)
        block = sparse.diags_array([-ones, ones], offsets=[-1, 1], format="lil") * (0.5 / h)
        block[0, :2] = -1.0 / h, 1.0 / h
        block[-1, -2:] = -1.0 / h, 1.0 / h
        gram = mesh.mass
    else:
        raise MalformedManifest(f"unknown derivative scheme {scheme!r}")
    blocks = domain.dim // nodes
    return LinearMap(
        domain=domain,
        codomain=make_space(sparse.block_diag([gram] * blocks, format="csr")),
        matrix=sparse.block_diag([block] * blocks, format="csr"),
    )


_MAP_KEYS = ("identity", "diag", "matrix", "derivative_1d", "embedding")
_MATRIX_OPTIONS = ("codomain_gram", "invertible")
_EMBED_GRAMS = {"mass": "fem_mass", "stiffness+mass": "fem_stiffness"}


def build_map_from_spec(text, sset):
    """Turn a map spec into a LinearMap on the snapshot set's space.

    text is inline JSON (it starts with "{") or a path to a JSON file, and
    relative paths in a file resolve against its directory.  The spec is an
    object with exactly one of these keys:

        {"identity": n}
        {"diag": [d1, ..., dn]}
        {"matrix": "path.csv", "codomain_gram": <gram spec>, "invertible": bool}
        {"derivative_1d": {"nodes": n, "scheme": "forward" | "centered"}}
        {"embedding": {"from": "mass", "to": "stiffness+mass"}}

    n is a JSON integer.  "codomain_gram" (a gram spec as in
    snapshot_io.gram_matrix, default "identity") and "invertible" (default
    false) belong to "matrix" only.  derivative_1d is derivative_map and
    doubles blockwise when the snapshot dimension is twice the node count.
    The embedding is the identity matrix between the L^2 ("mass") and H^1
    ("stiffness+mass") FEM Gram matrices; "from" must be the snapshot
    space's own.  Any spec may add "ritz_form", a gram spec (a CSV path need
    not be symmetric) for the Ritz projection family.

    Returns (map, form), form being the Ritz form as a CSR array or None.
    Malformed fields raise MalformedManifest, sizes that disagree with the
    snapshots DimensionMismatch, and an embedding from the wrong space
    ProvenanceMismatch.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            spec, base_dir = json.loads(text), "."
        except json.JSONDecodeError as exc:
            raise MalformedManifest(f"inline map spec: {exc}") from None
    elif os.path.exists(text):
        spec, base_dir = _read_json(text), os.path.dirname(os.path.abspath(text))
    else:
        raise MalformedManifest(f"map spec file not found: {text}")
    if not isinstance(spec, dict):
        raise MalformedManifest("map spec must be a JSON object")
    options = ("ritz_form",) + (_MATRIX_OPTIONS if "matrix" in spec else ())
    unknown = [k for k in spec if k not in _MAP_KEYS + options]
    if unknown:
        raise MalformedManifest(f"unknown map spec keys: {unknown}")
    primary = [k for k in spec if k in _MAP_KEYS]
    if len(primary) != 1:
        raise MalformedManifest(f"map spec needs exactly one of {_MAP_KEYS}, got {primary}")
    key, dim = primary[0], sset.space_dim
    detail = spec[key]

    if key == "identity":
        if _spec_int(detail, "identity dimension") != dim:
            raise DimensionMismatch(
                f"identity map of dim {detail} against snapshots of dim {dim}"
            )
        lmap = identity_map(sset.space)
    elif key == "diag":
        try:
            d = np.asarray(detail, dtype=float)
        except (TypeError, ValueError):
            raise MalformedManifest(f"diag map needs numbers, got {detail!r}") from None
        if d.ndim != 1 or d.shape[0] != dim:
            raise DimensionMismatch(f"diag map of length {d.shape} against dim {dim}")
        inverse = None
        if np.all(d != 0.0):  # the 2-norm condition of diag(d) is max|d| / min|d|
            _check_condition(np.max(np.abs(d)) / np.min(np.abs(d)))
            inverse = sparse.diags_array(1.0 / d, format="csr")
        lmap = LinearMap(sset.space, sset.space, sparse.diags_array(d, format="csr"), inverse)
    elif key == "matrix":
        invertible = spec.get("invertible", False)
        if not isinstance(detail, str) or not isinstance(invertible, bool):
            raise MalformedManifest(
                f"matrix map needs a CSV path and a boolean invertible, got "
                f"{detail!r} and {invertible!r}"
            )
        path = os.path.join(base_dir, detail)
        arrays = MATRIX_CSV_ARRAYS[invertible]
        check_dense_budget(arrays, csv_shape(path), f"CSV map {detail}")
        A = read_matrix_csv(path)
        if A.shape[1] != dim:
            raise DimensionMismatch(f"map matrix {A.shape} against snapshots of dim {dim}")
        gram = spec.get("codomain_gram", "identity")
        codomain = resolve_gram_spec(gram, A.shape[0], base_dir)
        lmap = make_map(sset.space, codomain, A, invertible)
    elif key == "derivative_1d":
        if not isinstance(detail, dict) or "nodes" not in detail:
            raise MalformedManifest('derivative_1d needs {"nodes": n, "scheme": ...}')
        nodes = _spec_int(detail["nodes"], "derivative_1d nodes", 2)
        lmap = derivative_map(nodes, sset.space, detail.get("scheme", "forward"))
    else:
        if not isinstance(detail, dict) or "from" not in detail or "to" not in detail:
            raise MalformedManifest('embedding needs {"from": ..., "to": ...}')
        tokens = [detail["from"], detail["to"]]
        if not all(isinstance(t, str) and t in _EMBED_GRAMS for t in tokens):
            raise MalformedManifest(
                f"embedding grams must be in {tuple(_EMBED_GRAMS)}, got {tokens}"
            )
        source, target = ({_EMBED_GRAMS[t]: dim} for t in tokens)
        # np.allclose(rtol=1e-12, atol=1e-12) entry by entry, on the sparse pattern
        gram = sset.space.gram
        if (abs(gram_matrix(source, dim) - gram) - 1e-12 * abs(gram)).max() > 1e-12:
            raise ProvenanceMismatch("embedding 'from' gram disagrees with the snapshot space")
        lmap = identity_map(sset.space, resolve_gram_spec(target, dim))

    form = None
    if "ritz_form" in spec:
        form = gram_matrix(spec["ritz_form"], lmap.codomain.dim, base_dir)
    return lmap, form
