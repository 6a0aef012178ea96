"""Snapshot sets: weighted data columns plus disk round-tripping.

A snapshot set is a matrix of column vectors w_1 .. w_s together with strictly
positive weights gamma_1 .. gamma_s.  Discrete sets carry the weights
directly; sets reduced from a time trajectory carry the originating time grid
and use the interval lengths as weights, with each column the midpoint
average of the two bracketing states.

On disk a set is a small JSON manifest next to a headerless CSV of the data
columns (one row per coordinate, 17 significant digits, so float64 values
round-trip bit-exactly) and a NumPy .npy copy of the same doubles, so that a
reader need not parse the CSV again.  The manifest's "data_npy" entry records
two SHA-256 digests: of the CSV as written and of the array's bytes.  load
reads the .npy only while the CSV still has its recorded digest and the .npy
is a finite, C-order float64 array of the manifest's shape with its recorded
digest; otherwise it parses the CSV, which stays the source of truth.

The manifest names the Gram matrix of the ambient space either as the token
"identity", a path to a CSV matrix, a generator spec such as
{"fem_mass": n}, or the block diagonal of generator specs, such as
{"block_diag": [{"fem_mass": n}, {"fem_mass": n}]}.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import fem
from .errors import (
    DimensionMismatch,
    MalformedManifest,
    MissingDataFile,
    NonMonotoneGrid,
    WeightNonPositive,
)
from .gram_space import GramSpace, check_dense_budget, identity_space, make_space

CSV_FMT = "%.16e"
# A dense dim x dim CSV Gram is budgeted at its measured peak, in dim^2
# doubles (tracemalloc, 400 to 2,000 rows): 7.4 to read and factor it
# (loadtxt array, CSR copy, symmetrization, band), 1.0 to write it from a
# space (its dense copy; the text goes out a row at a time).  Reading and
# writing both check this count against gram_space.DENSE_BYTES_BUDGET
# (refused above 2,896 rows), so save never writes a Gram CSV load refuses.
CSV_GRAM_ARRAYS = 8


@dataclass
class SnapshotSet:
    """Weighted snapshot data in a common ambient space.

    Attributes
    ----------
    data : ndarray, shape (dim, s)
        Snapshot columns.
    weights : ndarray, shape (s,)
        Strictly positive weights.
    kind : str
        "discrete" or "continuous".
    grid : ndarray or None
        For continuous sets, the s + 1 time points the set was reduced from.
    space : GramSpace or None
        Ambient inner-product space, when known.
    """

    data: np.ndarray
    weights: np.ndarray
    kind: str = "discrete"
    grid: np.ndarray | None = None
    space: GramSpace | None = field(default=None, repr=False)

    @property
    def space_dim(self):
        return self.data.shape[0]

    @property
    def count(self):
        return self.data.shape[1]


def make_snapshot_set(data, weights, kind="discrete", grid=None, space=None):
    """Validate shapes, weights and grid, then build the set."""
    data = np.asarray(data, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch(f"data must be 2-D, got shape {data.shape}")
    if weights.ndim != 1 or weights.shape[0] != data.shape[1]:
        raise DimensionMismatch(
            f"weights shape {weights.shape} does not match {data.shape[1]} columns"
        )
    if data.shape[1] < 1:
        raise DimensionMismatch("need at least one snapshot column")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise WeightNonPositive("all weights must be finite and > 0")
    if kind not in ("discrete", "continuous"):
        raise MalformedManifest(f"unknown snapshot kind {kind!r}")
    if kind == "continuous":
        if grid is None:
            raise MalformedManifest("continuous sets need their time grid")
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.shape[0] != data.shape[1] + 1:
            raise DimensionMismatch(
                f"grid of {grid.shape} does not bracket {data.shape[1]} snapshots"
            )
        if np.any(np.diff(grid) <= 0.0):
            raise NonMonotoneGrid("time grid must be strictly increasing")
    else:
        grid = None
    if space is not None and space.dim != data.shape[0]:
        raise DimensionMismatch(
            f"space of dim {space.dim} cannot hold columns of length {data.shape[0]}"
        )
    return SnapshotSet(data=data, weights=weights, kind=kind, grid=grid, space=space)


def from_trajectory(grid, states, space=None):
    """Reduce a sampled trajectory to a continuous-kind snapshot set.

    Column k of the result is the average of states at grid points k and
    k + 1; its weight is the interval length.  This realizes the elementwise
    midpoint quadrature of time integrals.

    Parameters
    ----------
    grid : array_like, shape (m,)
        Strictly increasing time points, m >= 2.
    states : array_like, shape (dim, m)
        Trajectory samples at the grid points.
    space : GramSpace, optional
        Ambient space to attach.
    """
    grid = np.asarray(grid, dtype=float)
    states = np.asarray(states, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 2:
        raise DimensionMismatch("grid must hold at least two time points")
    if states.ndim != 2 or states.shape[1] != grid.shape[0]:
        raise DimensionMismatch(
            f"states shape {states.shape} does not match grid of {grid.shape[0]}"
        )
    if np.any(np.diff(grid) <= 0.0):
        raise NonMonotoneGrid("time grid must be strictly increasing")
    data = 0.5 * (states[:, 1:] + states[:, :-1])
    return make_snapshot_set(
        data, np.diff(grid), kind="continuous", grid=grid, space=space
    )


def _atomic_write(path, content):
    """Write content to path atomically, through a temporary file beside it.

    content is a str, an iterable of str pieces written in turn, or, for
    bytes, a function that writes them to the open binary file (np.save
    writes an array's buffer there with no copy).
    An unwritable path raises MissingDataFile and leaves no temporary file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
        with os.fdopen(fd, "wb" if callable(content) else "w") as fh:
            if callable(content):
                content(fh)
            else:
                fh.writelines([content] if isinstance(content, str) else content)
        # mkstemp makes the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise MissingDataFile(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_matrix_csv(path, matrix):
    """Headerless CSV with 17 significant digits, one % per row, written
    atomically a row at a time (no whole-file text is held)."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    row_fmt = ",".join([CSV_FMT] * M.shape[1]) + "\n"
    _atomic_write(path, (row_fmt % tuple(row.tolist()) for row in M))


def read_matrix_csv(path, rows=None, cols=None):
    """A headerless CSV matrix; a bad shape or a non-finite cell is MalformedManifest."""
    if not os.path.exists(path):
        raise MissingDataFile(f"no such file: {path}")
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise MissingDataFile(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise MalformedManifest(f"{path}: {exc}") from None
    if rows is not None and M.shape != (rows, cols):
        raise MalformedManifest(f"{path}: expected shape ({rows}, {cols}), found {M.shape}")
    if not np.isfinite(M).all():
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise MalformedManifest(f"{path}: row {i + 1}, column {j + 1} is {M[i, j]}, not finite")
    return M


def _file_sha256(path):
    """SHA-256 hex digest of a file, read through one reused 256 KiB buffer,
    as hashlib.file_digest (Python 3.11+) reads it: a fresh bytes object
    per chunk, or a larger buffer, grows generate-fhn's peak RSS."""
    digest = hashlib.sha256()
    buf = bytearray(2**18)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _write_data_npy(base, name, csv_path, data):
    """Write data as the .npy beside its CSV; return its manifest entry."""
    M = np.ascontiguousarray(data, dtype=float)
    _atomic_write(os.path.join(base, name), lambda fh: np.save(fh, M, allow_pickle=False))
    return {
        "file": name,
        "csv_sha256": _file_sha256(csv_path),
        "sha256": hashlib.sha256(memoryview(M)).hexdigest(),
    }


def _read_data_npy(base, csv_path, entry, shape):
    """The data from the .npy a manifest entry names, or None unless the CSV
    still has the recorded digest and the .npy is a finite, C-order float64
    array of this shape with its recorded digest."""
    if not isinstance(entry, dict) or not all(
        isinstance(entry.get(key), str) for key in ("file", "csv_sha256", "sha256")
    ):
        return None
    fmt = np.lib.format
    try:
        if _file_sha256(csv_path) != entry["csv_sha256"]:
            return None
        with open(os.path.join(base, entry["file"]), "rb") as fh:
            # the header is checked before any array is allocated, so a
            # header claiming a huge shape costs nothing
            version = fmt.read_magic(fh)
            if version == (1, 0):
                header = fmt.read_array_header_1_0(fh)
            elif version == (2, 0):
                header = fmt.read_array_header_2_0(fh)
            else:
                return None
            if header != (shape, False, np.dtype(np.float64)):
                return None
            M = np.empty(shape)
            if fh.readinto(memoryview(M).cast("B")) != M.nbytes:
                return None
    except (OSError, ValueError, EOFError):
        return None
    if (
        hashlib.sha256(memoryview(M)).hexdigest() != entry["sha256"]
        or not np.isfinite(M).all()
    ):
        return None
    return M


def csv_shape(path):
    """(rows, columns) of a CSV matrix in one streamed pass, before loadtxt
    holds it: its line count (a blank line counts too) and one more than
    its first line's comma count."""
    rows, commas, tail = 0, 0, b"\n"
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(2**20):
                if rows == 0:
                    commas += chunk.split(b"\n", 1)[0].count(b",")
                rows += chunk.count(b"\n")
                tail = chunk[-1:]
    except OSError as exc:
        raise MissingDataFile(f"cannot read {path}: {exc.strerror}") from None
    return rows + (tail != b"\n"), commas + 1


def _read_json(path):
    """Parse a JSON file; an unreadable path or invalid JSON is an input error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise MissingDataFile(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise MalformedManifest(f"{path}: {exc}") from None


def _spec_int(value, what, minimum=1):
    """An integer field of a spec, checked against its lower limit."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise MalformedManifest(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _float_list(value, what, length):
    """A manifest list of exactly length numbers, as a float array."""
    if not isinstance(value, list) or len(value) != length or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise MalformedManifest(f"{what} must be a list of {length} numbers")
    return np.array(value, dtype=float)


def _block_dim(spec):
    """The node count of a generator spec, the dimension it adds as a block."""
    if isinstance(spec, dict) and len(spec) == 1:
        key, n = next(iter(spec.items()))
        if key in ("fem_mass", "fem_stiffness"):
            return _spec_int(n, f"{key} node count", 2)
    raise MalformedManifest(f"a block_diag block must be a generator spec, got {spec!r}")


def gram_matrix(spec, dim, base_dir="."):
    """The dim x dim matrix a gram spec names, as a scipy.sparse CSR array.

    Accepted forms: the token "identity", a path to a CSV matrix (relative to
    base_dir), a generator spec {"fem_mass": n} / {"fem_stiffness": n}, or
    {"block_diag": [generator spec, ...]}, the block diagonal of generator
    specs whose node counts sum to dim.  The stiffness generator returns the
    full H^1 Gram matrix (stiffness plus mass); the derivative Gram alone is
    singular and cannot define a space.
    Shape and node count are checked here; symmetry and definiteness are
    left to make_space, since a bilinear form need have neither.  A CSV
    matrix is dense: CSV_GRAM_ARRAYS dim^2 doubles are checked against
    gram_space.DENSE_BYTES_BUDGET before it is read (ProblemTooLarge).
    """
    if spec == "identity":
        return sparse.eye_array(dim, format="csr")
    if isinstance(spec, str):
        check_dense_budget(CSV_GRAM_ARRAYS, (dim, dim), f"CSV matrix {spec}")
        return sparse.csr_array(read_matrix_csv(os.path.join(base_dir, spec), dim, dim))
    if isinstance(spec, dict) and len(spec) == 1:
        key, n = next(iter(spec.items()))
        if key == "block_diag" and isinstance(n, list) and n:
            sizes = [_block_dim(block) for block in n]
            if sum(sizes) != dim:
                raise MalformedManifest(f"block_diag of sizes {sizes} in a dim-{dim} manifest")
            return sparse.block_diag(
                [gram_matrix(block, size) for block, size in zip(n, sizes)], format="csr"
            )
        if key in ("fem_mass", "fem_stiffness"):
            if _spec_int(n, f"{key} node count", 2) != dim:
                raise MalformedManifest(
                    f"{key} generator for {n} nodes in a dim-{dim} manifest"
                )
            mesh = fem.assemble_fem_1d(n)
            return mesh.mass if key == "fem_mass" else mesh.stiffness + mesh.mass
    raise MalformedManifest(f"unrecognized gram spec: {spec!r}")


def resolve_gram_spec(spec, dim, base_dir="."):
    """The GramSpace of a manifest gram entry; see gram_matrix for the forms."""
    if spec == "identity":
        return identity_space(dim)
    return make_space(gram_matrix(spec, dim, base_dir))


def save(sset, manifest_path, gram_spec=None):
    """Write a snapshot set as manifest JSON plus data CSV and its .npy.

    Parameters
    ----------
    sset : SnapshotSet
    manifest_path : str
        Where the JSON manifest goes; the data CSV lands next to it with the
        suffix "_data.csv", and the same doubles, C-order float64, with the
        suffix "_data.npy".
    gram_spec : optional
        Manifest gram entry to record.  Defaults to "identity" when the set
        has no attached space; otherwise the attached space's Gram matrix is
        written to a CSV next to the manifest and referenced by name, after
        the same budget check as reading it (ProblemTooLarge, nothing written).
    """
    if gram_spec is None and sset.space is not None:
        check_dense_budget(CSV_GRAM_ARRAYS, (sset.space_dim,) * 2, "the Gram CSV")
    manifest_path = os.path.abspath(manifest_path)
    base = os.path.dirname(manifest_path)
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    data_name = stem + "_data.csv"
    data_path = os.path.join(base, data_name)
    write_matrix_csv(data_path, sset.data)
    data_npy = _write_data_npy(base, stem + "_data.npy", data_path, sset.data)

    if gram_spec is None:
        if sset.space is None:
            gram_spec = "identity"
        else:
            gram_name = stem + "_gram.csv"
            write_matrix_csv(os.path.join(base, gram_name), sset.space.gram.toarray())
            gram_spec = gram_name

    manifest = {
        "dim": int(sset.space_dim),
        "count": int(sset.count),
        "kind": sset.kind,
        "gram": gram_spec,
        "data": data_name,
        "data_npy": data_npy,
    }
    if sset.kind == "continuous":
        manifest["grid"] = [float(t) for t in sset.grid]
    else:
        manifest["weights"] = [float(w) for w in sset.weights]
    _atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load(manifest_path):
    """Load a manifest written by save (or by hand) and attach its space.

    The data come from the .npy that save wrote when every check of
    _read_data_npy holds, and from the CSV otherwise.  Raises
    MalformedManifest / MissingDataFile / WeightNonPositive /
    NonMonotoneGrid as appropriate.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise MalformedManifest(f"{manifest_path}: top level must be an object")

    dim = _spec_int(manifest.get("dim"), "dim")
    count = _spec_int(manifest.get("count"), "count")
    kind = manifest.get("kind")
    if kind not in ("discrete", "continuous"):
        raise MalformedManifest(f"unknown kind {kind!r}")
    if not isinstance(manifest.get("data"), str):
        raise MalformedManifest(f"{manifest_path}: data must name a CSV file")
    data_path = os.path.join(base, manifest["data"])
    data = _read_data_npy(base, data_path, manifest.get("data_npy"), (dim, count))
    if data is None:
        data = read_matrix_csv(data_path, dim, count)

    grid = None
    if kind == "continuous":
        grid = _float_list(manifest.get("grid"), "continuous manifest grid", count + 1)
        weights = np.diff(grid)
        if np.any(weights <= 0.0):
            raise NonMonotoneGrid("manifest grid is not strictly increasing")
    else:
        weights = _float_list(manifest.get("weights"), "discrete manifest weights", count)

    space = resolve_gram_spec(manifest.get("gram"), dim, base)
    return make_snapshot_set(data, weights, kind=kind, grid=grid, space=space)
