"""Snapshot sets: weighted data columns plus disk round-tripping.

A snapshot set is a matrix of column vectors w_1 .. w_s together with strictly
positive weights gamma_1 .. gamma_s.  Discrete sets carry the weights
directly; continuous sets, reduced from a time trajectory, carry its time
grid instead, whose interval lengths make_snapshot_set takes as the weights.

On disk a set is a small JSON manifest next to a headerless CSV of the data
columns (one row per coordinate, 17 significant digits, so float64 values
round-trip bit-exactly) and a NumPy .npy copy of the same doubles, so that a
reader need not parse the CSV again.  The manifest's "data_npy" entry records
two BLAKE2b-256 digests: of the CSV as written and of the array's bytes.  load
reads the .npy only while the CSV still has its recorded digest and the .npy
is a finite, C-order float64 array of the manifest's shape with its recorded
digest; otherwise it parses the CSV, which stays the source of truth.  The
digests come from CPython's built-in _blake2 module, so reading a bundle
loads no OpenSSL (hashlib's _hashlib).

A finished matrix is formatted in process (write_matrix_csv).  Columns that
are computed one after another, as generate-fhn's snapshots are, go to a
CsvStream instead: a helper process formats each block while the next is
computed, with the same row format, and the file is placed by the same
atomic rule, so both routes write the same bytes.

The manifest names the Gram matrix of the ambient space either as the token
"identity", a path to a CSV matrix, a generator spec such as
{"fem_mass": n}, or the block diagonal of generator specs, such as
{"block_diag": [{"fem_mass": n}, {"fem_mass": n}]}.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np
from _blake2 import blake2b

from . import csv_rows, fem
from .errors import (
    DimensionMismatch,
    MalformedManifest,
    MissingDataFile,
    NonMonotoneGrid,
    WeightNonPositive,
)
from .gram_space import GramSpace, block_diag, check_budget, check_dense_budget, identity
from .gram_space import make_space

# A dense dim x dim CSV Gram is budgeted at its measured peak, in dim^2
# doubles (tracemalloc, 400 to 2,000 rows): 6.0 to 6.2 to read and factor
# it (loadtxt array, Banded copy, symmetrization, band, dense factor).
# Reading checks this count against gram_space.DENSE_BYTES_BUDGET (refused
# above 2,896 rows).
CSV_GRAM_ARRAYS = 8
# A bundle's dim x count data are budgeted the same way, at load's measured
# peak in dim * count doubles (tracemalloc, 200 to 3,000 rows): 1.1 to 1.2
# from the .npy (the array and its finiteness mask), 1.1 to 1.5 from the
# CSV (loadtxt's array, its mask, and for few rows the manifest's weights).
# load checks it before either read, so a manifest claiming a huge shape is
# ProblemTooLarge, not an allocation failure.
DATA_LOAD_ARRAYS = 2
# pod_engine.compute_pod's peak RSS over the loaded data, in dim * count
# doubles (one BLAS thread, wide data factored transposed): 4.2 at
# 400 x 20,000, 5.8 at 2,000 x 400, 5.4 at 200 x 2,000, and 9.0 to 9.7 for
# square data (800 to 2,000 rows), whose xGESDD workspace is largest.
# compute_pod checks it before it allocates (refused above 5,592,405
# values, 42.7 MiB of data).
POD_ARRAYS = 12
# pod_engine.image_spectrum's peak RSS over the data, in codomain dim *
# count doubles (fresh processes, one BLAS thread, images of 3 MB and up):
# 2.0 to 2.3 for square and wide images of 800 to 2,000 rows, 2.6 for the
# flagship's 198 x 2,000, 2.8 to 2.9 for tall images of 30,000 rows or more.
IMAGE_ARRAYS = 3
# json.load's peak per byte of the file it parses (tracemalloc): 2.2 for a
# saved manifest's weights, 22 to 25 for lists of empty lists or objects,
# 45 for nested one-element lists, the most measured.  _read_json checks
# it before parsing (refused above 11,184,810 bytes).
JSON_PARSE_BYTES = 48


@dataclass
class SnapshotSet:
    """Weighted snapshot data in a common ambient space.

    Attributes
    ----------
    data : ndarray, shape (dim, s)
        Snapshot columns.
    weights : ndarray, shape (s,)
        Strictly positive weights; a continuous set's are np.diff(grid).
    grid : ndarray or None
        For continuous sets, the s + 1 time points the set was reduced from.
    space : GramSpace or None
        Ambient inner-product space, when known.
    """

    data: np.ndarray
    weights: np.ndarray
    grid: np.ndarray | None = None
    space: GramSpace | None = field(default=None, repr=False)

    @property
    def kind(self):
        """The set's kind: "continuous" when it holds a time grid, else "discrete"."""
        return "discrete" if self.grid is None else "continuous"

    @property
    def space_dim(self):
        return self.data.shape[0]

    @property
    def count(self):
        return self.data.shape[1]


def make_snapshot_set(data, weights=None, grid=None, space=None):
    """Validate shapes, data, weights or grid, then build the set.

    Pass exactly one of weights and grid (MalformedManifest otherwise): a
    continuous set's weights are its grid's interval lengths, np.diff(grid),
    and a grid that is not strictly increasing is NonMonotoneGrid.  Data
    holding nan or inf is MalformedManifest, as it is in a bundle's CSV.
    """
    data = np.asarray(data, dtype=float)
    if (weights is None) == (grid is None):
        raise MalformedManifest("a snapshot set takes either weights or a time grid")
    if data.ndim != 2:
        raise DimensionMismatch(f"data must be 2-D, got shape {data.shape}")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.shape[0] != data.shape[1] + 1:
            raise DimensionMismatch(
                f"grid of {grid.shape} does not bracket {data.shape[1]} snapshots"
            )
        weights = np.diff(grid)
        if np.any(weights <= 0.0):
            raise NonMonotoneGrid("time grid must be strictly increasing")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.shape[0] != data.shape[1]:
        raise DimensionMismatch(
            f"weights shape {weights.shape} does not match {data.shape[1]} columns"
        )
    if min(data.shape) < 1:  # load refuses a manifest of dim or count 0
        raise DimensionMismatch(f"need a row and a snapshot column, got shape {data.shape}")
    # nan and inf reach the min or the max, with no data-sized temporary
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise MalformedManifest(
            f"snapshot row {i + 1}, column {j + 1} is {data[i, j]}, not finite"
        )
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise WeightNonPositive("all weights must be finite and > 0")
    if space is not None and space.dim != data.shape[0]:
        raise DimensionMismatch(
            f"space of dim {space.dim} cannot hold columns of length {data.shape[0]}"
        )
    return SnapshotSet(data=data, weights=weights, grid=grid, space=space)


def from_trajectory(grid, states, space=None):
    """Reduce a sampled trajectory to a continuous snapshot set.

    Column k of the result is the average of states at grid points k and
    k + 1, weighted by the interval length (make_snapshot_set checks the
    grid).  This realizes the elementwise midpoint quadrature of time integrals.

    Parameters
    ----------
    grid : array_like, shape (m,)
        Strictly increasing time points, m >= 2.
    states : array_like, shape (dim, m)
        Trajectory samples at the grid points.
    space : GramSpace, optional
        Ambient space to attach.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise DimensionMismatch(f"states must be 2-D, got shape {states.shape}")
    data = 0.5 * (states[:, 1:] + states[:, :-1])
    return make_snapshot_set(data, grid=grid, space=space)


def _temp_beside(path):
    """A new empty temporary file in path's directory, as (fd, name); an
    unwritable directory raises MissingDataFile."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        return tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    except OSError as exc:
        raise MissingDataFile(f"cannot write {path}: {exc.strerror}") from None


def _publish(tmp, path):
    """Give the temporary file tmp the mode open() would (mkstemp makes it
    0600) and move it onto path."""
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(tmp, 0o666 & ~umask)
    os.replace(tmp, path)


def _atomic_write(path, content):
    """Write content to path atomically, through a temporary file beside it.

    content is a str, an iterable of str pieces written in turn, or, for
    bytes, a function that writes them to the open binary file (np.save
    writes an array's buffer there with no copy).
    An unwritable path raises MissingDataFile and leaves no temporary file."""
    fd, tmp = _temp_beside(path)
    try:
        with os.fdopen(fd, "wb" if callable(content) else "w") as fh:
            if callable(content):
                content(fh)
            else:
                fh.writelines([content] if isinstance(content, str) else content)
        _publish(tmp, path)
        tmp = None
    except OSError as exc:
        raise MissingDataFile(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_matrix_csv(path, matrix):
    """Headerless CSV with 17 significant digits, one % of csv_rows.row_format
    per row, written atomically a row at a time (no whole-file text is held)."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    row_fmt = csv_rows.row_format(M.shape[1]) + "\n"
    _atomic_write(path, (row_fmt % tuple(row.tolist()) for row in M))


class CsvStream:
    """A matrix CSV written from blocks of its columns while later columns
    are still being computed, byte for byte the file write_matrix_csv writes.

    Making the stream makes the temporary file beside path, so an
    unwritable path is MissingDataFile before any column exists, and starts
    the helper: csv_rows run as a script in a fresh interpreter (python -I
    -S, the standard library alone) with its standard output on that file.
    write() pipes each block's doubles to the helper, which formats them with
    write_matrix_csv's row format while the next block is computed.
    finish() sends the end mark, waits for the helper to write the file, and
    moves it onto path by _atomic_write's rule.  close(), which leaving a
    with block calls, stops a helper that still runs and removes the
    temporary file unless finish() moved it.

    The helper is a new interpreter, not a fork: the peak RSS that wait4
    reports for a process covers its children, and a forked child starts
    out charged for every page it shares with its parent, so its peak
    would be the parent's size at the fork plus the formatted text.
    """

    def __init__(self, path):
        import subprocess  # here, so that only generate-fhn loads it

        self.path = path
        self._proc = None
        fd, self._tmp = _temp_beside(path)
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", csv_rows.__file__],
                stdin=subprocess.PIPE, stdout=fd, stderr=subprocess.PIPE,
            )
        except OSError as exc:
            self.close()
            raise MissingDataFile(f"cannot write {path}: {exc.strerror}") from None
        finally:
            os.close(fd)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def write(self, block):
        """Hand the next columns, a (rows, k) array, to the helper."""
        block = np.ascontiguousarray(block, dtype=float)
        try:
            self._proc.stdin.write(csv_rows.BLOCK.pack(*block.shape))
            self._proc.stdin.write(memoryview(block).cast("B"))
        except OSError as exc:
            raise MissingDataFile(f"cannot write {self.path}: {exc.strerror}") from None

    def finish(self):
        """Send the end mark, wait for the file, and move it onto path."""
        _, err = self._proc.communicate(csv_rows.BLOCK.pack(0, 0))
        if self._proc.returncode != 0:
            reason = err.decode(errors="replace").strip()
            raise MissingDataFile(
                f"cannot write {self.path}: "
                + (reason or f"the CSV helper exited with {self._proc.returncode}")
            )
        try:
            _publish(self._tmp, self.path)
        except OSError as exc:
            raise MissingDataFile(f"cannot write {self.path}: {exc.strerror}") from None
        self._tmp = None

    def close(self):
        """Stop the helper if it still runs; remove the temporary file unless
        finish() moved it onto path."""
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.communicate()  # closes the pipes, reaps the helper
        if self._tmp is not None and os.path.exists(self._tmp):
            os.unlink(self._tmp)
            self._tmp = None


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


def _digest(data=b""):
    """A BLAKE2b-256 hash object, fed data."""
    return blake2b(data, digest_size=32)


def _file_digest(path):
    """BLAKE2b-256 hex digest of a file, read through one reused 256 KiB
    buffer, as hashlib.file_digest (Python 3.11+) reads it: a fresh bytes
    object per chunk, or a larger buffer, grows generate-fhn's peak RSS."""
    digest = _digest()
    buf = bytearray(2**18)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _read_data_npy(base, csv_path, entry, shape):
    """The data from the .npy a manifest entry names, or None unless the CSV
    still has the recorded digest and the .npy is a finite, C-order float64
    array of this shape with its recorded digest."""
    if not isinstance(entry, dict) or not all(
        isinstance(entry.get(key), str) for key in ("file", "csv_blake2b", "blake2b")
    ):
        return None
    fmt = np.lib.format
    try:
        if _file_digest(csv_path) != entry["csv_blake2b"]:
            return None
        with open(os.path.join(base, entry["file"]), "rb") as fh:
            # the header is checked before any array is allocated, so a
            # header claiming another shape costs nothing (load has checked
            # the manifest's shape against the budget)
            if fmt.read_magic(fh) != (1, 0):  # the version np.save writes
                return None
            if fmt.read_array_header_1_0(fh) != (shape, False, np.dtype(np.float64)):
                return None
            M = np.empty(shape)
            if fh.readinto(memoryview(M).cast("B")) != M.nbytes:
                return None
    except (OSError, ValueError, EOFError):
        return None
    if (
        _digest(memoryview(M)).hexdigest() != entry["blake2b"]
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
    """Parse a JSON file; an unreadable path or invalid JSON is an input error,
    and so is one whose JSON_PARSE_BYTES per byte exceed the dense budget."""
    try:
        with open(path) as fh:
            size = os.fstat(fh.fileno()).st_size
            check_budget(JSON_PARSE_BYTES * size, f"parsing the {size}-byte JSON file {path}")
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
    """The dim x dim matrix a gram spec names: a gram_space.Banded, or a
    dense array for a CSV matrix.

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
        return identity(dim)
    if isinstance(spec, str):
        check_dense_budget(CSV_GRAM_ARRAYS, (dim, dim), f"CSV matrix {spec}")
        return read_matrix_csv(os.path.join(base_dir, spec), dim, dim)
    if isinstance(spec, dict) and len(spec) == 1:
        key, n = next(iter(spec.items()))
        if key == "block_diag" and isinstance(n, list) and n:
            sizes = [_block_dim(block) for block in n]
            if sum(sizes) != dim:
                raise MalformedManifest(f"block_diag of sizes {sizes} in a dim-{dim} manifest")
            return block_diag([gram_matrix(block, size) for block, size in zip(n, sizes)])
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
    return make_space(gram_matrix(spec, dim, base_dir))


def data_csv_path(manifest_path):
    """The data CSV that save writes beside a manifest: its stem plus _data.csv."""
    return os.path.splitext(os.path.abspath(manifest_path))[0] + "_data.csv"


def save(sset, manifest_path, gram_spec, stream=None):
    """Write a snapshot set as manifest JSON plus data CSV and its .npy.

    The data CSV lands next to the manifest with the suffix "_data.csv"
    (data_csv_path), and the same doubles, C-order float64, with the suffix
    "_data.npy".  gram_spec is the manifest gram entry recorded for the set's
    space, in one of the forms gram_matrix accepts; no Gram matrix is
    written.  stream, when given, is the CsvStream to data_csv_path that
    was handed sset.data as it was computed; save writes the .npy while the
    stream's helper may still be formatting, then finishes the stream
    rather than writing the CSV again (a failed finish removes the .npy).
    """
    manifest_path = os.path.abspath(manifest_path)
    data_path = data_csv_path(manifest_path)
    npy_path = os.path.splitext(data_path)[0] + ".npy"
    if stream is None:
        write_matrix_csv(data_path, sset.data)
    M = np.ascontiguousarray(sset.data, dtype=float)
    _atomic_write(npy_path, lambda fh: np.save(fh, M, allow_pickle=False))
    npy_digest = _digest(memoryview(M)).hexdigest()
    if stream is not None:
        try:
            stream.finish()
        except MissingDataFile:
            os.unlink(npy_path)
            raise
    manifest = {
        "dim": int(sset.space_dim),
        "count": int(sset.count),
        "kind": sset.kind,
        "gram": gram_spec,
        "data": os.path.basename(data_path),
        "data_npy": {
            "file": os.path.basename(npy_path),
            "csv_blake2b": _file_digest(data_path),
            "blake2b": npy_digest,
        },
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
    _read_data_npy holds, and from the CSV otherwise; before either is
    read, DATA_LOAD_ARRAYS dim x count doubles are checked against
    gram_space.DENSE_BYTES_BUDGET (ProblemTooLarge).  Raises
    MalformedManifest / MissingDataFile as appropriate; make_snapshot_set
    checks the manifest's grid or weights.
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
    check_dense_budget(DATA_LOAD_ARRAYS, (dim, count), f"the data of {manifest_path}")
    data = _read_data_npy(base, data_path, manifest.get("data_npy"), (dim, count))
    if data is None:
        data = read_matrix_csv(data_path, dim, count)

    grid = weights = None
    if kind == "continuous":
        grid = _float_list(manifest.get("grid"), "continuous manifest grid", count + 1)
    else:
        weights = _float_list(manifest.get("weights"), "discrete manifest weights", count)

    space = resolve_gram_spec(manifest.get("gram"), dim, base)
    return make_snapshot_set(data, weights, grid, space)
