import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from podkit import csv_rows
from podkit.csv_rows import BLOCK, CSV_FMT
from podkit.errors import (
    DimensionMismatch,
    MalformedManifest,
    MissingDataFile,
    NonMonotoneGrid,
    ProblemTooLarge,
    SolverDiverged,
    WeightNonPositive,
)
from podkit.fem import assemble_fem_1d
from podkit.fhn_gen import FhnConfig, embedding_set, solve_fhn
from podkit.gram_space import DENSE_BYTES_BUDGET, identity, make_space
from podkit.snapshot_io import (
    CsvStream,
    CSV_GRAM_ARRAYS,
    DATA_LOAD_ARRAYS,
    csv_shape,
    data_csv_path,
    from_trajectory,
    load,
    make_snapshot_set,
    read_matrix_csv,
    gram_matrix,
    resolve_gram_spec,
    save,
    write_matrix_csv,
)


def test_matrix_csv_rows_match_per_value_formatting(tmp_path):
    # one format string per row writes the bytes CSV_FMT % v writes per value
    cases = [
        np.array([[-0.0, 5e-324, 1e308], [1.0, -2.5, np.pi]]),
        np.array([[-0.0], [5e-324], [1e308], [-1e-308]]),
    ]
    for k, M in enumerate(cases):
        path = tmp_path / f"m{k}.csv"
        write_matrix_csv(str(path), M)
        expected = "".join(",".join(CSV_FMT % v for v in row) + "\n" for row in M)
        assert path.read_bytes() == expected.encode()


def test_matrix_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((7, 5)) * np.exp(rng.standard_normal((7, 5)) * 10)
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, M)
    back = read_matrix_csv(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back, M)


def test_read_matrix_csv_shape_check(tmp_path):
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, np.eye(3))
    with pytest.raises(MalformedManifest):
        read_matrix_csv(path, rows=2, cols=3)


def test_make_snapshot_set_validation():
    data = np.ones((3, 4))
    with pytest.raises(WeightNonPositive):
        make_snapshot_set(data, [1.0, 1.0, 0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        make_snapshot_set(data, [1.0, 1.0])
    for empty in (np.ones((0, 4)), np.ones((3, 0))):  # load refuses dim or count 0
        with pytest.raises(DimensionMismatch):
            make_snapshot_set(empty, np.ones(empty.shape[1]))
    with pytest.raises(NonMonotoneGrid):
        make_snapshot_set(data, grid=[0.0, 1.0, 0.5, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        make_snapshot_set(data, grid=[0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_data_is_refused_before_any_file_is_written(tmp_path, bad):
    # load refuses such a bundle, so the set is refused at construction, as
    # non-finite weights are, and save never runs
    data = np.array([[1.0, 1.0], [bad, 1.0]])
    with pytest.raises(MalformedManifest, match=f"row 2, column 1 is {bad}, not finite"):
        save(make_snapshot_set(data, np.ones(2)), str(tmp_path / "s.json"), "identity")
    assert os.listdir(tmp_path) == []


def test_finite_data_check_allocates_no_data_sized_temporary():
    data = np.ones((500, 2000))  # 8 MB; an isfinite mask of it takes 1 MB
    tracemalloc.start()
    try:
        make_snapshot_set(data, np.ones(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_from_trajectory_midpoint_averages():
    grid = np.array([0.0, 0.5, 1.5])
    states = np.array([[0.0, 2.0, 4.0], [1.0, 1.0, 5.0]])
    sset = from_trajectory(grid, states)
    assert np.allclose(sset.data, [[1.0, 3.0], [1.0, 3.0]])
    assert np.allclose(sset.weights, [0.5, 1.0])
    assert sset.kind == "continuous"


def test_from_trajectory_quadrature_refinement():
    # the weighted energy of the reduced set is a midpoint rule for
    # int ||w(t)||^2 dt; halving the step must converge at second order
    def trajectory(ts):
        return np.vstack([np.sin(2.0 * np.pi * ts), np.cos(np.pi * ts)])

    exact = 1.0  # int_0^1 sin^2(2 pi t) + cos^2(pi t) dt
    errs = []
    for m in (64, 128, 256):
        ts = np.linspace(0.0, 1.0, m + 1)
        sset = from_trajectory(ts, trajectory(ts))
        energy = float(np.sum(sset.weights * np.sum(sset.data**2, axis=0)))
        errs.append(abs(energy - exact))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    space = make_space((lambda A: (A.T @ A + 5 * np.eye(5)) / 5)(rng.standard_normal((5, 5))))
    sset = make_snapshot_set(rng.standard_normal((5, 9)), rng.uniform(0.5, 2.0, 9), space=space)
    write_matrix_csv(str(tmp_path / "set_gram.csv"), space.gram.toarray())
    path = str(tmp_path / "set.json")
    save(sset, path, gram_spec="set_gram.csv")
    back = load(path)
    assert np.array_equal(back.data, sset.data)
    assert np.array_equal(back.weights, sset.weights)
    assert np.array_equal(back.space.gram.toarray(), sset.space.gram.toarray())
    assert back.kind == "discrete"


def test_save_load_continuous(tmp_path):
    grid = np.linspace(0.0, 2.0, 7)
    states = np.random.default_rng(2).standard_normal((3, 7))
    sset = from_trajectory(grid, states, space=make_space(identity(3)))
    path = str(tmp_path / "traj.json")
    save(sset, path, gram_spec="identity")
    back = load(path)
    assert back.kind == "continuous"
    assert np.array_equal(back.grid, grid)
    assert np.array_equal(back.weights, sset.weights)
    assert np.array_equal(back.data, sset.data)
    # the loaded set saves to the same manifest, byte for byte
    (tmp_path / "again").mkdir()
    save(back, str(tmp_path / "again" / "traj.json"), gram_spec="identity")
    assert (tmp_path / "again" / "traj.json").read_bytes() == (tmp_path / "traj.json").read_bytes()


def test_continuous_weights_must_be_the_grid_intervals():
    # a bundle stores only the grid, so a set takes weights or a grid, never
    # both, and a grid's set weighs each snapshot by its interval
    grid = np.array([0.0, 0.5, 0.7, 0.9])
    with pytest.raises(MalformedManifest, match="either weights or a time grid"):
        make_snapshot_set(np.ones((2, 3)), np.diff(grid), grid=grid)
    with pytest.raises(MalformedManifest, match="either weights or a time grid"):
        make_snapshot_set(np.ones((2, 3)))
    sset = make_snapshot_set(np.ones((2, 3)), grid=grid)
    assert sset.kind == "continuous"
    assert np.array_equal(sset.weights, np.diff(grid))


def test_load_missing_and_malformed(tmp_path):
    with pytest.raises(MissingDataFile):
        load(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedManifest):
        load(str(bad))
    # well-formed JSON, missing keys
    (tmp_path / "short.json").write_text(json.dumps({"dim": 2}))
    with pytest.raises(MalformedManifest):
        load(str(tmp_path / "short.json"))


def test_load_missing_data_file(tmp_path):
    manifest = {
        "dim": 2,
        "count": 2,
        "kind": "discrete",
        "gram": "identity",
        "data": "nowhere.csv",
        "weights": [1.0, 1.0],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(MissingDataFile):
        load(str(path))


def test_load_weight_count_mismatch(tmp_path):
    write_matrix_csv(str(tmp_path / "d.csv"), np.ones((2, 3)))
    manifest = {
        "dim": 2,
        "count": 3,
        "kind": "discrete",
        "gram": "identity",
        "data": "d.csv",
        "weights": [1.0, 1.0],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(MalformedManifest):
        load(str(path))


def test_load_refuses_transposed_data(tmp_path):
    # a 4 x 3 data file holds as many values as the 3 x 4 manifest names,
    # but reshaping it would scramble the columns
    rng = np.random.default_rng(3)
    path = str(tmp_path / "set.json")
    save(make_snapshot_set(rng.standard_normal((3, 4)), np.ones(4)), path, "identity")
    data = str(tmp_path / "set_data.csv")
    write_matrix_csv(data, read_matrix_csv(data).T)
    with pytest.raises(MalformedManifest):
        load(path)


def test_resolve_gram_generators():
    mesh = assemble_fem_1d(6)
    sp = resolve_gram_spec({"fem_mass": 6}, 6)
    assert np.allclose(sp.gram.toarray(), mesh.mass.toarray())
    sp = resolve_gram_spec({"fem_stiffness": 6}, 6)
    assert np.allclose(sp.gram.toarray(), (mesh.stiffness + mesh.mass).toarray())
    with pytest.raises(MalformedManifest):
        resolve_gram_spec({"fem_mass": 6}, 7)
    with pytest.raises(MalformedManifest):
        resolve_gram_spec({"mystery": 6}, 6)


def test_block_diag_gram_spec():
    mesh5, mesh4 = assemble_fem_1d(5), assemble_fem_1d(4)
    G = gram_matrix({"block_diag": [{"fem_mass": 5}, {"fem_stiffness": 4}]}, 9)
    want = block_diag(mesh5.mass.toarray(), (mesh4.stiffness + mesh4.mass).toarray())
    assert np.array_equal(G.toarray(), want)
    for spec, dim in [
        ({"block_diag": [{"fem_mass": 5}, {"fem_mass": 5}]}, 9),  # sizes sum to 10
        ({"block_diag": [{"fem_mass": 5}, "identity"]}, 9),  # a block names no size
        ({"block_diag": [{"block_diag": [{"fem_mass": 5}]}]}, 5),
        ({"block_diag": [{"fem_mass": 1}]}, 1),
        ({"block_diag": []}, 0),
        ({"block_diag": {"fem_mass": 5}}, 5),
    ]:
        with pytest.raises(MalformedManifest):
            gram_matrix(spec, dim)


def test_csv_shape_counts_without_parsing(tmp_path):
    path = tmp_path / "m.csv"
    for text, shape in [
        ("1,2,3\n4,5,6\n", (2, 3)),
        ("1,2,3\n4,5,6", (2, 3)),  # no final newline
        ("7\n", (1, 1)),
        ("1,2\nx\n\n", (3, 2)),  # ragged and blank rows are loadtxt's to refuse
        ("0," * 2**20 + "0\n1\n", (2, 2**20 + 1)),  # a first row over one chunk
    ]:
        path.write_text(text)
        assert csv_shape(str(path)) == shape
    with pytest.raises(MissingDataFile):
        csv_shape(str(tmp_path / "absent.csv"))


def _largest_csv_gram():
    return int((DENSE_BYTES_BUDGET // (8 * CSV_GRAM_ARRAYS)) ** 0.5)


def test_csv_gram_beyond_the_dense_budget_is_refused_before_reading(tmp_path):
    # a CSV Gram is dense: CSV_GRAM_ARRAYS dim^2 doubles, sized from the dim
    # alone, so the absent file is never opened once they exceed the budget
    largest = _largest_csv_gram()
    with pytest.raises(MissingDataFile):
        resolve_gram_spec("absent.csv", largest, str(tmp_path))
    for dim in (largest + 1, 30000):
        with pytest.raises(ProblemTooLarge):
            resolve_gram_spec("absent.csv", dim, str(tmp_path))


def test_csv_gram_peaks_within_its_counted_arrays(tmp_path):
    # the budget counts CSV_GRAM_ARRAYS dense dim x dim arrays: the traced
    # peak of reading a Gram CSV and factoring it
    n = 400
    rng = np.random.default_rng(5)
    A = rng.standard_normal((n, n))
    write_matrix_csv(str(tmp_path / "g_gram.csv"), A @ A.T + n * np.eye(n))
    del A
    counted = 8 * CSV_GRAM_ARRAYS * n * n
    tracemalloc.start()
    try:
        space = resolve_gram_spec("g_gram.csv", n, str(tmp_path))
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.chol.shape == (n, n)
    assert read_peak < counted, (read_peak, counted)


def test_load_peaks_within_its_counted_arrays(tmp_path):
    # the budget counts DATA_LOAD_ARRAYS dim x count arrays: the traced peak
    # of loading a bundle from its .npy and, with the .npy gone, its CSV
    dim, count = 200, 500
    path = str(tmp_path / "s.json")
    data = np.random.default_rng(6).standard_normal((dim, count))
    save(make_snapshot_set(data, np.ones(count)), path, "identity")
    del data
    counted = 8 * DATA_LOAD_ARRAYS * dim * count
    for route in ("npy", "csv"):
        if route == "csv":
            os.remove(tmp_path / "s_data.npy")
        tracemalloc.start()
        try:
            sset = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sset.data.shape == (dim, count)
        assert peak < counted, (route, peak, counted)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = str(tmp_path / "out.csv")
    write_matrix_csv(path, np.eye(2))
    write_matrix_csv(path, np.eye(2) * 2)  # overwrite through the same path
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp_")]
    assert leftovers == []
    assert read_matrix_csv(path)[0, 0] == 2.0


# -- the data CSV streamed to a helper process ---------------------------------

def _stream_csv(path, M, block):
    """M's CSV through a CsvStream, handed over block columns at a time."""
    with CsvStream(path) as stream:
        for start in range(0, M.shape[1], block):
            stream.write(M[:, start : start + block])
        stream.finish()
    return stream


@pytest.mark.parametrize("case", ["specials", "one-column", "ragged-blocks"])
def test_csv_stream_writes_the_bytes_write_matrix_csv_writes(tmp_path, case):
    rng = np.random.default_rng(5)
    M, block = {
        # signed zeros, subnormals, three-digit exponents of both signs
        "specials": (np.array([
            [0.0, -0.0, 5e-324, -2.2250738585072014e-308],
            [1e308, -1.5e-310, 1e-100, -np.pi * 1e200],
        ]), 1),
        "one-column": (rng.standard_normal((7, 1)), 3),
        # 23 columns in blocks of 4: the last block has 3
        "ragged-blocks": (
            rng.standard_normal((5, 23)) * 10.0 ** rng.integers(-300, 300, (5, 23)), 4
        ),
    }[case]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    write_matrix_csv(str(want), M)
    stream = _stream_csv(str(got), M, block)
    assert got.read_bytes() == want.read_bytes()
    assert os.stat(got).st_mode == os.stat(want).st_mode
    assert stream._proc.returncode == 0
    assert sorted(os.listdir(tmp_path)) == ["got.csv", "want.csv"]


def test_csv_stream_into_a_missing_directory_fails_at_once(tmp_path):
    with pytest.raises(MissingDataFile, match="cannot write .*absent.*No such file"):
        CsvStream(str(tmp_path / "absent" / "x.csv"))
    assert os.listdir(tmp_path) == []


def test_killed_csv_helper_is_missing_data_file(tmp_path):
    stream = CsvStream(str(tmp_path / "x.csv"))
    with stream, pytest.raises(MissingDataFile, match="cannot write"):
        stream.write(np.ones((4, 3)))
        stream._proc.kill()
        stream._proc.wait(timeout=60)
        stream.write(np.ones((4, 2**12)))  # larger than the pipe and its buffer
        stream.finish()
    assert stream._proc.returncode is not None
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "tail, message",
    [
        (b"", b"before the end mark"),
        (BLOCK.pack(4, 3) + b"\0" * 10, b"a block of 10 bytes for 4 x 3 doubles"),
    ],
    ids=["after-a-block", "inside-a-block"],
)
def test_csv_helper_writes_nothing_without_the_end_mark(tmp_path, tail, message):
    # input that ends before the end mark, as when the parent dies mid-solve
    out = tmp_path / "x.csv"
    with open(out, "wb") as fh:
        done = subprocess.run(
            [sys.executable, "-I", "-S", csv_rows.__file__],
            input=BLOCK.pack(4, 3) + np.ones((4, 3)).tobytes() + tail,
            stdout=fh, stderr=subprocess.PIPE, timeout=60,
        )
    assert done.returncode == 1
    assert message in done.stderr
    assert out.read_bytes() == b""


def test_failed_csv_helper_is_missing_data_file_with_its_message(tmp_path):
    # a block cut short: the end mark's header is read as the block's
    # missing bytes, and the input ends inside the block
    stream = CsvStream(str(tmp_path / "x.csv"))
    with stream, pytest.raises(MissingDataFile, match="a block of 26 bytes for 4 x 3 doubles"):
        stream._proc.stdin.write(BLOCK.pack(4, 3) + b"\0" * 10)
        stream.finish()
    assert stream._proc.returncode == 1
    assert os.listdir(tmp_path) == []


def test_csv_stream_left_by_a_diverged_solve_leaves_nothing(tmp_path):
    stream = CsvStream(str(tmp_path / "x.csv"))
    with np.errstate(all="ignore"), pytest.raises(SolverDiverged), stream:
        stream.write(np.ones((8, 3)))  # columns already with the helper
        solve_fhn(FhnConfig(nodes=4, mu=0.0), stream)
    assert stream._proc.returncode is not None
    assert os.listdir(tmp_path) == []


def test_save_writes_the_npy_before_it_waits_on_the_stream(tmp_path):
    # the .npy and its digest come first, the stream's CSV after; the
    # bundle is the one save writes with no stream, byte for byte
    sset, gram_spec, _ = embedding_set(9, seed=3)
    save(sset, str(tmp_path / "s.json"), gram_spec)
    streamed = tmp_path / "streamed"
    streamed.mkdir()
    path = str(streamed / "s.json")
    seen = []

    class Stream:
        def finish(self):
            seen.append(sorted(os.listdir(streamed)))
            write_matrix_csv(data_csv_path(path), sset.data)

    save(sset, path, gram_spec, Stream())
    assert seen == [["s_data.npy"]]
    for name in ("s.json", "s_data.csv", "s_data.npy"):
        assert (streamed / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_save_with_a_failed_stream_leaves_nothing(tmp_path):
    path = str(tmp_path / "s.json")
    stream = CsvStream(data_csv_path(path))
    with stream, pytest.raises(MissingDataFile, match="a block of 26 bytes"):
        stream._proc.stdin.write(BLOCK.pack(4, 3) + b"\0" * 10)  # a block cut short
        save(make_snapshot_set(np.ones((4, 3)), np.ones(3)), path, "identity", stream)
    assert os.listdir(tmp_path) == []


# -- the .npy copy of the data beside the CSV ---------------------------------

def _bits(M):
    """An array's float64 bits, so that -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(M, dtype=float).view(np.int64)


def _count_loadtxt(monkeypatch):
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def _saved_bundle(tmp_path, nodes=9, seed=3):
    sset, gram_spec, _ = embedding_set(nodes, seed=seed)
    path = str(tmp_path / "s.json")
    save(sset, path, gram_spec=gram_spec)
    return path, sset


def test_saved_npy_loads_the_bits_loadtxt_reads(tmp_path, fhn_instance):
    # the flagship and the 1,000-node embedding, as generate-fhn and
    # generate-synthetic save them
    cases = [
        ("fhn", fhn_instance["set"], {"block_diag": [{"fem_mass": 100}] * 2}),
        ("embed", *embedding_set(1000, seed=1)[:2]),
    ]
    for stem, sset, gram in cases:
        path = str(tmp_path / f"{stem}.json")
        save(sset, path, gram_spec=gram)
        entry = json.loads(Path(path).read_text())["data_npy"]
        assert entry == {
            "file": f"{stem}_data.npy",
            "csv_blake2b": _blake2b_256((tmp_path / f"{stem}_data.csv").read_bytes()),
            "blake2b": _blake2b_256(np.ascontiguousarray(sset.data).tobytes()),
        }
        back = load(path).data
        parsed = np.loadtxt(tmp_path / f"{stem}_data.csv", delimiter=",", ndmin=2)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert np.array_equal(_bits(back), _bits(parsed))
        assert np.array_equal(_bits(back), _bits(sset.data))


def test_saved_bundle_loads_without_parsing_the_csv(tmp_path, monkeypatch):
    # signed zero and subnormals included
    data = np.array([[-0.0, 5e-324, 1e308], [1.0, -2.5e-310, np.pi]])
    path = str(tmp_path / "z.json")
    save(make_snapshot_set(data, np.ones(3)), path, "identity")
    calls = _count_loadtxt(monkeypatch)
    assert np.array_equal(_bits(load(path).data), _bits(data))
    assert calls == []


def test_save_and_load_need_no_python_3_11_hashlib(tmp_path, monkeypatch):
    # hashlib.file_digest is new in Python 3.11; the package supports 3.10
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    path, sset = _saved_bundle(tmp_path)
    calls = _count_loadtxt(monkeypatch)
    assert np.array_equal(_bits(load(path).data), _bits(sset.data))
    assert calls == []


def test_an_edited_csv_cell_wins_over_the_npy(tmp_path, monkeypatch):
    path, sset = _saved_bundle(tmp_path)
    csv_path = str(tmp_path / "s_data.csv")
    edited = sset.data.copy()
    edited[4, 7] = 12.5
    write_matrix_csv(csv_path, edited)
    calls = _count_loadtxt(monkeypatch)
    back = load(path).data
    assert back[4, 7] == 12.5
    assert np.array_equal(_bits(back), _bits(edited))
    assert len(calls) == 1


def _blake2b_256(raw):
    return hashlib.blake2b(raw, digest_size=32).hexdigest()


def _rewrite_npy(path, array, digest_of=None):
    """Replace the bundle's .npy and record the digest of digest_of (default:
    the new array), so that only the check under test can refuse it."""
    np.save(path.replace(".json", "_data.npy"), array, allow_pickle=True)
    manifest = json.loads(Path(path).read_text())
    of = np.ascontiguousarray(array if digest_of is None else digest_of)
    manifest["data_npy"]["blake2b"] = _blake2b_256(of.tobytes())
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def _tamper(case, path, data):
    npy = path.replace(".json", "_data.npy")
    if case == "tampered":
        raw = bytearray(Path(npy).read_bytes())
        raw[-1] ^= 1  # the last byte of the last double
        Path(npy).write_bytes(bytes(raw))
    elif case == "missing":
        os.remove(npy)
    elif case == "not_npy":
        Path(npy).write_bytes(b"a,b\n")
    elif case == "pickled":
        _rewrite_npy(path, np.array([data], dtype=object), digest_of=data)
    elif case == "wrong_shape":
        _rewrite_npy(path, np.ascontiguousarray(data.T))
    elif case == "float32":
        _rewrite_npy(path, data.astype(np.float32))
    elif case == "fortran":
        _rewrite_npy(path, np.asfortranarray(data), digest_of=data.T)
    elif case == "non_finite":
        bad = data.copy()
        bad[0, 0] = np.nan
        _rewrite_npy(path, bad)
    elif case == "huge_header":
        # a header that claims a 4 EiB array must be refused before any
        # allocation, not raise MemoryError
        with open(npy, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (2**31, 2**28)}
            )
            fh.write(b"\0" * 64)
    elif case == "truncated":
        raw = Path(npy).read_bytes()
        Path(npy).write_bytes(raw[:-8])
    elif case == "big_endian":
        _rewrite_npy(path, data.astype(">f8"))
    elif case == "no_key":
        manifest = json.loads(Path(path).read_text())
        del manifest["data_npy"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
    elif case == "bad_entry":
        manifest = json.loads(Path(path).read_text())
        manifest["data_npy"]["blake2b"] = 7
        with open(path, "w") as fh:
            json.dump(manifest, fh)


@pytest.mark.parametrize(
    "case",
    ["tampered", "missing", "not_npy", "pickled", "wrong_shape", "float32", "fortran",
     "non_finite", "huge_header", "truncated", "big_endian", "no_key", "bad_entry"],
)
def test_a_refused_npy_falls_back_to_the_csv(tmp_path, monkeypatch, case):
    path, sset = _saved_bundle(tmp_path)
    _tamper(case, path, sset.data)
    calls = _count_loadtxt(monkeypatch)
    back = load(path).data
    assert calls == [str(tmp_path / "s_data.csv")]
    assert np.array_equal(_bits(back), _bits(sset.data))


def test_the_csv_stays_the_source_of_truth_for_errors(tmp_path):
    # with the .npy intact, a missing or non-finite CSV still raises
    path, _ = _saved_bundle(tmp_path)
    csv_path = tmp_path / "s_data.csv"
    text = csv_path.read_text()
    csv_path.write_text("nan" + text[text.index(","):])
    with pytest.raises(MalformedManifest):
        load(path)
    os.remove(csv_path)
    with pytest.raises(MissingDataFile):
        load(path)

