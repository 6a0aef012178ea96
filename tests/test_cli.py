"""Command-line surface: pipelines, exit codes, determinism, tolerances."""

import json
import os
import stat

import numpy as np
import pytest
from scipy.linalg import block_diag

from podkit.cli import POINTWISE_PER_LEVEL, build_map_from_spec, main
from podkit.error_lab import battery_level, certifier, write_report
from podkit.fem import assemble_fem_1d
from podkit.fhn_gen import FhnConfig, make_fhn_instance
from podkit.pod_engine import compute_pod, load_basis
from podkit.snapshot_io import load

from oracles import make_embedding_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_bundle(tmp_path, capsys):
    manifest = str(tmp_path / "synth.json")
    code = main(["generate-synthetic", "--output", manifest, "--nodes", "17"])
    capsys.readouterr()
    assert code == 0
    return manifest, manifest.replace(".json", "_map.json")


def test_generate_synthetic_writes_bundle(synth_bundle):
    manifest, map_path = synth_bundle
    assert os.path.exists(manifest)
    assert os.path.exists(manifest.replace(".json", "_data.csv"))
    spec = json.load(open(map_path))
    assert spec == {"embedding": {"from": "mass", "to": "stiffness+mass"}}


def test_pod_roundtrip_and_truncation(synth_bundle, tmp_path, capsys):
    manifest, _ = synth_bundle
    bundle = str(tmp_path / "basis.json")
    code, out, _ = run(capsys, "pod", "--input", manifest, "--output", bundle, "--r", "4")
    assert code == 0
    assert "rank" in out
    basis = load_basis(bundle)
    assert basis.rank == 4
    assert basis.modes.shape == (17, 4)
    # asking past the computable rank is an input error
    code2, _, err = run(capsys, "pod", "--input", manifest, "--output", bundle, "--r", "50")
    assert code2 == 2
    assert json.loads(err)["error"] == "RankExceeded"


def test_verify_passes_on_synthetic(synth_bundle, tmp_path, capsys):
    manifest, map_path = synth_bundle
    report = str(tmp_path / "report.json")
    code, out, err = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--output", report, "--r", "1,3",
    )
    assert code == 0, err
    payload = json.load(open(report))
    assert payload["all_passed"] is True
    assert any(row["identity_id"] == "pod_x" for row in payload["checks"])


def test_verify_exit_codes_and_tol_env(synth_bundle, tmp_path, capsys, monkeypatch):
    manifest, map_path = synth_bundle
    report = str(tmp_path / "report.json")
    # an absurd identity tolerance from the environment forces failures
    monkeypatch.setenv("PODKIT_TOL", "1e-18")
    code, out, _ = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--output", report, "--r", "2",
    )
    assert code == 4
    assert "FAIL" in out
    # the command-line flag outranks the environment
    code2, _, _ = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--output", report, "--r", "2", "--tol", "1e-8",
    )
    assert code2 == 0
    monkeypatch.delenv("PODKIT_TOL")
    # a malformed environment value is an input error
    monkeypatch.setenv("PODKIT_TOL", "not-a-number")
    code3, _, err = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--output", report, "--r", "2",
    )
    assert code3 == 2
    assert json.loads(err)["error"] == "MalformedManifest"


def test_verify_requires_map_for_nonorthogonal(synth_bundle, tmp_path, capsys):
    manifest, _ = synth_bundle
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--projector", "ritz",
        "--output", str(tmp_path / "r.json"), "--r", "2",
    )
    assert code == 2
    assert json.loads(err)["error"] == "ProvenanceMismatch"


def test_missing_manifest_is_input_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "verify", "--input", str(tmp_path / "absent.json"),
        "--output", str(tmp_path / "r.json"),
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MissingDataFile"
    assert "message" in payload


def test_singular_matrix_map_is_numerical_error(synth_bundle, tmp_path, capsys):
    manifest, _ = synth_bundle
    sing = str(tmp_path / "sing.csv")
    M = np.zeros((17, 17))
    np.savetxt(sing, M, delimiter=",")
    spec = json.dumps({"matrix": sing, "invertible": True})
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--map", spec,
        "--output", str(tmp_path / "r.json"), "--r", "1",
    )
    assert code == 3
    assert json.loads(err)["error"] == "NotInvertible"


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_composite_xy_with_a_map_without_inverse_is_an_input_error(tmp_path, capsys, command):
    # the flagship's derivative_1d spec has no inverse: refused as soon as
    # the map is built, like --projector ritz without --map
    manifest = str(tmp_path / "fhn.json")
    assert main(["generate-fhn", "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    report = str(tmp_path / ("r.json" if command == "verify" else "r.csv"))
    code, _, err = run(
        capsys, command, "--input", manifest, "--map", manifest.replace(".json", "_map.json"),
        "--projector", "composite-xy", "--r", "1", "--output", report,
    )
    assert code == 2
    assert json.loads(err)["error"] == "ProvenanceMismatch"
    assert not os.path.exists(report)


def test_map_spec_rejects_unknown_and_duplicate_keys(synth_bundle, tmp_path, capsys):
    manifest, _ = synth_bundle
    out = str(tmp_path / "r.json")
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--output", out,
        "--map", json.dumps({"identities": 17}), "--r", "1",
    )
    assert code == 2
    assert json.loads(err)["error"] == "MalformedManifest"
    code2, _, err2 = run(
        capsys, "verify", "--input", manifest, "--output", out,
        "--map", json.dumps({"identity": 17, "diag": [1.0] * 17}), "--r", "1",
    )
    assert code2 == 2
    assert json.loads(err2)["error"] == "MalformedManifest"


def test_embedding_spec_checks_provenance(synth_bundle, tmp_path, capsys):
    # the bundle's gram is the plain FEM mass matrix, so an embedding
    # declared to start from the derivative-augmented gram must be refused
    manifest, _ = synth_bundle
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--output", str(tmp_path / "r.json"),
        "--map", json.dumps({"embedding": {"from": "stiffness+mass", "to": "mass"}}),
        "--r", "1",
    )
    assert code == 2
    assert json.loads(err)["error"] == "ProvenanceMismatch"


def test_sweep_and_table(synth_bundle, tmp_path, capsys):
    manifest, map_path = synth_bundle
    csv_path = str(tmp_path / "sweep.csv")
    code, out, err = run(
        capsys, "sweep", "--input", manifest, "--map", map_path,
        "--output", csv_path, "--r", "2,4",
    )
    assert code == 0, err
    lines = open(csv_path).read().strip().split("\n")
    assert lines[0].startswith("identity_id,r,actual,formula")
    # per level: ambient, mapped, projected, pulled back
    assert len(lines) == 1 + 8
    code2, out2, _ = run(capsys, "table", "--input", csv_path)
    assert code2 == 0
    assert "pod_x" in out2 and "pass" in out2

    # a sweep without a map has no identities to tabulate
    code3, _, err3 = run(
        capsys, "sweep", "--input", manifest, "--output", csv_path, "--r", "2",
    )
    assert code3 == 2


def test_table_exit_reflects_failures(synth_bundle, tmp_path, capsys, monkeypatch):
    manifest, map_path = synth_bundle
    report = str(tmp_path / "bad.json")
    monkeypatch.setenv("PODKIT_TOL", "1e-18")
    code, _, _ = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--output", report, "--r", "2",
    )
    assert code == 4
    monkeypatch.delenv("PODKIT_TOL")
    code2, out, _ = run(capsys, "table", "--input", report)
    assert code2 == 4
    assert "FAIL" in out


def test_outputs_byte_identical_across_reruns(tmp_path, capsys):
    a = str(tmp_path / "a" / "s.json")
    b = str(tmp_path / "b" / "s.json")
    os.makedirs(os.path.dirname(a))
    os.makedirs(os.path.dirname(b))
    for target in (a, b):
        code = main(["generate-synthetic", "--output", target, "--nodes", "17"])
        capsys.readouterr()
        assert code == 0
    data_a = open(a.replace(".json", "_data.csv"), "rb").read()
    data_b = open(b.replace(".json", "_data.csv"), "rb").read()
    assert data_a == data_b

    sweep_a = str(tmp_path / "a" / "sweep.csv")
    sweep_b = str(tmp_path / "b" / "sweep.csv")
    for src, dst in ((a, sweep_a), (b, sweep_b)):
        code = main([
            "sweep", "--input", src, "--map", src.replace(".json", "_map.json"),
            "--output", dst, "--r", "1,2",
        ])
        capsys.readouterr()
        assert code == 0
    assert open(sweep_a, "rb").read() == open(sweep_b, "rb").read()


@pytest.mark.parametrize(
    "flag, family",
    [("orthogonal", "orthogonal"), ("ritz", "ritz"), ("composite-xy", "pushforward")],
    ids=["orthogonal", "ritz", "composite-xy"],
)
def test_verify_rows_are_the_library_battery(
    synth_bundle, tmp_path, capsys, monkeypatch, flag, family
):
    # the CLI and the library are one path: every row verify writes is the
    # row battery_level gives for the certifier of the same bundle, with the
    # CLI's seeded pointwise coefficients drawn level by level
    monkeypatch.delenv("PODKIT_TOL", raising=False)
    manifest, map_path = synth_bundle
    report = tmp_path / "cli.json"
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--map", map_path, "--projector", flag,
        "--r", "1,3,4", "--seed", "7", "--output", str(report),
    )
    assert code == 0, err
    sset = load(manifest)
    lmap, form = build_map_from_spec(map_path, sset)
    cert = certifier(sset, compute_pod(sset), lmap, family, form)
    rng = np.random.default_rng(7)
    reports = []
    for r in (1, 3, 4):
        coeffs = rng.standard_normal((POINTWISE_PER_LEVEL, sset.count)).T
        reports += battery_level(cert, r, coeffs=coeffs)
    library = str(tmp_path / "library.json")
    write_report(reports, library)
    assert json.load(open(report))["checks"] == json.load(open(library))["checks"]


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_repeated_truncation_levels_are_refused(synth_bundle, tmp_path, capsys, command):
    # a level listed twice would run twice and write its rows twice
    manifest, map_path = synth_bundle
    report = tmp_path / "r.json"
    code, _, err = run(
        capsys, command, "--input", manifest, "--map", map_path, "--r", "2,3,2",
        "--output", str(report),
    )
    assert code == 2
    assert json.loads(err)["error"] == "IndexOutOfRange"
    assert not report.exists()


def test_projector_families_run_on_synthetic(synth_bundle, tmp_path, capsys):
    manifest, map_path = synth_bundle
    for family in ("orthogonal", "ritz", "composite-xy"):
        report = str(tmp_path / f"{family}.json")
        code, _, err = run(
            capsys, "verify", "--input", manifest, "--map", map_path,
            "--output", report, "--projector", family, "--r", "2",
        )
        assert code == 0, (family, err)
        assert json.load(open(report))["all_passed"] is True


@pytest.mark.parametrize("mask", [0o022, 0o027], ids=["umask022", "umask027"])
def test_written_files_follow_umask(tmp_path, capsys, mask):
    manifest = str(tmp_path / "s.json")
    map_path = manifest.replace(".json", "_map.json")
    old = os.umask(mask)
    try:
        codes = [
            main(["generate-synthetic", "--output", manifest, "--nodes", "9"]),
            main(["pod", "--input", manifest, "--output", str(tmp_path / "b.json")]),
            main([
                "verify", "--input", manifest, "--map", map_path,
                "--output", str(tmp_path / "report.json"), "--r", "1",
            ]),
            main([
                "sweep", "--input", manifest, "--map", map_path,
                "--output", str(tmp_path / "sweep.csv"), "--r", "1",
            ]),
        ]
    finally:
        os.umask(old)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    names = sorted(os.listdir(tmp_path))
    assert names == sorted([
        "s.json", "s_data.csv", "s_data.npy", "s_map.json", "b.json", "b_modes.csv",
        "b_right.csv", "report.json", "sweep.csv",
    ])
    for name in names:
        mode = stat.S_IMODE(os.stat(tmp_path / name).st_mode)
        assert mode == 0o666 & ~mask, (name, oct(mode))


@pytest.mark.parametrize("components", [1, 2])
def test_derivative_specs_build_both_schemes(tmp_path, capsys, components):
    nodes = 8
    if components == 1:
        manifest = str(tmp_path / "s.json")
        assert main(["generate-synthetic", "--output", manifest, "--nodes", "8"]) == 0
    else:
        manifest = str(tmp_path / "fhn.json")
        assert main(["generate-fhn", "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    sset = load(manifest)
    mesh = assemble_fem_1d(nodes)
    h = mesh.element_lengths[0]

    spec = json.dumps({"derivative_1d": {"nodes": nodes, "scheme": "forward"}})
    lmap, _ = build_map_from_spec(spec, sset)
    assert lmap.domain is sset.space
    assert np.array_equal(lmap.matrix.toarray(), block_diag(*[mesh.deriv.toarray()] * components))
    assert np.array_equal(
        lmap.codomain.gram.toarray(), np.diag(np.tile(mesh.element_lengths, components))
    )

    spec = json.dumps({"derivative_1d": {"nodes": nodes, "scheme": "centered"}})
    lmap, _ = build_map_from_spec(spec, sset)
    block = lmap.matrix.toarray()[:nodes, :nodes]
    assert block[3, 2] == pytest.approx(-0.5 / h) and block[3, 4] == pytest.approx(0.5 / h)
    assert np.array_equal(lmap.matrix.toarray(), block_diag(*[block] * components))
    assert np.allclose(
        lmap.codomain.gram.toarray(), block_diag(*[mesh.mass.toarray()] * components)
    )

    code, _, err = run(
        capsys, "verify", "--input", manifest, "--output", str(tmp_path / "r.json"),
        "--map", json.dumps({"derivative_1d": {"nodes": nodes + 1}}), "--r", "1",
    )
    assert code == 2
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_battery_row_sequence_for_one_level():
    # the report layout verify writes: one level without a map, with a map
    # that has no inverse, and with an invertible map
    from podkit.cli import run_battery
    from oracles import random_instance
    from podkit.pod_engine import compute_pod

    head = ["pod_x", "range_exact", "snap_sigma_bound"]
    flat = random_instance(7, 6, seed=5, invertible=False, dim_y=9)
    full = random_instance(7, 6, seed=5)
    expected = {
        "none": head + ["snap_pod_x"],
        "flat": head + [
            "pod_x_mapped", "proj_y", "hs_pod_x_mapped", "hs_proj_y",
            "snap_pod_x", "snap_proj_y", "snap_pod_x_mapped",
        ] + ["pw_proj_y"] * 5,
        "full": head + [
            "pod_x_mapped", "proj_y", "pullback_x",
            "hs_pod_x_mapped", "hs_proj_y", "hs_pullback_x",
            "snap_pod_x", "snap_proj_y", "snap_pod_x_mapped", "snap_pullback_x",
        ] + ["pw_proj_y", "pw_composite_y", "pw_composite_x"] * 5,
    }
    for name, inst, lmap in (
        ("none", full, None), ("flat", flat, flat["map"]), ("full", full, full["map"])
    ):
        basis = compute_pod(inst["set"], inst["space_x"])
        reports, _ = run_battery(inst["set"], basis, lmap, "orthogonal", None, [3], None, 1)
        assert [rep.identity_id for rep in reports] == expected[name], name
        assert all(rep.r == 3 for rep in reports)


@pytest.fixture
def synth8(tmp_path, capsys):
    manifest = str(tmp_path / "s.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    return manifest


_EMBED = {"from": "mass", "to": "stiffness+mass"}


@pytest.mark.parametrize(
    "spec, error",
    [
        ({"identity": "abc"}, "MalformedManifest"),
        ({"identity": None}, "MalformedManifest"),
        ({"identity": 9}, "DimensionMismatch"),
        ({"diag": "abc"}, "MalformedManifest"),
        ({"derivative_1d": {"nodes": "x"}}, "MalformedManifest"),
        ({"derivative_1d": {"nodes": 1}}, "MalformedManifest"),
        ({"derivative_1d": {"nodes": 8, "scheme": "upwind"}}, "MalformedManifest"),
        ({"identity": 8, "ritz_form": {"fem_mass": "q"}}, "MalformedManifest"),
        ({"embedding": _EMBED, "codomain_gram": "x"}, "MalformedManifest"),
        ({"embedding": _EMBED, "invertible": True}, "MalformedManifest"),
        ({"matrix": "absent.csv", "invertible": "yes"}, "MalformedManifest"),
    ],
    ids=[
        "identity-str", "identity-null", "identity-size", "diag-str",
        "nodes-str", "nodes-one", "scheme", "ritz-form-nodes",
        "embedding-codomain-gram", "embedding-invertible", "matrix-invertible-str",
    ],
)
def test_malformed_map_spec_fields_are_input_errors(synth8, tmp_path, capsys, spec, error):
    code, _, err = run(
        capsys, "verify", "--input", synth8, "--map", json.dumps(spec),
        "--output", str(tmp_path / "r.json"), "--r", "1",
    )
    assert code == 2
    assert json.loads(err)["error"] == error


def _boundary_case(case, manifest, tmp_path):
    absent = str(tmp_path / "absent" / "out.json")
    folder = str(tmp_path / "runs")
    os.makedirs(folder)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("1,2\n3,x\n")
    verify = ["verify", "--input", manifest, "--r", "1"]
    mapped = verify + ["--map", manifest.replace(".json", "_map.json")]
    missing = "MissingDataFile"
    return {
        "generate-into-missing-dir": (
            ["generate-synthetic", "--nodes", "8", "--output", absent], missing
        ),
        "pod-into-missing-dir": (["pod", "--input", manifest, "--output", absent], missing),
        "verify-into-missing-dir": (mapped + ["--output", absent], missing),
        "verify-onto-directory": (mapped + ["--output", folder], missing),
        "input-is-directory": (["verify", "--input", folder, "--r", "1"], missing),
        "map-is-directory": (verify + ["--map", folder], missing),
        "matrix-csv-not-numeric": (
            verify + ["--map", json.dumps({"matrix": str(bad_csv)})], "MalformedManifest"
        ),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "generate-into-missing-dir", "pod-into-missing-dir", "verify-into-missing-dir",
        "verify-onto-directory", "input-is-directory", "map-is-directory",
        "matrix-csv-not-numeric",
    ],
)
def test_file_boundaries_raise_typed_errors(synth8, tmp_path, capsys, case):
    argv, error = _boundary_case(case, synth8, tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == error
    assert not os.path.exists(tmp_path / "absent")
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp_")] == []


@pytest.mark.parametrize("kind", ["data", "gram", "ritz_form", "matrix"])
def test_non_finite_csv_cell_is_an_input_error(synth8, tmp_path, capsys, kind):
    # one nan in any CSV podkit reads is refused where it is read, exit 2
    bad = str(tmp_path / "bad.csv")
    matrix = assemble_fem_1d(8).mass.toarray()
    if kind == "data":
        bad = synth8.replace(".json", "_data.csv")
        matrix = np.loadtxt(bad, delimiter=",")
    matrix[3, 2] = np.nan
    np.savetxt(bad, matrix, delimiter=",")
    argv = ["pod", "--input", synth8, "--output", str(tmp_path / "basis.json")]
    if kind == "gram":
        manifest = json.load(open(synth8))
        json.dump({**manifest, "gram": bad}, open(synth8, "w"))
    elif kind == "ritz_form":
        spec = {"embedding": _EMBED, "ritz_form": bad}
        argv = ["verify", "--input", synth8, "--map", json.dumps(spec), "--projector", "ritz"]
    elif kind == "matrix":
        argv = ["verify", "--input", synth8, "--map", json.dumps({"matrix": bad})]
    code, _, err = run(capsys, *argv, "--r", "1")
    assert code == 2
    assert json.loads(err)["error"] == "MalformedManifest"
    assert "row 4, column 3 is nan, not finite" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["generate-fhn", "generate-synthetic"])
def test_generated_map_spec_rebuilds_the_instance_map(tmp_path, capsys, command):
    manifest = str(tmp_path / "bundle.json")
    assert main([command, "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    if command == "generate-fhn":
        expected = make_fhn_instance(FhnConfig(nodes=8))["map"]
    else:
        expected = make_embedding_instance(8, 1)["map"]
    lmap, form = build_map_from_spec(
        manifest.replace(".json", "_map.json"), load(manifest)
    )
    assert form is None
    assert lmap.kind == expected.kind
    assert np.array_equal(lmap.matrix.toarray(), expected.matrix.toarray())
    assert (lmap.inverse is None) == (expected.inverse is None)
    if expected.inverse is not None:
        assert np.array_equal(lmap.inverse.toarray(), expected.inverse.toarray())
    assert np.array_equal(lmap.domain.gram.toarray(), expected.domain.gram.toarray())
    assert np.array_equal(lmap.codomain.gram.toarray(), expected.codomain.gram.toarray())


def test_generate_synthetic_builds_only_its_snapshot_set(tmp_path, capsys, monkeypatch):
    # the same set as make_embedding_instance(n, 1) with its default seed
    # 101, but no spaces beyond the ambient one and no identity map
    import podkit.linear_map

    maps = _count_calls(monkeypatch, podkit.linear_map, "identity_map")
    manifest = str(tmp_path / "s.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "9"]) == 0
    capsys.readouterr()
    assert maps == []
    expected = make_embedding_instance(9, 1)["set"]
    back = load(manifest)
    assert np.array_equal(back.data, expected.data)
    assert np.array_equal(back.grid, expected.grid)


@pytest.mark.parametrize("nodes", ["1", "0"])
def test_generate_fhn_needs_two_nodes(tmp_path, capsys, nodes):
    manifest = str(tmp_path / "fhn.json")
    code, _, err = run(capsys, "generate-fhn", "--nodes", nodes, "--output", manifest)
    assert code == 2
    assert json.loads(err)["error"] == "DimensionMismatch"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "name, content, error",
    [
        ("truncated.json", '{"checks": [{"identity_id": "pod_x"', "MalformedManifest"),
        ("empty.json", "{}", "MalformedManifest"),
        ("list.json", "[]", "MalformedManifest"),
        ("folder.json", None, "MissingDataFile"),
        ("folder", None, "MissingDataFile"),
        ("short.csv", "identity_id,r,actual\npod_x,1,0.5\n", "MalformedManifest"),
        ("text.csv", "identity_id,r,actual,formula,abs_diff,rel_diff,passed\n"
                     "pod_x,one,1,1,0,0,true\n", "MalformedManifest"),
        ("binary.csv", b"\xff\xfe\x00", "MalformedManifest"),
        # a report without rows must not read as "all checks passed"
        ("no-rows.json", '{"checks": []}', "MalformedManifest"),
        ("header.csv", "identity_id,r,actual,formula,abs_diff,rel_diff,passed\n",
         "MalformedManifest"),
        ("empty.csv", "", "MalformedManifest"),
    ],
    ids=["json-truncated", "json-no-checks", "json-list", "json-directory",
         "directory", "csv-missing-columns", "csv-not-numeric", "csv-not-text",
         "json-no-rows", "csv-header-only", "csv-empty"],
)
def test_table_input_errors_are_typed(tmp_path, capsys, name, content, error):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, _, err = run(capsys, "table", "--input", str(path))
    assert code == 2
    assert json.loads(err)["error"] == error


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_projector_families_are_built_once_per_run(tmp_path, capsys, monkeypatch):
    # the level-free part of a family (the ellipticity eigensolve, the
    # adjoint-route sparse LU) is built once, however many levels run
    import scipy.sparse.linalg

    import podkit.projector

    manifest = str(tmp_path / "synth.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "33"]) == 0
    capsys.readouterr()
    map_path = manifest.replace(".json", "_map.json")
    ellipticity = _count_calls(monkeypatch, podkit.projector, "form_ellipticity")
    sweep_csv = str(tmp_path / "sweep.csv")
    code, _, err = run(
        capsys, "sweep", "--input", manifest, "--map", map_path, "--projector", "ritz",
        "--r", "1,2,3,4,5,6,7,8", "--output", sweep_csv,
    )
    assert code == 0, err
    assert len(open(sweep_csv).read().strip().split("\n")) == 1 + 4 * 8
    assert len(ellipticity) == 1
    adjoint_route = _count_calls(monkeypatch, scipy.sparse.linalg, "splu")
    code, out, err = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--projector", "composite-xy", "--output", str(tmp_path / "verify.json"),
    )
    assert code == 0, err
    assert "levels: [1, 4, 8]" in out
    assert len(adjoint_route) == 1


def test_ritz_verify_at_4800_nodes_exits_0_and_writes_its_report(tmp_path, capsys):
    # the ellipticity is bisected on banded Cholesky factorizations: no
    # n x n array, where a dense eigensolve needed 527 MiB at this size
    manifest = str(tmp_path / "big.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "4800"]) == 0
    capsys.readouterr()
    report = tmp_path / "ritz.json"
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--map", manifest.replace(".json", "_map.json"),
        "--projector", "ritz", "--r", "1", "--output", str(report),
    )
    assert code == 0, err
    assert json.load(open(report))["all_passed"] is True


def test_derivative_verify_at_6000_nodes_exits_0_without_a_surjectivity_field(
    tmp_path, capsys
):
    # the rank relation no longer takes the dense SVD of a map without an
    # inverse (two 5,999 x 6,000 arrays, 549 MiB): no surjectivity field
    manifest = str(tmp_path / "big.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "6000"]) == 0
    capsys.readouterr()
    report = tmp_path / "derivative.json"
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--map", '{"derivative_1d": {"nodes": 6000}}',
        "--r", "1", "--output", str(report),
    )
    assert code == 0, err
    relation = json.load(open(report))["rank_relation"]
    assert "surjective" not in relation
    assert relation["rank_source"] == 8


def test_matrix_map_beyond_the_dense_budget_exits_2_before_reading(
    synth8, tmp_path, capsys, monkeypatch
):
    # the shape is counted before loadtxt: a first row of 8 entries and
    # 2^22 short rows count as 8 (2^22 + 1) entries, just over 512 MiB in
    # two arrays, from a file of 8 MiB whose ragged rows are never parsed
    import podkit.linear_map

    def never(*args):
        raise AssertionError("the CSV map was read")

    monkeypatch.setattr(podkit.linear_map, "read_matrix_csv", never)
    big = tmp_path / "tall.csv"
    big.write_bytes(b"0,0,0,0,0,0,0,0\n" + b"0\n" * (2**22 - 1) + b"0")
    report = tmp_path / "r.json"
    code, _, err = run(
        capsys, "verify", "--input", synth8, "--map", json.dumps({"matrix": str(big)}),
        "--r", "1", "--output", str(report),
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ProblemTooLarge"
    assert "4194305 x 8" in payload["message"]
    assert not report.exists()


def test_generate_fhn_names_its_block_diagonal_gram(tmp_path, capsys):
    # the product space's Gram is named in the manifest, not written as a CSV
    manifest = str(tmp_path / "fhn.json")
    assert main(["generate-fhn", "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    assert json.load(open(manifest))["gram"] == {"block_diag": [{"fem_mass": 8}] * 2}
    assert sorted(os.listdir(tmp_path)) == [
        "fhn.json", "fhn_data.csv", "fhn_data.npy", "fhn_map.json",
    ]
    expected = make_fhn_instance(FhnConfig(nodes=8))["set"]
    back = load(manifest)
    assert np.array_equal(back.space.gram.toarray(), expected.space.gram.toarray())
    assert np.array_equal(back.space.chol, expected.space.chol)


def test_generate_fhn_beyond_the_dense_budget_exits_2_before_the_solve(
    tmp_path, capsys, monkeypatch
):
    # the 2n x 2,001 trajectory is counted at TRAJECTORY_ARRAYS arrays: one
    # node past the largest mesh that fits the budget is refused, before the
    # mesh is even assembled
    import podkit.fhn_gen
    from podkit.gram_space import DENSE_BYTES_BUDGET, check_dense_budget

    def never(*args):
        raise AssertionError("the solve started")

    monkeypatch.setattr(podkit.fhn_gen, "assemble_fem_1d", never)
    arrays = podkit.fhn_gen.TRAJECTORY_ARRAYS
    nodes = DENSE_BYTES_BUDGET // (8 * arrays * 2 * 2001) + 1
    check_dense_budget(arrays, (2 * (nodes - 1), 2001), "one node fewer")  # fits
    manifest = str(tmp_path / "fhn.json")
    code, _, err = run(capsys, "generate-fhn", "--nodes", str(nodes), "--output", manifest)
    assert code == 2
    assert json.loads(err)["error"] == "ProblemTooLarge"
    assert os.listdir(tmp_path) == []


def _usage_exit(capsys, *argv):
    """Exit status of an argv the parser refuses, which must report a
    UsageError as the one-line JSON failure object on stderr."""
    code, out, err = run(capsys, *argv)
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "UsageError" and payload["message"]
    return code


def test_parser_declares_only_the_flags_each_command_reads():
    from podkit.cli import build_parser

    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    flags = {
        name: sorted(a.dest for a in sub._actions if a.dest != "help")
        for name, sub in commands.items()
    }
    assert flags == {
        "generate-fhn": ["nodes", "output"],
        "generate-synthetic": ["nodes", "output", "seed"],
        "pod": ["input", "output", "r", "tol"],
        "verify": ["input", "map", "output", "projector", "r", "seed", "tol"],
        "sweep": ["input", "map", "output", "projector", "r", "tol"],
        "table": ["input"],
    }
    assert sum(len(names) for names in flags.values()) == 23


@pytest.mark.parametrize(
    "command, extra",
    [
        ("generate-fhn", ["--seed", "3"]),
        ("generate-synthetic", ["--tol", "1e-8"]),
        ("pod", ["--seed", "1"]),
        ("verify", ["--nodes", "8"]),
        ("sweep", ["--seed", "1"]),
        ("table", ["--tol", "1"]),
    ],
)
def test_flag_a_command_does_not_read_is_refused(synth8, tmp_path, capsys, command, extra):
    out = tmp_path / "out"
    out.mkdir()
    mapped = ["--input", synth8, "--map", synth8.replace(".json", "_map.json"), "--r", "1"]
    argv = {
        "generate-fhn": ["--output", str(out / "f.json"), "--nodes", "8"],
        "generate-synthetic": ["--output", str(out / "s.json"), "--nodes", "8"],
        "pod": ["--input", synth8, "--output", str(out / "b.json")],
        "verify": mapped + ["--output", str(out / "r.json")],
        "sweep": mapped + ["--output", str(out / "r.csv")],
        "table": ["--input", synth8],
    }[command]
    assert _usage_exit(capsys, command, *argv, *extra) == 2
    assert os.listdir(out) == []


def test_removed_and_abbreviated_flags_are_refused(synth8, tmp_path, capsys):
    report = str(tmp_path / "r.json")
    verify = ["verify", "--input", synth8, "--map", synth8.replace(".json", "_map.json")]
    assert _usage_exit(capsys, *verify, "--r", "2", "--r-list", "3", "--output", report) == 2
    assert _usage_exit(capsys, *verify, "--r", "1", "--out", report) == 2
    assert not os.path.exists(report)


def test_usage_errors_are_json_failures_and_help_exits_zero(synth8, capsys):
    mapped = ["--input", synth8, "--map", synth8.replace(".json", "_map.json")]
    assert _usage_exit(capsys, "verify", *mapped, "--projector", "bogus") == 2
    assert _usage_exit(capsys, "generate-fhn", "--output", "x.json", "--nodes", "many") == 2
    assert _usage_exit(capsys, "bogus") == 2
    assert _usage_exit(capsys) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert "--projector" in capsys.readouterr().out


def test_report_names_must_end_in_json_or_csv(synth8, tmp_path, capsys):
    mapped = ["--input", synth8, "--map", synth8.replace(".json", "_map.json"), "--r", "1"]
    out = tmp_path / "out"
    out.mkdir()
    for command in ("verify", "sweep"):
        code, _, err = run(capsys, command, *mapped, "--output", str(out / "x.txt"))
        assert code == 2
        assert json.loads(err)["error"] == "MalformedManifest"
    assert os.listdir(out) == []
    # a valid CSV report under another name is refused too
    report = out / "x.csv"
    assert run(capsys, "sweep", *mapped, "--output", str(report))[0] == 0
    assert run(capsys, "table", "--input", str(report))[0] == 0
    renamed = out / "x.txt"
    report.rename(renamed)
    code, _, err = run(capsys, "table", "--input", str(renamed))
    assert code == 2
    assert json.loads(err)["error"] == "MalformedManifest"


@pytest.mark.parametrize(
    "fields",
    [
        {"dim": True, "count": True},
        {"weights": ["a"]},
        {"kind": "continuous", "grid": ["a", "b"]},
        {"data": 5},
    ],
    ids=["dim-count-bool", "weights-text", "grid-text", "data-number"],
)
def test_non_numeric_manifest_fields_are_input_errors(tmp_path, capsys, fields):
    # one snapshot of one coordinate, where a bare int check reads true as 1
    (tmp_path / "d.csv").write_text("1.0\n")
    manifest = {"dim": 1, "count": 1, "kind": "discrete", "gram": "identity",
                "data": "d.csv", "weights": [1.0], **fields}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest))
    code, _, err = run(capsys, "pod", "--input", str(bad), "--output", str(tmp_path / "b.json"))
    assert code == 2
    assert json.loads(err)["error"] == "MalformedManifest"
    assert not os.path.exists(tmp_path / "b.json")
