"""Command-line surface: pipelines, exit codes, determinism, tolerances."""

import functools
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from podkit import cli, fhn_gen
from podkit.cli import build_map_from_spec, main, pointwise_coefficients
from podkit.error_lab import PROJECTOR_FAMILIES, battery_level, certifier, write_report
from podkit.fem import assemble_fem_1d
from podkit.fhn_gen import FhnConfig, embedding_set, make_fhn_instance
from podkit.pod_engine import compute_pod
from podkit.snapshot_io import load, make_snapshot_set, save

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
    spec = json.loads(Path(map_path).read_text())
    assert spec == {"embedding": {"from": "mass", "to": "stiffness+mass"}}


def test_pod_roundtrip_and_truncation(synth_bundle, tmp_path, capsys):
    manifest, _ = synth_bundle
    bundle = str(tmp_path / "basis.json")
    code, out, _ = run(capsys, "pod", "--input", manifest, "--output", bundle, "--r", "4")
    assert code == 0
    assert "rank" in out
    basis = json.loads(Path(bundle).read_text())
    assert basis["rank"] == 4
    assert len(basis["sigma"]) == 4 and len(basis["eigenvalues"]) == 17
    modes = np.loadtxt(str(tmp_path / basis["modes"]), delimiter=",", ndmin=2)
    right = np.loadtxt(str(tmp_path / basis["right_vectors"]), delimiter=",", ndmin=2)
    assert modes.shape == (17, 4) and right.shape == (40, 4)
    # one basis: the cut arrays are the leading columns of the full run's,
    # text for text, and sigma the leading entries of its sigma
    full = str(tmp_path / "full.json")
    assert run(capsys, "pod", "--input", manifest, "--output", full)[0] == 0
    full_basis = json.loads(Path(full).read_text())
    assert full_basis["rank"] == 8 and basis["sigma"] == full_basis["sigma"][:4]
    for key in ("modes", "right_vectors"):
        with open(tmp_path / full_basis[key]) as fh:
            lines = fh.read().splitlines()
        with open(tmp_path / basis[key]) as fh:
            assert fh.read().splitlines() == [",".join(line.split(",")[:4]) for line in lines]
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
    payload = json.loads(Path(report).read_text())
    assert payload["all_passed"] is True
    assert any(row["identity_id"] == "pod_x" for row in payload["checks"])


def test_verify_exit_codes_and_tol_env(synth_bundle, tmp_path, capsys, monkeypatch):
    import podkit.error_lab

    manifest, map_path = synth_bundle
    report = str(tmp_path / "report.json")
    # an absurd identity tolerance forces failures
    with monkeypatch.context() as patch:
        patch.setattr(podkit.error_lab, "IDENTITY_RTOL", 1e-18)
        code, out, _ = run(
            capsys, "verify", "--input", manifest, "--map", map_path,
            "--output", report, "--r", "2",
        )
    assert code == 4
    assert "FAIL" in out
    # the environment sets no tolerance either
    for value in ("1e-18", "not-a-number"):
        monkeypatch.setenv("PODKIT_TOL", value)
        code2, _, err = run(
            capsys, "verify", "--input", manifest, "--map", map_path,
            "--output", report, "--r", "2",
        )
        assert code2 == 0, err


@pytest.fixture
def perturbed_synth33(tmp_path, capsys):
    """s.json, a 33-node synthetic bundle, and p.json, its data times
    1 + 1e-15 N(0, 1): the two differ by round-off alone."""
    manifest = str(tmp_path / "s.json")
    assert main(["generate-synthetic", "--nodes", "33", "--output", manifest]) == 0
    capsys.readouterr()
    sset = load(manifest)
    rng = np.random.default_rng(0)
    data = sset.data * (1.0 + 1e-15 * rng.standard_normal(sset.data.shape))
    perturbed = make_snapshot_set(data, grid=sset.grid)
    save(perturbed, str(tmp_path / "p.json"), json.loads((tmp_path / "s.json").read_text())["gram"])
    return tmp_path


def test_pod_signs_survive_a_round_off_perturbation_of_the_data(perturbed_synth33, capsys):
    # the synthetic modes are (anti)symmetric, their two largest magnitudes
    # equal to within round-off, so the perturbation must not choose new
    # signs for pod's CSVs
    tmp = perturbed_synth33
    for stem in "sp":
        basis = str(tmp / f"{stem}_b.json")
        assert main(["pod", "--input", str(tmp / f"{stem}.json"), "--output", basis]) == 0
    capsys.readouterr()
    for part in ("modes", "right"):
        a, b = (np.loadtxt(tmp / f"{stem}_b_{part}.csv", delimiter=",") for stem in "sp")
        assert not np.array_equal(a, b)  # the perturbation reached the basis
        assert np.all(np.einsum("ij,ij->j", a, b) > 0.0), part


def test_worst_snapshots_survive_a_round_off_perturbation_of_the_data(perturbed_synth33, capsys):
    # the synthetic snapshots repeat, and the per-snapshot keys of the
    # range_exact and snap_* rows tie at round-off: each row must still
    # name the same snapshot in info["ell"]
    tmp = perturbed_synth33
    ells = []
    for stem in "sp":
        code, _, _ = run(
            capsys, "verify", "--input", str(tmp / f"{stem}.json"),
            "--map", str(tmp / "s_map.json"), "--r", "1,2,3,4,5,6,7,8",
            "--output", str(tmp / f"{stem}_v.json"),
        )
        assert code == 0
        checks = json.loads((tmp / f"{stem}_v.json").read_text())["checks"]
        ells.append([(c["identity_id"], c["r"], c["info"].get("ell")) for c in checks])
    assert ells[0] == ells[1]


def test_pod_drop_tolerance_is_the_flag_alone(tmp_path, capsys, monkeypatch):
    # eigenvalues 1 and 1e-9: rank 2 at the default drop tolerance and rank
    # 1 at --tol 1e-6, while PODKIT_TOL=1e-6 changes nothing
    manifest = str(tmp_path / "two.json")
    save(make_snapshot_set(np.diag([1.0, 10**-4.5]), np.ones(2)), manifest, "identity")
    basis = str(tmp_path / "basis.json")
    monkeypatch.setenv("PODKIT_TOL", "1e-6")
    code, out, err = run(capsys, "pod", "--input", manifest, "--output", basis)
    assert code == 0, err
    assert "rank: 2 (drop tolerance 1e-12)" in out
    code, out, err = run(capsys, "pod", "--input", manifest, "--output", basis, "--tol", "1e-6")
    assert code == 0, err
    assert "rank: 1 (drop tolerance 1e-06)" in out


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
    lines = Path(csv_path).read_text().strip().split("\n")
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
    import podkit.error_lab

    manifest, map_path = synth_bundle
    report = str(tmp_path / "bad.json")
    monkeypatch.setattr(podkit.error_lab, "IDENTITY_RTOL", 1e-18)
    code, _, _ = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--output", report, "--r", "2",
    )
    assert code == 4
    code2, out, _ = run(capsys, "table", "--input", report)
    assert code2 == 4
    assert "FAIL" in out


def _diag_bundle(tmp_path):
    """Rows (1..6) and 1e-9 (6..1): rank 1 at the default drop tolerance."""
    row = np.arange(1.0, 7.0)
    manifest = str(tmp_path / "b.json")
    save(make_snapshot_set(np.vstack([row, 1e-9 * row[::-1]]), np.ones(6)), manifest, "identity")
    return manifest


def test_a_decided_rank_relation_failure_fails_verify_its_report_and_table(
    tmp_path, capsys, monkeypatch
):
    # the identity map keeps the image spectrum (1, 1e-18 relative) and the
    # mapped source tail, so the relation is decided; an image spectrum with
    # a second eigenvalue above the cut then fails it: verify, its JSON
    # report and table all say so
    import podkit.error_lab

    image_spectrum = podkit.error_lab.image_spectrum

    def lifted(lmap, sset):
        lam = image_spectrum(lmap, sset)
        return np.sort(np.append(lam, 1e-3 * lam[0]))[::-1]

    monkeypatch.setattr(podkit.error_lab, "image_spectrum", lifted)
    manifest = _diag_bundle(tmp_path)
    report = str(tmp_path / "v.json")
    code, out, err = run(
        capsys, "verify", "--input", manifest, "--map", '{"identity": 2}',
        "--r", "1", "--output", report,
    )
    assert code == 4, err
    assert "rank relation: source 1, image 2, FAIL" in out
    assert "failed: 0" in out
    payload = json.loads(Path(report).read_text())
    assert payload["all_passed"] is False
    relation = payload["rank_relation"]
    assert {key: relation[key] for key in ("rank_source", "rank_image", "passed", "decided")} == {
        "rank_source": 1, "rank_image": 2, "passed": False, "decided": True,
    }
    assert relation["tail"] <= relation["threshold"]
    code, out, _ = run(capsys, "table", "--input", report)
    assert code == 4
    assert out.endswith("CHECKS FAILED\n")


def test_an_invertible_map_that_lifts_the_cut_leaves_the_relation_undecided(
    tmp_path, capsys
):
    # diag(1, 1e8) lifts the second row to 0.1 (6..1), an image of rank 2
    # from data cut to rank 1: the data are correct, and the mapped source
    # tail (0.565) far exceeds the image's drop threshold, so the relation
    # is not decided and verify passes
    manifest = _diag_bundle(tmp_path)
    report = str(tmp_path / "v.json")
    code, out, err = run(
        capsys, "verify", "--input", manifest, "--map", '{"diag": [1.0, 1e8]}',
        "--r", "1", "--output", report,
    )
    assert code == 0, err
    # the line says how far from decided the relation was
    assert (
        "rank relation: source 1, image 2, not decided: tail bound 5.65e-01 above "
        "drop threshold 9.13e-11 (informational)"
    ) in out
    relation = json.loads(Path(report).read_text())["rank_relation"]
    assert relation == {
        "rank_source": 1, "rank_image": 2, "passed": False, "decided": False,
        "tail": pytest.approx(0.5653846, rel=1e-6),
        "threshold": pytest.approx(9.1346762e-11, rel=1e-6),
    }
    assert run(capsys, "table", "--input", report)[0] == 0


@pytest.mark.parametrize("damage", [
    "row-without-actual", "string-in-number-column", "check-not-an-object",
    "infinite-level", "relation-not-an-object", "relation-without-decided", "relation-passed-not-bool",
])
def test_table_refuses_a_malformed_json_report(synth_bundle, tmp_path, capsys, damage):
    manifest, map_path = synth_bundle
    report = tmp_path / "r.json"
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--map", map_path, "--r", "1",
        "--output", str(report),
    )
    assert code == 0, err
    payload = json.loads(report.read_text())
    if damage == "row-without-actual":
        del payload["checks"][0]["actual"]
    elif damage == "string-in-number-column":
        payload["checks"][0]["formula"] = "abc"
    elif damage == "check-not-an-object":
        payload["checks"] = [1]
    elif damage == "infinite-level":
        payload["checks"][0]["r"] = float("inf")  # written as Infinity
    elif damage == "relation-not-an-object":
        payload["rank_relation"] = [True]
    elif damage == "relation-without-decided":
        del payload["rank_relation"]["decided"]
    else:
        payload["rank_relation"]["passed"] = "true"
    report.write_text(json.dumps(payload))
    code, _, err = run(capsys, "table", "--input", str(report))
    assert code == 2
    assert json.loads(err)["error"] == "MalformedManifest"


def test_outputs_byte_identical_across_reruns(tmp_path, capsys):
    a = str(tmp_path / "a" / "s.json")
    b = str(tmp_path / "b" / "s.json")
    os.makedirs(os.path.dirname(a))
    os.makedirs(os.path.dirname(b))
    for target in (a, b):
        code = main(["generate-synthetic", "--output", target, "--nodes", "17"])
        capsys.readouterr()
        assert code == 0
    data_a = Path(a.replace(".json", "_data.csv")).read_bytes()
    data_b = Path(b.replace(".json", "_data.csv")).read_bytes()
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
    assert Path(sweep_a).read_bytes() == Path(sweep_b).read_bytes()


@pytest.mark.parametrize("family", PROJECTOR_FAMILIES)
def test_verify_rows_are_the_library_battery(synth_bundle, tmp_path, capsys, family):
    # the CLI and the library are one path: every row verify writes is the
    # row battery_level gives for the certifier of the same bundle, with the
    # CLI's seeded pointwise coefficients of each level
    manifest, map_path = synth_bundle
    report = tmp_path / "cli.json"
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--map", map_path, "--projector", family,
        "--r", "1,3,4", "--seed", "7", "--output", str(report),
    )
    assert code == 0, err
    sset = load(manifest)
    lmap, form = build_map_from_spec(map_path, sset)
    cert = certifier(sset, compute_pod(sset), lmap, family, form)
    reports = []
    for r in (1, 3, 4):
        reports += battery_level(cert, r, coeffs=pointwise_coefficients(7, r, sset.count))
    library = str(tmp_path / "library.json")
    write_report(reports, library)
    checks = [json.loads(Path(path).read_text())["checks"] for path in (report, library)]
    assert checks[0] == checks[1]


def test_a_level_reads_the_same_rows_whichever_levels_run(synth_bundle, tmp_path, capsys):
    # the pointwise directions depend on (seed, level) alone, so level 4's
    # rows, pw_* included, do not move when other levels run before it
    manifest, map_path = synth_bundle
    rows = {}
    for name, levels in (("alone", ["--r", "4"]), ("after_1", ["--r", "1,4"]), ("default", [])):
        report = tmp_path / f"{name}.json"
        code, _, err = run(
            capsys, "verify", "--input", manifest, "--map", map_path, "--projector",
            "composite-xy", "--seed", "3", *levels, "--output", str(report),
        )
        assert code == 0, err
        checks = json.loads(report.read_text())["checks"]
        rows[name] = [row for row in checks if row["r"] == 4]
    assert {row["identity_id"] for row in rows["alone"]} >= {
        "pw_proj_y", "pw_composite_y", "pw_composite_x",
    }
    assert rows["after_1"] == rows["alone"]
    assert rows["default"] == rows["alone"]


def test_pointwise_coefficients_are_standard_normals():
    # a pure function of (seed, level, count): repeatable, different for
    # another seed or level, and normal in its first moments
    z = pointwise_coefficients(0, 1, 20001)
    assert z.shape == (20001, 5)
    assert np.array_equal(z, pointwise_coefficients(0, 1, 20001))
    small = pointwise_coefficients(0, 1, 3)
    assert not np.any(small == pointwise_coefficients(1, 1, 3))
    assert not np.any(small == pointwise_coefficients(0, 2, 3))
    assert np.isfinite(z).all()
    assert abs(z.mean()) < 0.02 and abs(z.std() - 1.0) < 0.02
    assert abs((z**4).mean() - 3.0) < 0.15
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 0.03


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
        assert json.loads(Path(report).read_text())["all_passed"] is True


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
        basis = compute_pod(inst["set"])
        reports, _ = run_battery(certifier(inst["set"], basis, lmap), [3], 1)
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


def test_generate_fhn_into_a_missing_directory_fails_before_the_solve(
    tmp_path, capsys, monkeypatch
):
    # the data CSV's temporary file is made before the solve, so an
    # unwritable output costs no solve and writes nothing
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_fhn ran")

    monkeypatch.setattr(fhn_gen, "solve_fhn", no_solve)
    absent = tmp_path / "absent"
    code, _, err = run(capsys, "generate-fhn", "--output", str(absent / "x.json"))
    assert code == 2
    assert json.loads(err) == {
        "error": "MissingDataFile",
        "message": f"cannot write {absent / 'x_data.csv'}: No such file or directory",
    }
    assert os.listdir(tmp_path) == []


def _record_helpers(monkeypatch):
    """The processes podkit starts from now on, in a list."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


@pytest.mark.parametrize("nodes", [4, 8, 30])
def test_generate_fhn_streams_the_files_the_in_process_writer_writes(
    tmp_path, capsys, monkeypatch, nodes
):
    started = _record_helpers(monkeypatch)
    streamed = tmp_path / "streamed"
    streamed.mkdir()
    argv = ["generate-fhn", "--nodes", str(nodes), "--output", str(streamed / "f.json")]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(started) == 1 and started[0].returncode == 0
    # the in-process route: write_matrix_csv formats the finished data
    sset, gram_spec, map_spec = make_fhn_instance(FhnConfig(nodes=nodes))
    direct = tmp_path / "direct"
    direct.mkdir()
    save(sset, str(direct / "f.json"), gram_spec)
    (direct / "f_map.json").write_text(json.dumps(map_spec, indent=2) + "\n")
    files = ["f.json", "f_data.csv", "f_data.npy", "f_map.json"]
    assert sorted(os.listdir(streamed)) == sorted(os.listdir(direct)) == sorted(files)
    for name in files:
        assert (streamed / name).read_bytes() == (direct / name).read_bytes(), name


def test_diverged_generate_fhn_leaves_no_helper_and_no_file(tmp_path, capsys, monkeypatch):
    started = _record_helpers(monkeypatch)
    monkeypatch.setattr(cli, "FhnConfig", functools.partial(FhnConfig, mu=0.0))
    with np.errstate(all="ignore"):
        code, _, err = run(
            capsys, "generate-fhn", "--nodes", "4", "--output", str(tmp_path / "f.json")
        )
    assert code == 3
    assert json.loads(err)["error"] == "SolverDiverged"
    assert len(started) == 1 and started[0].returncode is not None
    assert os.listdir(tmp_path) == []


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
        manifest = json.loads(Path(synth8).read_text())
        Path(synth8).write_text(json.dumps({**manifest, "gram": bad}))
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
def test_generated_bundle_loads_back_as_the_returned_set_and_specs(tmp_path, capsys, command):
    # a generator returns (set, gram spec, map spec) and the command line
    # writes exactly that: the loaded data, weights and grid bit-equal to
    # the set's, its space the one the gram spec names, the map file the spec
    manifest = str(tmp_path / "bundle.json")
    assert main([command, "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    if command == "generate-fhn":
        sset, gram_spec, map_spec = make_fhn_instance(FhnConfig(nodes=8))
        assert (sset.count, sset.space_dim) == (2000, 16)
        assert np.allclose(np.diff(sset.grid), FhnConfig().dt)
    else:
        sset, gram_spec, map_spec = embedding_set(8)
    back = load(manifest)
    assert json.loads(Path(manifest).read_text())["gram"] == gram_spec
    for got, want in ((back.data, sset.data), (back.weights, sset.weights)):
        assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))
    assert back.kind == sset.kind == "continuous"
    assert np.array_equal(back.grid, sset.grid)
    assert np.array_equal(back.space.gram.toarray(), sset.space.gram.toarray())
    assert np.array_equal(back.space.chol, sset.space.chol)
    map_path = manifest.replace(".json", "_map.json")
    assert json.loads(Path(map_path).read_text()) == map_spec


@pytest.mark.parametrize("command", ["generate-fhn", "generate-synthetic"])
def test_generated_map_spec_rebuilds_the_instance_map(tmp_path, capsys, command):
    # the bundle's map file names the map of the paper's example: the
    # forward derivative of both species into elementwise slopes, or the
    # L^2 -> H^1 identity
    manifest = str(tmp_path / "bundle.json")
    assert main([command, "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    back = load(manifest)
    map_path = manifest.replace(".json", "_map.json")
    mesh = assemble_fem_1d(8)
    if command == "generate-fhn":
        deriv, slopes = mesh.deriv.toarray(), np.diag(mesh.element_lengths)
        want = block_diag(deriv, deriv), block_diag(slopes, slopes), None
    else:
        want = np.eye(8), (mesh.stiffness + mesh.mass).toarray(), np.eye(8)
    lmap, form = build_map_from_spec(map_path, back)
    assert form is None and lmap.domain is back.space
    assert np.array_equal(lmap.matrix.toarray(), want[0])
    assert np.array_equal(lmap.codomain.gram.toarray(), want[1])
    inverse = None if lmap.inverse is None else lmap.inverse.toarray()
    assert np.array_equal(inverse, want[2])


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
@pytest.mark.parametrize("command", ["generate-fhn", "generate-synthetic"])
def test_generators_need_two_nodes(tmp_path, capsys, command, nodes):
    manifest = str(tmp_path / "bundle.json")
    code, _, err = run(capsys, command, "--nodes", nodes, "--output", manifest)
    assert code == 2
    assert json.loads(err) == {
        "error": "DimensionMismatch", "message": f"need at least 2 nodes, got {nodes}"
    }
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
    # the level-free part of a family (the ellipticity eigensolve) is built
    # once, however many levels run
    import podkit.projector

    manifest = str(tmp_path / "synth.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "33"]) == 0
    capsys.readouterr()
    map_path = manifest.replace(".json", "_map.json")
    spec = json.loads(Path(map_path).read_text())
    ritz_map = json.dumps({**spec, "ritz_form": {"fem_stiffness": 33}})
    ellipticity = _count_calls(monkeypatch, podkit.projector, "form_ellipticity")
    sweep_csv = str(tmp_path / "sweep.csv")
    code, _, err = run(
        capsys, "sweep", "--input", manifest, "--map", ritz_map, "--projector", "ritz",
        "--r", "1,2,3,4,5,6,7,8", "--output", sweep_csv,
    )
    assert code == 0, err
    assert len(Path(sweep_csv).read_text().strip().split("\n")) == 1 + 4 * 8
    assert len(ellipticity) == 1
    code, out, err = run(
        capsys, "verify", "--input", manifest, "--map", map_path,
        "--projector", "composite-xy", "--output", str(tmp_path / "verify.json"),
    )
    assert code == 0, err
    assert "levels: [1, 4, 8]" in out


def test_no_certify_command_imports_the_sparse_solvers(tmp_path, capsys):
    # the pushforward reads the map's certified inverse, so the certify path
    # imports no scipy.sparse.linalg (1.4 MB a process); verify runs in a
    # fresh interpreter, since another test may have imported it in this one
    manifest = str(tmp_path / "synth.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "33"]) == 0
    capsys.readouterr()
    argv = ["verify", "--input", manifest, "--map", manifest.replace(".json", "_map.json"),
            "--projector", "composite-xy", "--output", str(tmp_path / "verify.json")]
    script = (
        f"import sys; from podkit.cli import main; code = main({argv!r}); "
        "print(code, 'scipy.sparse.linalg' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-1] == "0 False"


_SCIPY_FREE_SCRIPT = """
import json, sys
from podkit.cli import main

def loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

print(json.dumps(["import", loaded(), 0]))
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(json.dumps([" ".join(argv[:1] + argv[2:]), loaded(), code]))
"""


def test_certify_commands_import_no_scipy(tmp_path):
    # generate-synthetic, pod, table, and verify and sweep with every map kind
    # and the orthogonal, composite-xy and form-less ritz families import no
    # scipy module: they run one after another in one fresh interpreter,
    # which reports after each whether any scipy module is loaded
    n = 9
    synth = str(tmp_path / "s.json")
    matrix = tmp_path / "m.csv"
    np.savetxt(matrix, np.eye(n) + 0.1 * np.diag(np.ones(n - 1), 1), delimiter=",")
    maps = {
        "identity": ({"identity": n}, True),
        "diag": ({"diag": list(np.linspace(1.0, 2.0, n))}, True),
        "matrix": ({"matrix": str(matrix), "invertible": True}, True),
        "derivative_1d": ({"derivative_1d": {"nodes": n}}, False),
        "embedding": ({"embedding": _EMBED}, True),
    }
    runs = [
        ["generate-synthetic", "--output", synth, "--nodes", str(n)],
        ["pod", "--input", synth, "--output", str(tmp_path / "basis.json")],
    ]
    for kind, (spec, invertible) in maps.items():
        families = ("orthogonal", "ritz") + (("composite-xy",) if invertible else ())
        for family in families:
            stem = str(tmp_path / f"{kind}_{family}")
            common = ["--input", synth, "--map", json.dumps(spec), "--projector", family]
            runs.append(["verify", *common, "--r", "1,2", "--output", stem + ".json"])
            runs.append(["sweep", *common, "--r", "1,2", "--output", stem + ".csv"])
        runs.append(["table", "--input", stem + ".json"])
        runs.append(["table", "--input", stem + ".csv"])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_SCRIPT, json.dumps(runs)],
        capture_output=True, text=True, env=env, check=True,
    )
    reports = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("[")]
    assert len(reports) == 1 + len(runs)
    assert [(what, code) for what, scipy_loaded, code in reports if scipy_loaded] == []
    assert all(code == 0 for _, _, code in reports), reports


_UNNEEDED_MODULES_SCRIPT = """
import json, sys
import numpy

UNNEEDED = {"numpy.random", "subprocess", "csv", "_hashlib"}
# numpy before 2.0 imports numpy.random itself; what numpy loads is not
# the command's doing
with_numpy = UNNEEDED & set(sys.modules)
from podkit.cli import main

for argv in json.loads(sys.argv[1]):
    code = main(argv)
    loaded = sorted(UNNEEDED & set(sys.modules) - with_numpy)
    print(json.dumps([" ".join(argv[:1] + argv[2:]), loaded, code]))
"""


def test_certify_commands_load_no_random_subprocess_or_csv_module(synth_bundle, tmp_path):
    # pod, verify with and without a map in every family, sweep and a JSON
    # table load neither numpy.random (the pointwise directions are hashed)
    # nor subprocess (generate-fhn's CSV helper alone starts a process) nor
    # csv (read only for a CSV report) nor OpenSSL's _hashlib (the digests
    # are CPython's built-in BLAKE2b and SHAKE256); the bundle is written
    # here, since generate-synthetic draws with numpy.random
    manifest, map_path = synth_bundle
    stem = str(tmp_path / "out")
    runs = [
        ["pod", "--input", manifest, "--output", stem + "_basis.json"],
        ["verify", "--input", manifest, "--r", "1,2", "--output", stem + "_plain.json"],
    ]
    for family in PROJECTOR_FAMILIES:
        common = ["--input", manifest, "--map", map_path, "--projector", family, "--r", "1,2"]
        runs.append(["verify", *common, "--seed", "5", "--output", f"{stem}_{family}.json"])
        runs.append(["sweep", *common, "--output", f"{stem}_{family}.csv"])
    runs.append(["table", "--input", f"{stem}_ritz.json"])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _UNNEEDED_MODULES_SCRIPT, json.dumps(runs)],
        capture_output=True, text=True, env=env, check=True,
    )
    reports = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("[")]
    assert len(reports) == len(runs)
    assert [(what, loaded) for what, loaded, _ in reports if loaded] == []
    assert all(code == 0 for _, _, code in reports), reports


def test_pod_on_an_oversized_manifest_exits_2_before_allocating(tmp_path, capsys):
    # a manifest claiming 200,000 x 200,000 data beside a 4-byte CSV with
    # its recorded digest and an .npy header of that shape: load counts
    # the shape against the dense budget before reading either file, where
    # np.empty of the header's 298 GiB ended in an untyped MemoryError
    n = 200_000
    csv_path = tmp_path / "s_data.csv"
    csv_path.write_bytes(b"1,2\n")
    with open(tmp_path / "s_data.npy", "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (n, n)}
        )
    manifest = tmp_path / "s.json"
    manifest.write_text(json.dumps({
        "dim": n, "count": n, "kind": "discrete", "gram": "identity",
        "data": csv_path.name, "weights": [1.0] * n,
        "data_npy": {
            "file": "s_data.npy",
            "csv_blake2b": hashlib.blake2b(csv_path.read_bytes(), digest_size=32).hexdigest(),
            "blake2b": "0" * 64,
        },
    }))
    code, _, err = run(capsys, "pod", "--input", str(manifest), "--output", str(tmp_path / "b.json"))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ProblemTooLarge"
    assert "200000 x 200000" in payload["message"]
    assert not (tmp_path / "b.json").exists()


def test_a_bundle_with_sha256_digests_loads_from_its_csv(synth_bundle, capsys, monkeypatch):
    # bundles written before the digests were BLAKE2b-256 record SHA-256
    # under csv_sha256 and sha256: load parses their CSV, once, to the same
    # doubles, and the certificate still passes
    manifest, map_path = synth_bundle
    fresh = load(manifest).data
    doc = json.loads(Path(manifest).read_text())
    csv_path = Path(manifest.replace(".json", "_data.csv"))
    doc["data_npy"] = {
        "file": doc["data_npy"]["file"],
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "sha256": hashlib.sha256(np.ascontiguousarray(fresh).tobytes()).hexdigest(),
    }
    Path(manifest).write_text(json.dumps(doc, indent=2) + "\n")
    calls = []
    loadtxt = np.loadtxt

    def counted(path, *args, **kwargs):
        calls.append(path)
        return loadtxt(path, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    assert np.array_equal(load(manifest).data.view(np.int64), fresh.view(np.int64))
    assert calls == [str(csv_path)]
    code, _, err = run(capsys, "verify", "--input", manifest, "--map", map_path, "--r", "1,4")
    assert code == 0, err


def test_pod_beyond_the_dense_budget_exits_2_before_the_svd(
    synth_bundle, tmp_path, capsys, monkeypatch
):
    # load counts DATA_LOAD_ARRAYS 17 x 40 arrays and compute_pod POD_ARRAYS
    # of them: under a budget that fits the load alone, pod is refused
    # before the whitened copy or the SVD, and no basis is written
    import podkit.gram_space
    import podkit.pod_engine
    from podkit.snapshot_io import DATA_LOAD_ARRAYS

    def never(*args, **kwargs):
        raise AssertionError("the SVD ran")

    manifest, _ = synth_bundle
    monkeypatch.setattr(podkit.gram_space, "DENSE_BYTES_BUDGET", 8 * DATA_LOAD_ARRAYS * 17 * 40)
    monkeypatch.setattr(podkit.pod_engine, "_svd", never)
    load(manifest)  # fits
    out_dir = tmp_path / "basis"
    out_dir.mkdir()
    code, out, err = run(capsys, "pod", "--input", manifest, "--output", str(out_dir / "b.json"))
    assert (code, out) == (2, "")
    payload = json.loads(err)
    assert payload["error"] == "ProblemTooLarge"
    assert "the POD needs 12 dense 17 x 40 arrays" in payload["message"]
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "entries",
    ["[NaN, 0, 1, 1, 1, 1, 1, 1]", "[NaN, 1, 1, 1, 1, 1, 1, 1]", "[Infinity, 1, 1, 1, 1, 1, 1, 1]",
     "[1, 1, 1, 1, 1, 1, 1, -Infinity]"],
)
def test_non_finite_diag_map_exits_2(synth8, capsys, entries):
    # json reads NaN and Infinity; the spec refuses them before any map is
    # built, where a NaN beside a zero ended in an untyped traceback (exit 1)
    # and one without a zero in NotInvertible (exit 3)
    code, _, err = run(
        capsys, "verify", "--input", synth8, "--map", '{"diag": %s}' % entries, "--r", "1",
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "MalformedManifest"
    assert "finite" in payload["message"]


def test_ritz_verify_at_4800_nodes_exits_0_and_writes_its_report(tmp_path, capsys):
    # the ellipticity of the form is bisected on banded Cholesky
    # factorizations: no n x n array, where a dense eigensolve needed
    # 527 MiB at this size
    manifest = str(tmp_path / "big.json")
    assert main(["generate-synthetic", "--output", manifest, "--nodes", "4800"]) == 0
    capsys.readouterr()
    report = tmp_path / "ritz.json"
    spec = json.dumps({"embedding": _EMBED, "ritz_form": {"fem_stiffness": 4800}})
    code, _, err = run(
        capsys, "verify", "--input", manifest, "--map", spec,
        "--projector", "ritz", "--r", "1", "--output", str(report),
    )
    assert code == 0, err
    assert json.loads(Path(report).read_text())["all_passed"] is True


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
    relation = json.loads(Path(report).read_text())["rank_relation"]
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


def test_generate_fhn_names_its_block_diagonal_gram(tmp_path, capsys, monkeypatch):
    # the product space's Gram is named in the manifest, not written as a
    # CSV, and it is the one space generate-fhn factors: no map is built
    import podkit.gram_space

    factorizations = _count_calls(monkeypatch, podkit.gram_space, "band_cholesky")
    manifest = str(tmp_path / "fhn.json")
    assert main(["generate-fhn", "--output", manifest, "--nodes", "8"]) == 0
    capsys.readouterr()
    assert len(factorizations) == 1
    assert json.loads(Path(manifest).read_text())["gram"] == {"block_diag": [{"fem_mass": 8}] * 2}
    assert sorted(os.listdir(tmp_path)) == [
        "fhn.json", "fhn_data.csv", "fhn_data.npy", "fhn_map.json",
    ]


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


def test_generate_synthetic_beyond_the_dense_budget_exits_2_before_the_gram(
    tmp_path, capsys, monkeypatch
):
    # the nodes x 41 trajectory is counted at SYNTHETIC_ARRAYS arrays: under
    # a 1 MiB budget 5,000 nodes are refused before the Gram is assembled,
    # and nothing is written
    import podkit.fhn_gen
    import podkit.gram_space

    def never(*args):
        raise AssertionError("the Gram was assembled")

    monkeypatch.setattr(podkit.gram_space, "DENSE_BYTES_BUDGET", 2**20)
    monkeypatch.setattr(podkit.fhn_gen, "resolve_gram_spec", never)
    manifest = str(tmp_path / "s.json")
    code, _, err = run(capsys, "generate-synthetic", "--nodes", "5000", "--output", manifest)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ProblemTooLarge"
    assert "5000 x 41" in payload["message"]
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
        "verify": ["input", "map", "output", "projector", "r", "seed"],
        "sweep": ["input", "map", "output", "projector", "r"],
        "table": ["input"],
    }
    assert sum(len(names) for names in flags.values()) == 21


@pytest.mark.parametrize(
    "command, extra",
    [
        ("generate-fhn", ["--seed", "3"]),
        ("generate-synthetic", ["--tol", "1e-8"]),
        ("pod", ["--seed", "1"]),
        ("verify", ["--nodes", "8"]),
        ("sweep", ["--seed", "1"]),
        ("table", ["--tol", "1"]),
        ("verify", ["--tol", "1"]),
        ("sweep", ["--tol", "1"]),
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


def test_a_verify_report_is_json(synth8, tmp_path, capsys, monkeypatch):
    # a CSV cannot carry the rank relation that decides verify's exit code,
    # so verify --output x.csv is refused before the bundle is read
    import podkit.cli

    def never(*args):
        raise AssertionError("the bundle was read")

    monkeypatch.setattr(podkit.cli, "load", never)
    report = tmp_path / "v.csv"
    code, _, err = run(
        capsys, "verify", "--input", synth8, "--map", synth8.replace(".json", "_map.json"),
        "--r", "1", "--output", str(report),
    )
    assert code == 2
    assert json.loads(err)["error"] == "MalformedManifest"
    assert not report.exists()


@pytest.mark.parametrize("command", ["verify", "generate-synthetic"])
def test_a_negative_seed_is_a_usage_error(synth8, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "verify": ["--input", synth8, "--map", synth8.replace(".json", "_map.json"),
                   "--r", "1", "--output", str(out / "r.json")],
        "generate-synthetic": ["--output", str(out / "s.json"), "--nodes", "8"],
    }[command]
    assert _usage_exit(capsys, command, *argv, "--seed", "-1") == 2
    assert os.listdir(out) == []


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
