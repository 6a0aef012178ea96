"""Error identities and bounds, checked against hand formulas on a 2 x 2
instance and against independent recomputation on seeded random instances.
Every row comes from battery_level or sweep, the entry points the CLI runs."""

import csv
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from podkit.cli import run_battery
from podkit.error_lab import (
    PROJECTOR_FAMILIES,
    ErrorReport,
    _residual_norms,
    _residuals,
    _worst_index,
    battery_level,
    certifier,
    rank_relation,
    read_report,
    snapshot_guarantee_threshold,
    sweep,
    write_report_csv,
    write_report_json,
)
from podkit.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MissingDataFile,
    PodkitError,
    RankExceeded,
)
from podkit.fem import assemble_fem_1d
from podkit.gram_space import COLUMN_BLOCK_BYTES, half_weight, identity, make_space
from podkit.linear_map import identity_map
from podkit.pod_engine import compute_pod
from podkit.snapshot_io import make_snapshot_set

from conftest import GOLDEN_LAMBDA_2, by_id
from oracles import apply_projector, make_embedding_instance, norm, pod_projector, random_instance

# squared rank-1 residuals of the golden snapshots (1, 0) and (1, 1)
GOLDEN_RESIDUALS_SQ = ((5.0 - math.sqrt(5.0)) / 10.0, 1.0 - 2.0 / math.sqrt(5.0))


def snapshot_residuals(sset, basis, r):
    """||w_ell - P_r w_ell|| for every snapshot, one at a time, through the
    projector's factors rather than the battery's residual operator."""
    proj = pod_projector(basis, r)
    return np.array([norm(basis.space, w - apply_projector(proj, w)) for w in sset.data.T])


def test_pod_error_golden_hand_value(golden_instance):
    sset = golden_instance
    basis = compute_pod(sset)
    rep = by_id(battery_level(certifier(sset, basis), 1))["pod_x"]
    assert rep.passed
    assert rep.actual == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-12)
    assert rep.formula == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-12)
    rep2 = by_id(battery_level(certifier(sset, basis), 2))["pod_x"]
    assert rep2.passed
    assert abs(rep2.actual) < 1e-14 and abs(rep2.formula) < 1e-14


def test_range_residual_golden_hand_value(golden_instance):
    # one retained mode: each row's worst snapshot carries its hand residual,
    # and the companion cap is sqrt(lambda_2) since the weights are one
    sset = golden_instance
    basis = compute_pod(sset)
    rows = by_id(battery_level(certifier(sset, basis), 1))
    exact, bound = rows["range_exact"], rows["snap_sigma_bound"]
    assert exact.passed and bound.passed
    assert exact.actual**2 == pytest.approx(GOLDEN_RESIDUALS_SQ[exact.info["ell"]], abs=1e-12)
    assert exact.formula**2 == pytest.approx(GOLDEN_RESIDUALS_SQ[exact.info["ell"]], abs=1e-12)
    assert bound.actual**2 == pytest.approx(GOLDEN_RESIDUALS_SQ[bound.info["ell"]], abs=1e-12)
    assert bound.formula == pytest.approx(math.sqrt(GOLDEN_LAMBDA_2), abs=1e-12)
    assert max(GOLDEN_RESIDUALS_SQ) <= GOLDEN_LAMBDA_2


def test_range_residual_block_names_the_worst_snapshot():
    inst = random_instance(9, 7, seed=61)
    sset = inst["set"]
    basis = compute_pod(sset)
    for r in range(1, basis.rank + 1):
        residuals = snapshot_residuals(sset, basis, r)
        rows = by_id(battery_level(certifier(sset, basis), r))
        for row_id in ("range_exact", "snap_sigma_bound"):
            rep = rows[row_id]
            assert rep.passed, (r, row_id)
            want = residuals[rep.info["ell"]]
            assert rep.actual == pytest.approx(want, rel=1e-9, abs=rep.info["floor"]), (r, row_id)
    # a formula wrong at snapshot j alone: the exact row fails there and names j
    for j in (0, 3, 6):
        right = basis.right_full.copy()
        right[j] *= 2.0
        tampered = dataclasses.replace(basis, right_full=right)
        for r in range(1, basis.rank):
            exact = by_id(battery_level(certifier(sset, tampered), r))["range_exact"]
            assert not exact.passed and exact.info["ell"] == j, (j, r)
            assert exact.actual == pytest.approx(snapshot_residuals(sset, basis, r)[j], rel=1e-9)
            assert exact.formula == pytest.approx(2.0 * exact.actual, rel=1e-9)


def test_snap_sigma_bound_names_the_tightest_snapshot():
    # no snapshot fails its cap sigma_{r+1} / sqrt(g_ell), so the row names
    # the one with the largest residual - cap, the key the snap_* rows rank
    # by, not the one with the most slack
    for seed in (61, 62, 63):
        inst = random_instance(9, 7, seed=seed)
        sset = inst["set"]
        basis = compute_pod(sset)
        for r in range(1, basis.rank):
            cap = np.sqrt(basis.eigenvalues[r] / sset.weights)
            slack = snapshot_residuals(sset, basis, r) - cap
            rep = by_id(battery_level(certifier(sset, basis), r))["snap_sigma_bound"]
            assert rep.passed, (seed, r)
            assert slack[rep.info["ell"]] >= slack.max() - rep.info["floor"], (seed, r)


def test_worst_index_prefers_failures_then_first_of_ties():
    passed = np.array([True, False, False, True])
    assert _worst_index(passed, np.array([5.0, 2.0, 2.0, 9.0]), 0.0) == 1
    assert _worst_index(np.ones(3, bool), np.array([1.0, 3.0, 3.0]), 0.0) == 1
    # a key within its round-off noise of the largest ties with it
    keys = np.array([2.6e-14, 1e-20, 3.0e-14, 9.0])
    assert _worst_index(np.array([True, True, True, False]), keys, 1e-12) == 3
    assert _worst_index(np.ones(3, bool), keys[:3], 1e-12) == 0
    assert _worst_index(np.ones(3, bool), keys[:3], np.array([1e-15, 1e-12, 1e-15])) == 1


def test_range_exact_passes_at_every_level_on_flagship(fhn_instance):
    sset = fhn_instance["set"]
    basis = compute_pod(sset)
    for r in range(1, basis.rank + 1):
        exact = by_id(battery_level(certifier(sset, basis), r))["range_exact"]
        assert exact.passed, (r, exact.info, exact.rel_diff)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_range_exact_floor_follows_data_scale(fhn_instance, scale):
    # The floor is u * sigma_1 / sqrt(g_ell) times a constant, so scaling the
    # data scales it too: the true formula passes at every level and scale,
    # and a formula off by a factor of two fails below the rank.
    src = fhn_instance["set"]
    sset = make_snapshot_set(src.data * scale, src.weights, space=src.space)
    basis = compute_pod(sset)
    doubled = dataclasses.replace(basis, right_full=2.0 * basis.right_full)
    for r in range(1, basis.rank + 1):
        exact = by_id(battery_level(certifier(sset, basis), r))["range_exact"]
        assert exact.passed, (scale, r, exact.rel_diff)
        assert exact.info["floor"] == pytest.approx(
            32.0 * 2.0**-53 * basis.sigma[0] / math.sqrt(sset.weights[exact.info["ell"]])
        )
        if r < basis.rank:
            wrong = by_id(battery_level(certifier(sset, doubled), r))["range_exact"]
            assert not wrong.passed, (scale, r)


def test_guarantee_threshold_golden(golden_instance):
    sset = golden_instance
    basis = compute_pod(sset)
    assert snapshot_guarantee_threshold(sset, basis) == 1


def test_snapshot_bounds_below_threshold_not_asserted():
    # shrinking the weights inflates the coefficient norms, pushing the
    # guarantee threshold to full rank; below it the rows must evaluate the
    # inequality without asserting it
    space = make_space(identity(2))
    data = np.array([[1.0, 1.0], [0.0, 1.0]])
    sset = make_snapshot_set(data, np.array([0.01, 0.01]), space=space)
    basis = compute_pod(sset)
    assert snapshot_guarantee_threshold(sset, basis) == 2

    rep = by_id(battery_level(certifier(sset, basis), 1))["snap_pod_x"]
    assert rep.info["r0"] == 2
    assert rep.passed  # passes by policy, not by the inequality
    assert rep.info["guaranteed"] is False
    assert rep.info["holds"] is False  # the raw inequality genuinely fails

    rep2 = by_id(battery_level(certifier(sset, basis), 2))["snap_pod_x"]
    assert rep2.passed and rep2.info["guaranteed"] is True
    assert "holds" not in rep2.info


def test_snapshot_bounds_unattainable_threshold():
    # continuous-weight trajectory: each weight is about 1/40, so no
    # computable r captures the coefficients and r0 comes back None
    inst = make_embedding_instance(33, 1)
    basis = compute_pod(inst["set"])
    assert snapshot_guarantee_threshold(inst["set"], basis) is None
    reports = battery_level(certifier(inst["set"], basis, inst["map"]), 1)
    snaps = [rep for rep in reports if rep.identity_id.startswith("snap_")]
    assert len(snaps) == 5  # snap_sigma_bound and one per residual operator
    for rep in snaps[1:]:
        assert rep.info["r0"] is None and rep.info["guaranteed"] is False
        assert rep.passed and "holds" in rep.info


def test_snapshot_bounds_row_structure():
    inst = random_instance(8, 6, seed=21)
    basis = compute_pod(inst["set"])
    r = min(3, basis.rank)

    def snap_ids(reports):
        return [rep.identity_id for rep in reports if rep.identity_id.startswith("snap_")]

    ids = snap_ids(battery_level(certifier(inst["set"], basis, inst["map"]), r))
    assert ids == [
        "snap_sigma_bound", "snap_pod_x", "snap_proj_y", "snap_pod_x_mapped", "snap_pullback_x",
    ]
    mapless = snap_ids(battery_level(certifier(inst["set"], basis), r))
    assert mapless == ["snap_sigma_bound", "snap_pod_x"]


def test_identity_map_reduces_to_ambient(golden_instance):
    # under the identity map the mapped and projected identities collapse
    # onto the plain ambient one
    sset = golden_instance
    space = sset.space
    basis = compute_pod(sset)
    rows = by_id(battery_level(certifier(sset, basis, identity_map(space)), 1))
    base = rows["pod_x"]
    for rep in (rows["pod_x_mapped"], rows["proj_y"], rows["pullback_x"]):
        assert rep.passed
        assert rep.actual == pytest.approx(base.actual, rel=1e-12, abs=1e-14)
        assert rep.formula == pytest.approx(base.formula, rel=1e-12, abs=1e-14)


def test_identities_random_instances():
    for seed in (31, 32, 33):
        inst = random_instance(9, 7, seed=seed)
        sset, lmap = inst["set"], inst["map"]
        basis = compute_pod(sset)
        cert = certifier(sset, basis, lmap)
        for r in range(1, basis.rank + 1):
            rows = by_id(battery_level(cert, r))
            for identity_id in ("pod_x", "pod_x_mapped", "proj_y", "pullback_x"):
                rep = rows[identity_id]
                assert rep.passed, f"{identity_id} r={r} rel={rep.rel_diff:.2e}"


def test_pod_error_direct_recomputation():
    # recompute the actual side by looping over snapshots one at a time
    inst = random_instance(7, 5, seed=41)
    sset, space = inst["set"], inst["space_x"]
    basis = compute_pod(sset)
    proj = pod_projector(basis, 2)
    total = 0.0
    for ell in range(sset.count):
        w = sset.data[:, ell]
        pw = proj.range_basis @ (proj.dual_basis.T @ (space.gram @ w))
        total += sset.weights[ell] * norm(space, w - pw) ** 2
    rep = by_id(battery_level(certifier(sset, basis), 2))["pod_x"]
    assert rep.actual == pytest.approx(total, rel=1e-12)


def test_hs_identities_pass_and_match_weighted_energy():
    inst = random_instance(8, 6, seed=51)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset)
    r = 3
    reports = battery_level(certifier(sset, basis, lmap), r)
    hs = [rep for rep in reports if rep.identity_id.startswith("hs_")]
    assert [rep.identity_id for rep in hs] == [
        "hs_pod_x_mapped",
        "hs_proj_y",
        "hs_pullback_x",
    ]
    for rep in hs:
        assert rep.passed
    # operator-level actual side equals the data-level weighted energy
    rows = by_id(reports)
    for rep in hs:
        assert rep.actual == pytest.approx(rows[rep.identity_id[3:]].actual, rel=1e-11)


def test_hs_identities_two_rows_without_inverse():
    inst = random_instance(8, 6, seed=52, invertible=False, map_rank=6)
    basis = compute_pod(inst["set"])
    reports = battery_level(certifier(inst["set"], basis, inst["map"]), 2)
    assert len([rep for rep in reports if rep.identity_id.startswith("hs_")]) == 2


def test_pointwise_single_snapshot_matches_range_residual(golden_instance):
    # g = e_ell / weight_ell reproduces snapshot ell, so under the identity
    # map the codomain projection error is the ambient residual of (1, 1)
    sset = golden_instance
    space = sset.space
    basis = compute_pod(sset)
    g = np.array([0.0, 1.0]) / sset.weights[1]
    reports = battery_level(certifier(sset, basis, identity_map(space)), 1, coeffs=g[:, None])
    rep = by_id(reports)["pw_proj_y"]
    assert rep.passed
    assert rep.actual**2 == pytest.approx(GOLDEN_RESIDUALS_SQ[1], rel=1e-12)


def test_pointwise_kinds_and_cs_bound():
    inst = random_instance(9, 7, seed=61)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset)
    r = 3
    coeffs = np.random.default_rng(0).standard_normal((10, sset.count)).T
    reports = battery_level(certifier(sset, basis, lmap), r, coeffs=coeffs)
    pointwise = [rep for rep in reports if rep.identity_id.startswith("pw_")]
    assert [rep.identity_id for rep in pointwise] == [
        "pw_proj_y", "pw_composite_y", "pw_composite_x",
    ] * 10
    for rep in pointwise:
        assert rep.passed, f"{rep.identity_id} actual={rep.actual:.3e} formula={rep.formula:.3e}"
        # the Cauchy-Schwarz variant can only be looser
        assert rep.info["cs_rhs"] >= rep.formula - 1e-13
        assert rep.info["cs_passed"]


def test_pw_composite_y_is_pod_x_mapped_on_the_elements():
    # (I - L P_r L^{-1}) L K c = L (I - P_r) K c: pw_composite_y's actual
    # side is pod_x_mapped's residual norm of the same elements K c, through
    # that residual's own apply, and matches the longhand natural-coordinate
    # residual in the codomain norm
    inst = random_instance(9, 7, seed=61)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset)
    cert = certifier(sset, basis, lmap, "composite-xy")
    coeffs = np.random.default_rng(0).standard_normal((4, sset.count)).T
    elements = sset.data @ (sset.weights[:, None] * coeffs)
    for r in range(1, basis.rank + 1):
        rows = battery_level(cert, r, coeffs)
        rows = [rep for rep in rows if rep.identity_id == "pw_composite_y"]
        res = {"pod_x_mapped": _residuals(cert, r)["pod_x_mapped"]}
        sq = _residual_norms(cert, res, elements)[0]["pod_x_mapped"]
        assert [rep.actual for rep in rows] == [float(np.sqrt(v)) for v in sq], r
        proj = pod_projector(basis, r)
        for rep, element in zip(rows, elements.T):
            longhand = norm(lmap.codomain, lmap.matrix @ (element - apply_projector(proj, element)))
            assert rep.actual == pytest.approx(longhand, rel=1e-9, abs=rep.info["floor"]), r


def test_pointwise_guards():
    # coefficients are one column per element; the kinds follow from the
    # map: every kind needs one, the composites an invertible one
    inst = random_instance(6, 4, seed=62)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset)
    cert = certifier(sset, basis, lmap)
    for bad in (np.zeros(4), np.zeros((3, 2)), np.zeros((4, 2, 1))):
        with pytest.raises(DimensionMismatch):
            battery_level(cert, 2, coeffs=bad)
    flat = random_instance(6, 4, seed=63, invertible=False, map_rank=4)
    fbasis = compute_pod(flat["set"])
    g = np.ones((4, 1))
    for level_cert, kinds in (
        (cert, ["pw_proj_y", "pw_composite_y", "pw_composite_x"]),
        (certifier(flat["set"], fbasis, flat["map"]), ["pw_proj_y"]),
        (certifier(sset, basis), []),
    ):
        reports = battery_level(level_cert, 2, coeffs=g)
        assert [rep.identity_id for rep in reports if rep.identity_id.startswith("pw_")] == kinds


def test_sweep_schema():
    inst = random_instance(8, 6, seed=71)
    basis = compute_pod(inst["set"])
    reports = sweep(certifier(inst["set"], basis, inst["map"]), [1, 3])
    assert len(reports) == 8
    ids = [rep.identity_id for rep in reports]
    assert ids == ["pod_x", "pod_x_mapped", "proj_y", "pullback_x"] * 2
    assert [rep.r for rep in reports] == [1, 1, 1, 1, 3, 3, 3, 3]
    assert all(rep.passed for rep in reports)


def test_codomain_projectors_families():
    # without a form, ritz projects in the codomain's own inner product: it
    # builds the orthogonal family, which the H^1 form, the codomain Gram
    # itself, reproduces through the Ritz system
    inst = make_embedding_instance(17, 3)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset)
    for family, form in (
        ("orthogonal", None),
        ("ritz", inst["form"]),
        ("ritz", None),
        ("composite-xy", None),
    ):
        cert = certifier(sset, basis, lmap, family, form)
        assert cert.family == family
        assert cert.projectors(3)[0].shape[1] == 3
    orthogonal = certifier(sset, basis, lmap).projectors(3)
    for have, want in zip(certifier(sset, basis, lmap, "ritz").projectors(3), orthogonal):
        assert np.array_equal(have, want)
    for have, want in zip(certifier(sset, basis, lmap, "ritz", inst["form"]).projectors(3),
                          orthogonal):
        assert np.allclose(have, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    with pytest.raises(IndexOutOfRange):
        certifier(sset, basis, lmap, "sideways")


@pytest.mark.parametrize("mapped", [False, True], ids=["no-map", "map"])
def test_one_level_guard(mapped):
    # battery_level and sweep hold every level to 1 <= r <= rank, with and
    # without a map, by the one rule pod --r obeys too
    inst = random_instance(8, 6, seed=51)
    sset = inst["set"]
    basis = compute_pod(sset)
    cert = certifier(sset, basis, inst["map"] if mapped else None)
    for run in (lambda r: battery_level(cert, r), lambda r: sweep(cert, [r])):
        with pytest.raises(IndexOutOfRange, match="must be >= 1, got 0"):
            run(0)
        with pytest.raises(RankExceeded, match=f"r = {basis.rank + 1} beyond computed rank"):
            run(basis.rank + 1)
        assert run(basis.rank)


def test_report_round_trip(tmp_path):
    inst = random_instance(7, 5, seed=81)
    basis = compute_pod(inst["set"])
    reports = sweep(certifier(inst["set"], basis, inst["map"]), [1, 2])

    def columns(rep):
        return (rep.identity_id, rep.r, rep.actual, rep.formula, rep.abs_diff, rep.rel_diff,
                rep.passed)

    # both formats carry 17 significant digits: the seven columns come back exactly
    jpath = str(tmp_path / "out.json")
    write_report_json(reports, jpath, extra={"note": "round-trip"})
    back, relation = read_report(jpath)
    assert relation is None
    assert all(isinstance(row, ErrorReport) for row in back)
    assert [columns(row) for row in back] == [columns(rep) for rep in reports]

    cpath = str(tmp_path / "out.csv")
    write_report_csv(reports, cpath)
    back_csv, relation = read_report(cpath)
    assert relation is None
    assert [columns(row) for row in back_csv] == [columns(rep) for rep in reports]
    with open(cpath) as fh:
        header = next(csv.reader(fh))
    assert header[:4] == ["identity_id", "r", "actual", "formula"]


def test_read_report_missing_file(tmp_path):
    with pytest.raises(MissingDataFile):
        read_report(str(tmp_path / "absent.json"))


def test_readme_library_example_runs(capsys):
    # the README's one python block runs as written, and every row it
    # certifies passes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["rows"] and all(rep.passed for rep in namespace["rows"])
    assert "False" not in capsys.readouterr().out


# -- scale-aware floors -------------------------------------------------------

SCALES = (1e-8, 1.0, 1e8)


def _scaled(sset, alpha):
    return make_snapshot_set(sset.data * alpha, sset.weights, space=sset.space)


def _battery(sset, basis, lmap, levels):
    reports, _ = run_battery(certifier(sset, basis, lmap), levels, 0)
    return reports


def test_battery_verdicts_do_not_depend_on_data_scale(fhn_instance):
    # every verdict, including the raw outcome of the rows below the
    # guarantee threshold, is a property of the data's shape, not its size
    pool = [random_instance(6, 5, seed=seed) for seed in (2, 3, 4)]
    pool.append(random_instance(7, 6, seed=5, invertible=False, dim_y=9))
    pool.append(fhn_instance)
    for k, inst in enumerate(pool):
        for lmap in (inst["map"], None):
            seen = []
            for alpha in SCALES:
                sset = _scaled(inst["set"], alpha)
                basis = compute_pod(sset)
                levels = (1, 11, 20, 22) if inst is fhn_instance else range(1, basis.rank + 1)
                seen.append([
                    (rep.identity_id, rep.r, rep.passed, rep.info.get("holds"))
                    for rep in _battery(sset, basis, lmap, levels)
                ])
            assert seen[0] == seen[1] == seen[2], (k, lmap is None)


@pytest.mark.parametrize("alpha", SCALES)
def test_doubled_eigenvalues_fail_every_identity_row(alpha):
    for seed in (2, 3, 4):
        inst = random_instance(6, 5, seed=seed)
        sset = _scaled(inst["set"], alpha)
        basis = compute_pod(sset)
        doubled = dataclasses.replace(basis, eigenvalues=2.0 * basis.eigenvalues)
        reports = _battery(sset, doubled, inst["map"], range(1, basis.rank))
        identities = [rep for rep in reports if rep.kind == "identity"]
        assert len(identities) == 8 * (basis.rank - 1)
        passing = [(rep.identity_id, rep.r) for rep in identities if rep.passed]
        assert not passing, (seed, passing)


@pytest.mark.parametrize("alpha", SCALES)
def test_small_caps_fail_every_guaranteed_snapshot_row(alpha):
    # below the rank every cap is positive, so a hundredfold smaller one
    # falls under the worst snapshot's residual
    for seed in (2, 4):
        inst = random_instance(6, 5, seed=seed)
        sset = _scaled(inst["set"], alpha)
        basis = compute_pod(sset)
        small = dataclasses.replace(basis, eigenvalues=basis.eigenvalues / 100.0)
        reports = _battery(sset, small, inst["map"], range(1, basis.rank))
        rows = [
            rep for rep in reports
            if rep.identity_id.startswith("snap_") and rep.info.get("guaranteed")
        ]
        assert rows
        passing = [(rep.identity_id, rep.r) for rep in rows if rep.passed]
        assert not passing, (seed, passing)


@pytest.mark.parametrize(
    "family", ["orthogonal", "composite-xy"], ids=["orthogonal", "pushforward"]
)
def test_blocked_residual_norms_match_unblocked(family):
    # 1,500 snapshots of dim 60 take two column blocks.  Blocking reorders
    # only the dense products' sums, so each ||T w_j||^2 (and its hs form
    # ||T g_j w_j||^2) moves by round-off, far below 1e-15 of the scale its
    # floor uses: E / g_j, E the data energy in T's norm space.
    inst = random_instance(60, 1500, seed=11, invertible=True)
    sset, g, lmap = inst["set"], inst["set"].weights, inst["map"]
    basis = compute_pod(sset)
    cert = certifier(sset, basis, lmap, family)
    # the whole data whitened at once
    X, Y = half_weight(sset.space, sset.data), half_weight(lmap.codomain, lmap.matrix @ sset.data)
    for r in (1, basis.rank // 2, basis.rank):
        res = _residuals(cert, r)
        assert list(res) == ["pod_x", "pod_x_mapped", "proj_y", "pullback_x"]
        sq, hs = _residual_norms(cert, res, sset.data, g)
        assert list(hs) == ["pod_x_mapped", "proj_y", "pullback_x"]
        for label, t in res.items():
            for blocked, scale, weight in ((sq, 1.0, g), (hs, g, 1.0 / g)):
                if label not in blocked:
                    continue
                A = t.apply(X * scale, Y * scale)
                diff = np.abs(blocked[label] - np.einsum("ij,ij->j", A, A))
                assert np.max(diff * weight) <= 1e-15 * t.energy, (r, label)


@pytest.mark.parametrize("instance, family", [
    ("embedding-33", "orthogonal"), ("embedding-33", "ritz"), ("embedding-33", "composite-xy"),
    ("flagship-6", "orthogonal"), ("flagship-6", "ritz"),
])
def test_the_formula_side_never_reads_the_data(fhn_small_instance, instance, family):
    # the two routes are disjoint: with the data replaced by NaN after the
    # certifier is built, every level's formula sides and tail mode norms
    # are unchanged, while the actual side reads the NaN; ritz solves its
    # system on the codomain Gram as the form
    inst = fhn_small_instance if instance == "flagship-6" else make_embedding_instance(33, 1)
    sset = dataclasses.replace(inst["set"])  # the NaN goes to this copy alone
    basis = compute_pod(sset)
    form = inst["map"].codomain.gram if family == "ritz" else None
    cert = certifier(sset, basis, inst["map"], family, form)
    before = {}
    for r in range(1, basis.rank + 1):
        try:
            before[r] = _residuals(cert, r)
        except PodkitError:  # a level past the first dependent mapped mode
            pass
    assert len(before) >= min(basis.rank, 8)
    sset.data = np.full_like(sset.data, np.nan)
    for r, res in before.items():
        after = _residuals(cert, r)
        assert list(after) == list(res)
        for label, t in after.items():
            assert t.formula == res[label].formula, (r, label)
            assert np.array_equal(t.mode_sq, res[label].mode_sq), (r, label)
        assert np.isnan(_residual_norms(cert, after, sset.data)[0]["pod_x"]).all()


@pytest.mark.parametrize("s", [5_000, 20_000])
def test_battery_level_peak_is_column_blocks_not_data(s):
    # Above its inputs a level holds a few column blocks, O(n^2) for the
    # tail modes and O(s) for the per-snapshot norms and the pointwise
    # coefficients, never a data-sized temporary (4 MB at s = 5,000 and
    # 16 MB at s = 20,000, n = 100).
    n = 100
    rng = np.random.default_rng(s)
    mesh = assemble_fem_1d(n)
    space = make_space(mesh.mass)
    sset = make_snapshot_set(rng.standard_normal((n, s)), rng.uniform(0.5, 2.0, s), space=space)
    lmap = identity_map(space, make_space(mesh.stiffness + mesh.mass))
    basis = compute_pod(sset)
    cert = certifier(sset, basis, lmap)
    coeffs = rng.standard_normal((s, 5))
    tracemalloc.start()
    try:
        rows = battery_level(cert, n // 2, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in rows)
    assert peak <= 6 * COLUMN_BLOCK_BYTES + 8 * (8 * n * n + 16 * s)


def test_one_certifier_for_all_levels_equals_a_fresh_certifier_per_level(fhn_instance):
    # the projector family, the codomain energy, the mapped mode norms and
    # the guarantee threshold are built once per bundle; every row of levels
    # 1..22 equals the row from a certifier built for that level alone
    sset, lmap = fhn_instance["set"], fhn_instance["map"]
    basis = compute_pod(sset)
    assert basis.rank == 22
    cert = certifier(sset, basis, lmap)
    assert cert.r0 == snapshot_guarantee_threshold(sset, basis)
    coeffs = np.random.default_rng(0).standard_normal((sset.count, 2))
    for r in range(1, 23):
        once = battery_level(cert, r, coeffs)
        alone = battery_level(certifier(sset, basis, lmap), r, coeffs)
        assert once == alone, r


class _NoGram:
    """Stands in for a space's Gram matrix and fails on any use of it."""

    def _used(self, *args, **kwargs):
        raise AssertionError("the certify path read a Gram matrix")

    __getattr__ = __array__ = __matmul__ = __rmatmul__ = __mul__ = __rmul__ = _used


@pytest.mark.parametrize("family", PROJECTOR_FAMILIES)
def test_the_certify_path_multiplies_by_no_gram_matrix(family, monkeypatch):
    # Every norm is Euclidean in whitened coordinates and every projection a
    # matrix pair, so certifier, battery_level and rank_relation need each
    # space's Cholesky factor only.  ritz runs without a form, so it reads
    # no Gram as one.
    inst = make_embedding_instance(33, 1)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset)
    for space in (sset.space, basis.space, lmap.domain, lmap.codomain):
        monkeypatch.setattr(space, "gram", _NoGram())
    cert = certifier(sset, basis, lmap, family)
    coeffs = np.random.default_rng(0).standard_normal((sset.count, 2))
    rows = [rep for r in range(1, basis.rank + 1) for rep in battery_level(cert, r, coeffs)]
    assert rows and all(rep.passed for rep in rows)
    assert rank_relation(cert)["passed"]


def test_whitened_projection_keeps_the_full_rank_residual_at_round_off():
    # At r = rank on the 1,000-node embedding (the generate-synthetic --nodes
    # 1000 --seed 1 bundle) proj_y's residual is pure round-off.  Projecting
    # in natural coordinates and whitening the result afterwards inflated it
    # to 41 times the formula side (rel_diff 0.98); with the projection
    # applied in whitened coordinates it is within 1.4 times (0.25), with one
    # BLAS thread and with two.  Form-less ritz is the same projection; when
    # it solved the Ritz system on the Gram as its form, A^T Q cancelled and
    # rel_diff read 0.83.
    inst = make_embedding_instance(1000, 1, seed=1)
    basis = compute_pod(inst["set"])
    assert basis.rank == 8
    for family in ("orthogonal", "ritz"):
        cert = certifier(inst["set"], basis, inst["map"], family)
        proj_y = by_id(battery_level(cert, basis.rank))["proj_y"]
        assert proj_y.passed and proj_y.rel_diff <= 0.75, family
