"""Error identities and bounds, checked against hand formulas on a 2 x 2
instance and against independent recomputation on seeded random instances."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from podkit.cli import run_battery
from podkit.error_lab import (
    _worst_index,
    build_codomain_projector,
    check_hs_identities,
    check_mapped_pod_error,
    check_pod_error,
    check_pointwise,
    check_projected_error,
    check_pullback_error,
    check_range_residual,
    check_snapshot_bounds,
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
    NotInvertible,
    ProvenanceMismatch,
)
from podkit.fhn_gen import make_embedding_instance, random_instance
from podkit.gram_space import identity_space, norm
from podkit.linear_map import identity_map
from podkit.pod_engine import compute_pod
from podkit.projector import mapped_orthogonal_projector, pod_projector
from podkit.snapshot_io import make_snapshot_set

from conftest import GOLDEN_LAMBDA_2


def test_pod_error_golden_hand_value(golden_instance):
    sset = golden_instance
    space = sset.space
    basis = compute_pod(sset, space)
    rep = check_pod_error(sset, basis, 1)
    assert rep.passed
    assert rep.identity_id == "pod_x"
    assert rep.lhs == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-12)
    assert rep.rhs == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-12)
    rep2 = check_pod_error(sset, basis, 2)
    assert rep2.passed
    assert abs(rep2.lhs) < 1e-14 and abs(rep2.rhs) < 1e-14


def test_range_residual_golden_hand_value(golden_instance):
    # second snapshot (1, 1), one retained mode: the squared residual is
    # 1 - 2/sqrt(5), and the companion cap is sqrt(lambda_2) since the
    # weight is one
    sset = golden_instance
    space = sset.space
    basis = compute_pod(sset, space)
    exact, bound = check_range_residual(sset, basis, 1, 1)
    assert exact.passed and bound.passed
    assert exact.lhs**2 == pytest.approx(1.0 - 2.0 / math.sqrt(5.0), abs=1e-12)
    assert bound.rhs == pytest.approx(math.sqrt(GOLDEN_LAMBDA_2), abs=1e-12)
    assert exact.lhs <= bound.rhs
    with pytest.raises(IndexOutOfRange):
        check_range_residual(sset, basis, 1, 5)


def test_range_residual_block_names_the_worst_snapshot():
    inst = random_instance(9, 7, seed=61)
    sset = inst["set"]
    basis = compute_pod(sset, inst["space_x"])
    everything = range(sset.count)
    for r in range(1, basis.rank + 1):
        exact, bound = check_range_residual(sset, basis, r, everything)
        singles = [check_range_residual(sset, basis, r, ell) for ell in everything]
        for block_rep, k in ((exact, 0), (bound, 1)):
            # the single-snapshot call indexes the same computation
            same = singles[block_rep.info["ell"]][k]
            assert block_rep.lhs == pytest.approx(same.lhs, rel=1e-12)
            assert block_rep.rhs == pytest.approx(same.rhs, rel=1e-12)
            assert block_rep.passed == all(rows[k].passed for rows in singles)
            worst = max(rows[k].rel_diff for rows in singles)
            assert block_rep.rel_diff >= worst - 1e-12


def test_worst_index_prefers_failures_then_first_of_ties():
    passed = np.array([True, False, False, True])
    assert _worst_index(passed, np.array([5.0, 2.0, 2.0, 9.0])) == 1
    assert _worst_index(np.ones(3, bool), np.array([1.0, 3.0, 3.0])) == 1


def test_range_exact_passes_at_every_level_on_flagship(fhn_instance):
    sset = fhn_instance["set"]
    basis = compute_pod(sset)
    for r in range(1, basis.rank + 1):
        exact, _ = check_range_residual(sset, basis, r, range(sset.count))
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
    everything = range(sset.count)
    for r in range(1, basis.rank + 1):
        exact, _ = check_range_residual(sset, basis, r, everything)
        assert exact.passed, (scale, r, exact.rel_diff)
        assert exact.info["floor"] == pytest.approx(
            32.0 * 2.0**-53 * basis.sigma[0] / math.sqrt(sset.weights[exact.info["ell"]])
        )
        if r < basis.rank:
            wrong, _ = check_range_residual(sset, doubled, r, everything)
            assert not wrong.passed, (scale, r)


def test_guarantee_threshold_golden(golden_instance):
    sset = golden_instance
    space = sset.space
    basis = compute_pod(sset, space)
    assert snapshot_guarantee_threshold(sset, basis) == 1


def test_snapshot_bounds_below_threshold_not_asserted():
    # shrinking the weights inflates the coefficient norms, pushing the
    # guarantee threshold to full rank; below it the rows must evaluate the
    # inequality without asserting it
    space = identity_space(2)
    data = np.array([[1.0, 1.0], [0.0, 1.0]])
    sset = make_snapshot_set(data, np.array([0.01, 0.01]), space=space)
    basis = compute_pod(sset, space)
    assert snapshot_guarantee_threshold(sset, basis) == 2

    out1 = check_snapshot_bounds(sset, basis, 1)
    assert out1["r0"] == 2 and not out1["guaranteed"]
    rep = out1["reports"][0]
    assert rep.identity_id == "snap_pod_x"
    assert rep.passed  # passes by policy, not by the inequality
    assert rep.info["guaranteed"] is False
    assert rep.info["holds"] is False  # the raw inequality genuinely fails

    out2 = check_snapshot_bounds(sset, basis, 2)
    assert out2["guaranteed"]
    rep2 = out2["reports"][0]
    assert rep2.passed and rep2.info["guaranteed"] is True
    assert "holds" not in rep2.info


def test_snapshot_bounds_unattainable_threshold():
    # continuous-weight trajectory: each weight is about 1/40, so no
    # computable r captures the coefficients and r0 comes back None
    inst = make_embedding_instance(33, 1)
    basis = compute_pod(inst["set"], inst["space_x"])
    assert snapshot_guarantee_threshold(inst["set"], basis) is None
    out = check_snapshot_bounds(inst["set"], basis, 1)
    assert out["r0"] is None and not out["guaranteed"]
    assert all(rep.passed for rep in out["reports"])
    assert all("holds" in rep.info for rep in out["reports"])


def test_snapshot_bounds_row_structure():
    inst = random_instance(8, 6, seed=21)
    basis = compute_pod(inst["set"], inst["space_x"])
    r = min(3, basis.rank)
    proj = mapped_orthogonal_projector(basis, inst["map"], r)
    out = check_snapshot_bounds(inst["set"], basis, r, inst["map"], proj)
    ids = [rep.identity_id for rep in out["reports"]]
    assert ids == ["snap_pod_x", "snap_proj_y", "snap_pod_x_mapped", "snap_pullback_x"]
    mapless = check_snapshot_bounds(inst["set"], basis, r)
    assert [rep.identity_id for rep in mapless["reports"]] == ["snap_pod_x"]


def test_identity_map_reduces_to_ambient(golden_instance):
    # under the identity map the mapped and projected identities collapse
    # onto the plain ambient one
    sset = golden_instance
    space = sset.space
    basis = compute_pod(sset, space)
    idmap = identity_map(space)
    proj = mapped_orthogonal_projector(basis, idmap, 1)
    base = check_pod_error(sset, basis, 1)
    mapped = check_mapped_pod_error(sset, basis, idmap, 1)
    projected = check_projected_error(sset, basis, idmap, proj, 1)
    pulled = check_pullback_error(sset, basis, idmap, proj, 1)
    for rep in (mapped, projected, pulled):
        assert rep.passed
        assert rep.lhs == pytest.approx(base.lhs, rel=1e-12, abs=1e-14)
        assert rep.rhs == pytest.approx(base.rhs, rel=1e-12, abs=1e-14)


def test_identities_random_instances():
    for seed in (31, 32, 33):
        inst = random_instance(9, 7, seed=seed)
        sset, space, lmap = inst["set"], inst["space_x"], inst["map"]
        basis = compute_pod(sset, space)
        for r in range(1, basis.rank + 1):
            proj = mapped_orthogonal_projector(basis, lmap, r)
            reports = [
                check_pod_error(sset, basis, r),
                check_mapped_pod_error(sset, basis, lmap, r),
                check_projected_error(sset, basis, lmap, proj, r),
                check_pullback_error(sset, basis, lmap, proj, r),
            ]
            for rep in reports:
                assert rep.passed, f"{rep.identity_id} r={r} rel={rep.rel_diff:.2e}"


def test_pod_error_direct_recomputation():
    # recompute the actual side by looping over snapshots one at a time
    inst = random_instance(7, 5, seed=41)
    sset, space = inst["set"], inst["space_x"]
    basis = compute_pod(sset, space)
    proj = pod_projector(basis, 2)
    total = 0.0
    for ell in range(sset.count):
        w = sset.data[:, ell]
        pw = proj.range_basis @ (proj.dual_basis.T @ (space.gram @ w))
        total += sset.weights[ell] * norm(space, w - pw) ** 2
    rep = check_pod_error(sset, basis, 2)
    assert rep.lhs == pytest.approx(total, rel=1e-12)


def test_hs_identities_pass_and_match_weighted_energy():
    inst = random_instance(8, 6, seed=51)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset, inst["space_x"])
    r = 3
    proj = mapped_orthogonal_projector(basis, lmap, r)
    reports = check_hs_identities(sset, basis, lmap, proj, r)
    assert [rep.identity_id for rep in reports] == [
        "hs_pod_x_mapped",
        "hs_proj_y",
        "hs_pullback_x",
    ]
    for rep in reports:
        assert rep.passed
    # operator-level actual side equals the data-level weighted energy
    mapped = check_mapped_pod_error(sset, basis, lmap, r)
    assert reports[0].lhs == pytest.approx(mapped.lhs, rel=1e-11)
    projected = check_projected_error(sset, basis, lmap, proj, r)
    assert reports[1].lhs == pytest.approx(projected.lhs, rel=1e-11)
    pulled = check_pullback_error(sset, basis, lmap, proj, r)
    assert reports[2].lhs == pytest.approx(pulled.lhs, rel=1e-11)


def test_hs_identities_two_rows_without_inverse():
    inst = random_instance(8, 6, seed=52, invertible=False, map_rank=6)
    basis = compute_pod(inst["set"], inst["space_x"])
    proj = mapped_orthogonal_projector(basis, inst["map"], 2)
    reports = check_hs_identities(inst["set"], basis, inst["map"], proj, 2)
    assert len(reports) == 2


def test_pointwise_single_snapshot_matches_range_residual(golden_instance):
    # g = e_ell / weight_ell reproduces snapshot ell, so under the identity
    # map the codomain projection error is the ambient residual
    sset = golden_instance
    space = sset.space
    basis = compute_pod(sset, space)
    idmap = identity_map(space)
    proj = mapped_orthogonal_projector(basis, idmap, 1)
    g = np.array([0.0, 1.0]) / sset.weights[1]
    rep = check_pointwise("proj_y", sset, basis, g, 1, idmap, proj)
    exact, _ = check_range_residual(sset, basis, 1, 1)
    assert rep.passed
    assert rep.lhs == pytest.approx(exact.lhs, rel=1e-12)


def test_pointwise_kinds_and_cs_bound():
    inst = random_instance(9, 7, seed=61)
    sset, lmap = inst["set"], inst["map"]
    basis = compute_pod(sset, inst["space_x"])
    r = 3
    proj = mapped_orthogonal_projector(basis, lmap, r)
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = rng.standard_normal(sset.count)
        for kind in ("proj_y", "composite_y", "composite_x"):
            rep = check_pointwise(kind, sset, basis, g, r, lmap, proj)
            assert rep.passed, f"{kind} lhs={rep.lhs:.3e} rhs={rep.rhs:.3e}"
            # the Cauchy-Schwarz variant can only be looser
            assert rep.info["cs_rhs"] >= rep.rhs - 1e-13
            assert rep.info["cs_passed"]


def test_pointwise_guards():
    inst = random_instance(6, 4, seed=62)
    basis = compute_pod(inst["set"], inst["space_x"])
    lmap = inst["map"]
    proj = mapped_orthogonal_projector(basis, lmap, 2)
    g = np.zeros(4)
    with pytest.raises(DimensionMismatch):
        check_pointwise("proj_y", inst["set"], basis, np.zeros(3), 2, lmap, proj)
    with pytest.raises(ProvenanceMismatch):
        check_pointwise("proj_y", inst["set"], basis, g, 2, lmap, None)
    with pytest.raises(IndexOutOfRange):
        check_pointwise("nonsense", inst["set"], basis, g, 2, lmap, proj)
    flat = random_instance(6, 4, seed=63, invertible=False, map_rank=4)
    fbasis = compute_pod(flat["set"], flat["space_x"])
    with pytest.raises(NotInvertible):
        check_pointwise("composite_y", flat["set"], fbasis, g, 2, flat["map"])


def test_projector_mismatch_rejected():
    inst = random_instance(7, 5, seed=64)
    basis = compute_pod(inst["set"], inst["space_x"])
    lmap = inst["map"]
    proj_r2 = mapped_orthogonal_projector(basis, lmap, 2)
    with pytest.raises(ProvenanceMismatch):
        check_projected_error(inst["set"], basis, lmap, proj_r2, 3)


def test_sweep_schema():
    inst = random_instance(8, 6, seed=71)
    basis = compute_pod(inst["set"], inst["space_x"])
    reports = sweep(inst["set"], basis, inst["map"], [1, 3])
    assert len(reports) == 8
    ids = [rep.identity_id for rep in reports]
    assert ids == ["pod_x", "pod_x_mapped", "proj_y", "pullback_x"] * 2
    assert [rep.r for rep in reports] == [1, 1, 1, 1, 3, 3, 3, 3]
    assert all(rep.passed for rep in reports)


def test_build_codomain_projector_families():
    inst = make_embedding_instance(17, 3)
    basis = compute_pod(inst["set"], inst["space_x"])
    for family, form in (
        ("orthogonal", None),
        ("ritz", inst["form"]),
        ("pushforward", None),
    ):
        proj = build_codomain_projector(basis, inst["map"], 3, family, form)
        assert proj.r == 3
    with pytest.raises(ProvenanceMismatch):
        build_codomain_projector(basis, inst["map"], 3, "ritz", None)
    with pytest.raises(IndexOutOfRange):
        build_codomain_projector(basis, inst["map"], 3, "sideways", None)


def test_report_round_trip(tmp_path):
    inst = random_instance(7, 5, seed=81)
    basis = compute_pod(inst["set"], inst["space_x"])
    reports = sweep(inst["set"], basis, inst["map"], [1, 2])

    jpath = str(tmp_path / "out.json")
    write_report_json(reports, jpath, extra={"note": "round-trip"})
    back = read_report(jpath)
    assert len(back) == len(reports)
    for row, rep in zip(back, reports):
        assert row["identity_id"] == rep.identity_id
        assert row["r"] == rep.r
        assert row["actual"] == pytest.approx(rep.lhs, rel=1e-15)
        assert row["passed"] == rep.passed

    cpath = str(tmp_path / "out.csv")
    write_report_csv(reports, cpath)
    back_csv = read_report(cpath)
    assert len(back_csv) == len(reports)
    for row, rep in zip(back_csv, reports):
        assert row["identity_id"] == rep.identity_id
        assert row["formula"] == pytest.approx(rep.rhs, rel=1e-15)
    with open(cpath) as fh:
        header = next(csv.reader(fh))
    assert header[:4] == ["identity_id", "r", "actual", "formula"]


def test_read_report_missing_file(tmp_path):
    with pytest.raises(MissingDataFile):
        read_report(str(tmp_path / "absent.json"))


# -- scale-aware floors -------------------------------------------------------

SCALES = (1e-8, 1.0, 1e8)


def _scaled(sset, alpha):
    return make_snapshot_set(sset.data * alpha, sset.weights, space=sset.space)


def _battery(sset, basis, lmap, levels):
    reports, _ = run_battery(sset, basis, lmap, "orthogonal", None, levels, None, 0)
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
