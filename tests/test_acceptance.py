"""Acceptance battery.

Nine criteria, each exercised at its stated tolerance by one test below; the
final test prints one pass/fail line per criterion straight to the terminal.
Pools of random instances are seeded and therefore reproducible; every
instance is constructed with an unambiguous numerical rank so that rank
comparisons and full-rank decay statements are decidable.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from podkit.error_lab import (
    check_hs_identities,
    check_mapped_pod_error,
    check_pod_error,
    check_pointwise,
    check_projected_error,
    check_pullback_error,
    check_range_residual,
    check_snapshot_bounds,
    snapshot_guarantee_threshold,
    sweep,
)
from podkit.fem import assemble_fem_1d
from podkit.fhn_gen import (
    FhnConfig,
    make_embedding_instance,
    make_fhn_instance,
    random_instance,
)
from podkit.linear_map import induced_snapshots, rank_relation_check
from podkit.pod_engine import (
    compute_pod,
    hs_norm_sq,
    optimality_oracle,
    spectrum_gapped,
)
from podkit.projector import (
    dense_matrix,
    form_ellipticity,
    mapped_orthogonal_projector,
    op_norm,
    pod_projector,
    pullback_projector,
    pushforward_projector,
    ritz_projector,
)

from conftest import GOLDEN_LAMBDA_2

RESULTS = []


@contextmanager
def certify(num, label):
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num} ({label}): FAIL")
        raise
    else:
        RESULTS.append(f"criterion {num} ({label}): PASS")


def test_criterion_1_identity_suite():
    # every exact error identity, on 100 seeded random instances (half with
    # certified-invertible maps), at every admissible truncation level,
    # within 1e-8 relative, in under 30 seconds
    with certify(1, "identity suite, 100 random instances, every r"):
        t0 = time.perf_counter()
        checked = 0
        for i in range(100):
            shape_rng = np.random.default_rng(2000 + i)
            dim = int(shape_rng.integers(3, 41))
            s = int(shape_rng.integers(2, 26))
            invertible = i % 2 == 0
            inst = random_instance(dim, s, seed=3000 + i, invertible=invertible)
            sset, lmap = inst["set"], inst["map"]
            basis = compute_pod(sset, inst["space_x"])
            for r in range(1, basis.rank + 1):
                proj = mapped_orthogonal_projector(basis, lmap, r)
                reports = [
                    check_pod_error(sset, basis, r),
                    check_mapped_pod_error(sset, basis, lmap, r),
                    check_projected_error(sset, basis, lmap, proj, r),
                ]
                if invertible:
                    reports.append(
                        check_pullback_error(sset, basis, lmap, proj, r)
                    )
                reports.extend(check_hs_identities(sset, basis, lmap, proj, r))
                for ell in range(sset.count):
                    exact, _ = check_range_residual(sset, basis, r, ell)
                    reports.append(exact)
                for rep in reports:
                    assert rep.passed, (
                        f"instance {i} r={r} {rep.identity_id} "
                        f"rel={rep.rel_diff:.3e}"
                    )
                checked += len(reports)
        elapsed = time.perf_counter() - t0
        assert checked > 10000
        assert elapsed < 30.0, f"identity suite took {elapsed:.1f} s"


def test_criterion_2_optimality(golden_instance):
    # the decomposition residual never loses to a random competitor basis,
    # and the 2x2 hand instance reproduces its closed-form rank-1 error
    with certify(2, "optimality against 100 random competitors"):
        sset = golden_instance
        res = optimality_oracle(sset, sset.space, 1, trials=100, seed=0)
        assert res["all_ge"]
        assert res["pod_error"] == pytest.approx(GOLDEN_LAMBDA_2, abs=1e-12)
        assert res["min_competitor"] >= res["pod_error"] - 1e-12
        for i in range(20):
            shape_rng = np.random.default_rng(4000 + i)
            dim = int(shape_rng.integers(3, 16))
            s = int(shape_rng.integers(2, 12))
            inst = random_instance(dim, s, seed=5000 + i)
            basis = compute_pod(inst["set"], inst["space_x"])
            r = max(1, basis.rank // 2)
            res = optimality_oracle(
                inst["set"], inst["space_x"], r, trials=100, seed=i
            )
            assert res["all_ge"], f"instance {i} lost to a competitor"
            assert res["min_competitor"] >= res["pod_error"] - 1e-12


def test_criterion_3_energy_identity(golden_instance, fhn_instance):
    # the eigenvalue sum equals the weighted data energy on every instance
    # family, including the trajectory data
    with certify(3, "energy identity at 1e-10 relative"):
        pool = [(golden_instance, golden_instance.space)]
        for i in range(20):
            shape_rng = np.random.default_rng(4100 + i)
            dim = int(shape_rng.integers(3, 30))
            s = int(shape_rng.integers(2, 20))
            inst = random_instance(dim, s, seed=5100 + i)
            pool.append((inst["set"], inst["space_x"]))
        emb = make_embedding_instance(17, 1)
        pool.append((emb["set"], emb["space_x"]))
        pool.append((fhn_instance["set"], fhn_instance["space_x"]))
        for sset, space in pool:
            basis = compute_pod(sset, space)
            energy = hs_norm_sq(sset, space)
            assert abs(float(np.sum(basis.eigenvalues)) - energy) <= 1e-10 * energy


def test_criterion_4_rank_relations(fhn_small_instance):
    # image rank never exceeds source rank; equality on invertible maps;
    # the derivative map drops the rank strictly (constants in its kernel)
    with certify(4, "rank relations on 200 instances and the trajectory"):
        for i in range(200):
            shape_rng = np.random.default_rng(6000 + i)
            dim = int(shape_rng.integers(2, 13))
            s = int(shape_rng.integers(2, 11))
            invertible = i % 2 == 0
            kwargs = {}
            if not invertible:
                if i % 4 == 1:
                    kwargs["map_rank"] = max(1, dim - int(shape_rng.integers(1, 3)))
                else:
                    kwargs["data_rank"] = max(1, min(dim, s) - 1)
            inst = random_instance(
                dim, s, seed=7000 + i, invertible=invertible, **kwargs
            )
            basis_x = compute_pod(inst["set"], inst["space_x"])
            induced = induced_snapshots(inst["map"], inst["set"])
            basis_y = compute_pod(induced, inst["map"].codomain)
            assert spectrum_gapped(basis_x) and spectrum_gapped(basis_y)
            rel = rank_relation_check(basis_x, basis_y, inst["map"])
            assert rel["inequality_holds"], f"instance {i}"
            if invertible:
                assert rel["equality_holds"], f"instance {i}"

        inst = fhn_small_instance
        basis_x = compute_pod(inst["set"], inst["space_x"])
        induced = induced_snapshots(inst["map"], inst["set"])
        basis_y = compute_pod(induced, inst["map"].codomain)
        assert spectrum_gapped(basis_x) and spectrum_gapped(basis_y)
        rel = rank_relation_check(basis_x, basis_y, inst["map"])
        assert rel["inequality_holds"]
        assert rel["rank_image"] < rel["rank_source"]
        assert rel["rank_source"] == 12 and rel["rank_image"] == 10


def test_criterion_5_bounds_suite():
    # pointwise tail bounds for 20 random coefficient vectors per instance,
    # the per-snapshot exact residual formula with its singular-value cap
    # for every snapshot, and the guaranteed per-snapshot capture bounds
    # from the threshold upward
    with certify(5, "pointwise and per-snapshot bounds"):
        for i in range(16):
            shape_rng = np.random.default_rng(8000 + i)
            dim = int(shape_rng.integers(4, 21))
            s = int(shape_rng.integers(3, dim + 1))  # s <= dim: full capture
            invertible = i % 8 < 5
            inst = random_instance(dim, s, seed=9000 + i, invertible=invertible)
            sset, lmap = inst["set"], inst["map"]
            basis = compute_pod(sset, inst["space_x"])
            r_mid = max(1, basis.rank // 2)
            proj_mid = mapped_orthogonal_projector(basis, lmap, r_mid)

            g_rng = np.random.default_rng(100 + i)
            kinds = ("proj_y", "composite_y", "composite_x") if invertible else ("proj_y",)
            for _ in range(20):
                g = g_rng.standard_normal(sset.count)
                for kind in kinds:
                    rep = check_pointwise(kind, sset, basis, g, r_mid, lmap, proj_mid)
                    assert rep.passed, f"instance {i} {kind}"

            for r in sorted({1, r_mid, basis.rank}):
                for ell in range(sset.count):
                    exact, cap = check_range_residual(sset, basis, r, ell)
                    assert exact.passed, f"instance {i} r={r} ell={ell}"
                    assert cap.passed, f"instance {i} r={r} ell={ell}"

            r0 = snapshot_guarantee_threshold(sset, basis)
            assert r0 is not None  # full-rank square coefficient capture
            for r in sorted({r0, basis.rank}):
                proj_r = mapped_orthogonal_projector(basis, lmap, r)
                out = check_snapshot_bounds(sset, basis, r, lmap, proj_r)
                assert out["guaranteed"]
                expected_rows = 4 if invertible else 3
                assert len(out["reports"]) == expected_rows
                for rep in out["reports"]:
                    assert rep.info["guaranteed"] is True
                    assert rep.passed, f"instance {i} r={r} {rep.identity_id}"


def test_criterion_6_projector_diagnostics():
    # orthogonal families are exact contractions, the form-determined family
    # obeys its continuity-to-ellipticity budget uniformly in r, and every
    # family is idempotent
    with certify(6, "projector norms and idempotency"):
        for i in range(8):
            inst = random_instance(9, 7, seed=9500 + i)
            basis = compute_pod(inst["set"], inst["space_x"])
            lmap = inst["map"]
            for r in range(1, basis.rank + 1):
                pod = pod_projector(basis, r)
                orth = mapped_orthogonal_projector(basis, lmap, r)
                push = pushforward_projector(lmap, basis, r)
                pull = pullback_projector(lmap, orth, r)
                assert op_norm(pod) == pytest.approx(1.0, abs=1e-9)
                assert op_norm(orth) == pytest.approx(1.0, abs=1e-9)
                for proj in (pod, orth, push, pull):
                    P = dense_matrix(proj)
                    assert np.allclose(P @ P, P, atol=1e-9)

        for nodes in (17, 33):
            mesh = assemble_fem_1d(nodes)
            inst = make_embedding_instance(nodes, 3)
            basis = compute_pod(inst["set"], inst["space_x"])
            conv_form = (mesh.stiffness + mesh.mass + 0.5 * mesh.convection).toarray()
            for form in (inst["form"], conv_form):
                c_low, c_high = form_ellipticity(inst["map"].codomain, form)
                budget = c_high / c_low + 1e-8
                for r in range(1, basis.rank + 1):
                    proj = ritz_projector(basis, inst["map"], form, r)
                    assert op_norm(proj) <= budget, f"nodes={nodes} r={r}"
                    P = dense_matrix(proj)
                    assert np.allclose(P @ P, P, atol=1e-9)


def test_criterion_7_flagship_sweep():
    # the full trajectory experiment: 100 nodes on (0, 10), truncation at 4
    # and 12, three identity rows per level, each identity tight to 1e-6,
    # and the absolute error magnitudes landing on the known scales for
    # this configuration within a factor of three
    with certify(7, "flagship sweep at r = 4 and r = 12"):
        t0 = time.perf_counter()
        inst = make_fhn_instance(FhnConfig())
        basis = compute_pod(inst["set"], inst["space_x"])
        reports = sweep(inst["set"], basis, inst["map"], [4, 12])
        elapsed = time.perf_counter() - t0

        assert [rep.identity_id for rep in reports] == [
            "pod_x", "pod_x_mapped", "proj_y",
            "pod_x", "pod_x_mapped", "proj_y",
        ]
        known_scales = {
            (4, "pod_x"): 6.2755e-5,
            (4, "pod_x_mapped"): 2.1584e-1,
            (4, "proj_y"): 9.8536e-3,
            (12, "pod_x"): 4.1453e-8,
            (12, "pod_x_mapped"): 2.2536e-4,
            (12, "proj_y"): 1.2664e-5,
        }
        for rep in reports:
            assert rep.passed
            assert rep.rel_diff <= 1e-6, f"{rep.identity_id} r={rep.r}"
            scale = known_scales[(rep.r, rep.identity_id)]
            ratio = rep.lhs / scale
            assert 1.0 / 3.0 < ratio < 3.0, (
                f"{rep.identity_id} r={rep.r}: {rep.lhs:.4e} vs {scale:.4e}"
            )
        assert elapsed < 60.0, f"flagship sweep took {elapsed:.1f} s"


def test_criterion_8_fem_embedding_examples():
    # the two identity-embedding layouts and the form-determined variant on
    # two mesh sizes; with the form equal to the codomain inner product the
    # form-determined projector coincides with the orthogonal one, while a
    # convection-perturbed form separates them and both keep the projected
    # identity exact
    with certify(8, "FEM embedding examples on two meshes"):
        for nodes in (17, 33):
            mesh = assemble_fem_1d(nodes)
            for which in (1, 2, 3):
                inst = make_embedding_instance(nodes, which)
                sset, lmap = inst["set"], inst["map"]
                basis = compute_pod(sset, inst["space_x"])
                r_values = sorted({1, max(1, basis.rank // 2), basis.rank})
                reports = sweep(sset, basis, lmap, r_values)
                for rep in reports:
                    assert rep.passed, (
                        f"nodes={nodes} which={which} {rep.identity_id} "
                        f"r={rep.r} rel={rep.rel_diff:.3e}"
                    )

            inst = make_embedding_instance(nodes, 3)
            basis = compute_pod(inst["set"], inst["space_x"])
            r = min(4, basis.rank)
            orth = mapped_orthogonal_projector(basis, inst["map"], r)
            ritz_same = ritz_projector(basis, inst["map"], inst["form"], r)
            # form == codomain inner product: identical projector
            assert np.allclose(
                dense_matrix(ritz_same), dense_matrix(orth), atol=1e-10
            )
            conv_form = (mesh.stiffness + mesh.mass + 0.5 * mesh.convection).toarray()
            ritz_conv = ritz_projector(basis, inst["map"], conv_form, r)
            dist = np.linalg.norm(dense_matrix(ritz_conv) - dense_matrix(orth))
            assert dist > 1e-6
            for proj in (orth, ritz_conv):
                rep = check_projected_error(
                    inst["set"], basis, inst["map"], proj, r
                )
                assert rep.passed, f"nodes={nodes} family={proj.family}"


def test_criterion_9_monotone_decay(golden_instance):
    # every identity's formula side is nonincreasing in r and vanishes at
    # full rank, relative to the data energy
    with certify(9, "monotone decay to zero at full rank"):
        pool = [(golden_instance, golden_instance.space, None)]
        for i in range(20):
            shape_rng = np.random.default_rng(4200 + i)
            dim = int(shape_rng.integers(3, 16))
            s = int(shape_rng.integers(2, 12))
            invertible = i % 2 == 0
            inst = random_instance(dim, s, seed=5200 + i, invertible=invertible)
            pool.append((inst["set"], inst["space_x"], inst["map"]))
        emb = make_embedding_instance(17, 1)
        pool.append((emb["set"], emb["space_x"], emb["map"]))

        for sset, space, lmap in pool:
            basis = compute_pod(sset, space)
            energy = hs_norm_sq(sset, space)
            floor = 1e-12 * energy
            series = {}
            for r in range(1, basis.rank + 1):
                reports = [check_pod_error(sset, basis, r)]
                if lmap is not None:
                    proj = mapped_orthogonal_projector(basis, lmap, r)
                    reports.append(check_mapped_pod_error(sset, basis, lmap, r))
                    reports.append(
                        check_projected_error(sset, basis, lmap, proj, r)
                    )
                    if lmap.inverse is not None:
                        reports.append(
                            check_pullback_error(sset, basis, lmap, proj, r)
                        )
                for rep in reports:
                    series.setdefault(rep.identity_id, []).append(rep.rhs)
            for identity_id, values in series.items():
                for a, b in zip(values, values[1:]):
                    assert b <= a + floor, f"{identity_id} rose: {a} -> {b}"
                assert values[-1] <= floor, (
                    f"{identity_id} ends at {values[-1]:.3e} (floor {floor:.3e})"
                )


def test_zz_criteria_summary(capsys):
    with capsys.disabled():
        print()
        for line in RESULTS:
            print("[acceptance] " + line)
    assert len(RESULTS) == 9, "not every criterion ran"
    assert all(line.endswith("PASS") for line in RESULTS)
