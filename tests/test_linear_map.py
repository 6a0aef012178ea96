import json
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from podkit.error_lab import battery_level, codomain_projectors
from podkit.errors import (
    DimensionMismatch,
    NotInvertible,
    ProvenanceMismatch,
)
from podkit.fhn_gen import random_instance
from podkit.gram_space import identity_space, inner, make_space
from podkit.linear_map import (
    MATRIX_CSV_ARRAYS,
    adjoint,
    apply,
    apply_inverse,
    build_map_from_spec,
    identity_map,
    induced_snapshots,
    inverse_adjoint,
    make_map,
    rank_relation_check,
)
from podkit.pod_engine import compute_pod
from podkit.snapshot_io import make_snapshot_set, write_matrix_csv


def spaces(rng, n, m):
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((m, m))
    return (
        make_space((A.T @ A + n * np.eye(n)) / n),
        make_space((B.T @ B + m * np.eye(m)) / m),
    )


def test_certified_inverse_round_trip():
    rng = np.random.default_rng(0)
    dom, codom = spaces(rng, 5, 5)
    M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    lmap = make_map(dom, codom, M, invertible=True)
    x = rng.standard_normal(5)
    assert np.allclose(apply_inverse(lmap, apply(lmap, x)), x, atol=1e-10)


def test_singular_matrix_rejected():
    dom = identity_space(3)
    M = np.zeros((3, 3))
    M[0, 0] = 1.0
    with pytest.raises(NotInvertible):
        make_map(dom, dom, M, invertible=True)


def test_ill_conditioned_rejected():
    dom = identity_space(3)
    M = np.diag([1.0, 1.0, 1e-14])
    with pytest.raises(NotInvertible):
        make_map(dom, dom, M, invertible=True)


def test_bad_explicit_inverse_rejected():
    dom = identity_space(2)
    M = np.diag([2.0, 3.0])
    with pytest.raises(NotInvertible):
        make_map(dom, dom, M, inverse=np.diag([0.5, 0.5]))


def test_rectangular_never_invertible():
    dom = identity_space(4)
    codom = identity_space(3)
    M = np.ones((3, 4))
    with pytest.raises(NotInvertible):
        make_map(dom, codom, M, invertible=True)
    lmap = make_map(dom, codom, M)
    assert lmap.inverse is None
    with pytest.raises(NotInvertible):
        apply_inverse(lmap, np.ones(3))


def test_adjoint_diag_oracle():
    # diagonal everything: L* = diag(a_from)^{-1} diag(d) diag(a_to)
    d_from = np.array([2.0, 4.0])
    d_to = np.array([3.0, 6.0])
    dom = make_space(np.diag(d_from))
    codom = make_space(np.diag(d_to))
    d = np.array([5.0, 7.0])
    lmap = make_map(dom, codom, np.diag(d), invertible=True)
    ref = np.diag(d * d_to / d_from)
    assert np.allclose(adjoint(lmap), ref)
    # pairing check
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    assert inner(codom, apply(lmap, u), v) == pytest.approx(
        inner(dom, u, adjoint(lmap) @ v)
    )


def test_inverse_adjoint_is_adjoint_of_inverse():
    rng = np.random.default_rng(2)
    dom, codom = spaces(rng, 4, 4)
    M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    lmap = make_map(dom, codom, M, invertible=True)
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    lhs = inner(dom, apply_inverse(lmap, v), u)
    rhs = inner(codom, v, inverse_adjoint(lmap) @ u)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_induced_snapshots_preserve_weights():
    rng = np.random.default_rng(3)
    dom, codom = spaces(rng, 3, 3)
    lmap = make_map(dom, codom, np.diag([1.0, 2.0, 3.0]), invertible=True)
    sset = make_snapshot_set(
        rng.standard_normal((3, 5)), rng.uniform(0.5, 1.5, 5), space=dom
    )
    mapped = induced_snapshots(lmap, sset)
    assert np.array_equal(mapped.weights, sset.weights)
    assert np.allclose(mapped.data, lmap.matrix @ sset.data)
    assert mapped.space.dim == codom.dim


def test_rank_relation_invertible(golden_instance):
    space = golden_instance.space
    lmap = make_map(space, space, np.diag([1.0, 2.0]), invertible=True)
    bx = compute_pod(golden_instance, space)
    by = compute_pod(induced_snapshots(lmap, golden_instance), space)
    report = rank_relation_check(bx, by, lmap)
    assert report["rank_source"] == 2
    assert report["rank_image"] == 2
    assert report["equality_expected"] and report["equality_holds"]
    assert report["image_full_rank"]
    assert report["passed"]


def test_rank_relation_rank_deficient(golden_instance):
    space = golden_instance.space
    lmap = make_map(space, space, np.array([[1.0, 0.0], [0.0, 0.0]]))
    bx = compute_pod(golden_instance, space)
    by = compute_pod(induced_snapshots(lmap, golden_instance), space)
    report = rank_relation_check(bx, by, lmap)
    assert report["rank_image"] == 1
    assert not report["image_full_rank"]
    assert report["inequality_holds"]
    assert not report["equality_expected"]
    assert report["passed"]


def test_rank_relation_zero_map(golden_instance):
    space = golden_instance.space
    lmap = make_map(space, space, np.zeros((2, 2)))
    by = compute_pod(induced_snapshots(lmap, golden_instance), space)
    assert by.rank == 0


def test_rank_relation_drop_tol_provenance(golden_instance):
    space = golden_instance.space
    lmap = identity_map(space)
    bx = compute_pod(golden_instance, space, drop_tol=1e-12)
    by = compute_pod(induced_snapshots(lmap, golden_instance), space, drop_tol=1e-10)
    with pytest.raises(ProvenanceMismatch):
        rank_relation_check(bx, by, lmap)


def test_rank_equality_on_random_invertible_instances():
    for seed in range(25):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 12))
        s = int(rng.integers(2, 16))
        dom, codom = spaces(rng, n, n)
        sset = make_snapshot_set(
            rng.standard_normal((n, s)), rng.uniform(0.5, 2.0, s), space=dom
        )
        M = rng.standard_normal((n, n)) + n * np.eye(n)
        lmap = make_map(dom, codom, M, invertible=True)
        bx = compute_pod(sset, dom)
        by = compute_pod(induced_snapshots(lmap, sset), codom)
        report = rank_relation_check(bx, by, lmap)
        assert report["equality_holds"], f"seed {seed}"


def _diag_spec_map(d, space):
    sset = make_snapshot_set(np.ones((len(d), 2)), np.ones(2), space=space)
    return build_map_from_spec(json.dumps({"diag": list(d)}), sset)[0]


def test_diag_spec_is_sparse_and_certifies_like_the_dense_map():
    inst = random_instance(8, 6, seed=5)
    sset, space = inst["set"], inst["space_x"]
    d = np.random.default_rng(1).uniform(0.5, 3.0, 8) * np.resize([1.0, -1.0], 8)
    lmap = _diag_spec_map(d, space)
    dense = make_map(space, space, np.diag(d), invertible=True)
    assert sparse.issparse(lmap.matrix) and sparse.issparse(lmap.inverse)
    assert np.array_equal(lmap.matrix.toarray(), np.diag(d))
    assert np.allclose(lmap.inverse.toarray(), dense.inverse, rtol=1e-14, atol=0)
    assert np.allclose(adjoint(lmap), adjoint(dense), rtol=1e-12, atol=0)
    basis = compute_pod(sset, space)
    for r in range(1, basis.rank + 1):
        got, want = (
            battery_level(sset, basis, r, m, codomain_projectors(basis, m)(r))
            for m in (lmap, dense)
        )
        assert [rep.identity_id for rep in got] == [rep.identity_id for rep in want]
        for a, b in zip(got, want):
            assert a.passed and b.passed, (r, a.identity_id)
            assert a.lhs == pytest.approx(b.lhs, rel=1e-10, abs=a.info["floor"])
            assert a.rhs == pytest.approx(b.rhs, rel=1e-10, abs=a.info["floor"])
    # a zero entry: no inverse
    singular = _diag_spec_map(np.where(np.arange(8) == 3, 0.0, d), space)
    assert singular.inverse is None


def test_ill_conditioned_diag_spec_is_refused():
    space = identity_space(3)
    assert _diag_spec_map([1.0, 2e-12, 1.0], space).inverse is not None  # condition 5e11
    with pytest.raises(NotInvertible, match="condition number"):
        _diag_spec_map([1.0, 1e-13, 1.0], space)


def test_diag_spec_of_30000_entries_builds_without_an_n_by_n_array():
    # the dense map, its inverse and the certificate took 4 n^2 doubles
    # (7.2 GB each at this size); the sparse ones take O(n)
    space = identity_space(30000)
    d = np.linspace(1.0, 2.0, 30000)
    tracemalloc.start()
    try:
        lmap = _diag_spec_map(d, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lmap.inverse is not None
    assert peak < 16e6


@pytest.mark.parametrize("invertible", [False, True])
def test_matrix_map_peaks_within_its_counted_arrays(tmp_path, invertible):
    # the budget counts MATRIX_CSV_ARRAYS[invertible] dense n x n arrays:
    # the traced peak of reading the CSV and building (and certifying) the map
    n = 600  # loadtxt's fixed buffers are about 1.4 MB, 0.5 n^2 doubles here
    rng = np.random.default_rng(3)
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, np.eye(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n))
    sset = make_snapshot_set(np.ones((n, 2)), np.ones(2), space=identity_space(n))
    spec = json.dumps({"matrix": path, "invertible": invertible})
    tracemalloc.start()
    try:
        lmap = build_map_from_spec(spec, sset)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lmap.inverse is not None) == invertible
    assert peak < 8 * MATRIX_CSV_ARRAYS[invertible] * n * n
