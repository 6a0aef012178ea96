import dataclasses

import numpy as np
import pytest

from podkit.errors import (
    DimensionMismatch,
    NotInvertible,
    ProvenanceMismatch,
)
from podkit.fhn_gen import make_embedding_instance
from podkit.gram_space import identity_space, inner, make_space
from podkit.linear_map import (
    adjoint,
    apply,
    apply_inverse,
    identity_map,
    induced_snapshots,
    inverse_adjoint,
    is_surjective,
    make_map,
    rank_relation_check,
)
from podkit.pod_engine import compute_pod
from podkit.snapshot_io import make_snapshot_set


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


def test_is_surjective():
    dom = identity_space(3)
    codom = identity_space(2)
    assert is_surjective(make_map(dom, codom, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])))
    assert not is_surjective(make_map(dom, codom, np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])))


def test_is_surjective_shortcut_agrees_with_svd_count():
    # a map with a certified inverse answers without the SVD; dropping the
    # inverse forces the singular-value count, which must give the same answer
    rng = np.random.default_rng(12)
    maps = []
    for n in (1, 3, 8, 20):
        dom, codom = spaces(rng, n, n)
        M = rng.standard_normal((n, n)) + n * np.eye(n)
        maps.append(make_map(dom, codom, M, invertible=True))
        maps.append(make_map(dom, codom, M, inverse=np.linalg.inv(M)))
    maps.append(make_embedding_instance(1000, 1, seed=1)["map"])
    for lmap in maps:
        assert lmap.inverse is not None
        svd_count = is_surjective(dataclasses.replace(lmap, inverse=None))
        assert is_surjective(lmap) is svd_count is True


def test_rank_relation_invertible(golden_instance):
    space = golden_instance.space
    lmap = make_map(space, space, np.diag([1.0, 2.0]), invertible=True)
    bx = compute_pod(golden_instance, space)
    by = compute_pod(induced_snapshots(lmap, golden_instance), space)
    report = rank_relation_check(bx, by, lmap)
    assert report["rank_source"] == 2
    assert report["rank_image"] == 2
    assert report["equality_expected"] and report["equality_holds"]
    assert report["passed"]


def test_rank_relation_rank_deficient(golden_instance):
    space = golden_instance.space
    lmap = make_map(space, space, np.array([[1.0, 0.0], [0.0, 0.0]]))
    bx = compute_pod(golden_instance, space)
    by = compute_pod(induced_snapshots(lmap, golden_instance), space)
    report = rank_relation_check(bx, by, lmap)
    assert report["rank_image"] == 1
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
