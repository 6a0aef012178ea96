import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from podkit.error_lab import battery_level, certifier, rank_relation
from podkit.errors import DimensionMismatch, NotInvertible
from podkit.gram_space import Banded, identity, make_space
from podkit.linear_map import (
    MATRIX_CSV_ARRAYS,
    LinearMap,
    build_map_from_spec,
    identity_map,
    make_map,
)
from podkit.pod_engine import DEFAULT_DROP_TOL, compute_pod, image_spectrum
from podkit.snapshot_io import make_snapshot_set, write_matrix_csv

from oracles import (
    adjoint,
    apply,
    apply_inverse,
    induced_snapshots,
    inner,
    inverse_adjoint,
    make_embedding_instance,
    random_instance,
)


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
    dom = make_space(identity(3))
    M = np.zeros((3, 3))
    M[0, 0] = 1.0
    with pytest.raises(NotInvertible):
        make_map(dom, dom, M, invertible=True)


def test_ill_conditioned_rejected():
    dom = make_space(identity(3))
    M = np.diag([1.0, 1.0, 1e-14])
    with pytest.raises(NotInvertible):
        make_map(dom, dom, M, invertible=True)


def test_bad_explicit_inverse_rejected():
    dom = make_space(identity(2))
    M = np.diag([2.0, 3.0])
    with pytest.raises(NotInvertible):
        LinearMap(dom, dom, M, inverse=np.diag([0.5, 0.5]))


def _with_inverse(route, lmap, inverse):
    """lmap with its inverse replaced, by dataclasses.replace or by calling
    LinearMap directly."""
    if route == "replace":
        return dataclasses.replace(lmap, inverse=inverse)
    return LinearMap(lmap.domain, lmap.codomain, lmap.matrix, inverse)


@pytest.mark.parametrize("route", ["replace", "direct"])
def test_a_tampered_inverse_cannot_be_constructed(route):
    # an inverse wrong only on mode j has residuals of 1.1 to 6.6 against
    # the 1e-8 tolerance, so no map holding it (and no battery) is built
    inst = random_instance(10, 8, seed=78)
    lmap, basis = inst["map"], compute_pod(inst["set"])
    assert _with_inverse(route, lmap, lmap.inverse).inverse is lmap.inverse
    rng = np.random.default_rng(3)
    for j in (0, 2, 5):
        tampered = lmap.inverse + np.outer(basis.modes[:, j], rng.standard_normal(10))
        with pytest.raises(NotInvertible, match="inverse residuals"):
            _with_inverse(route, lmap, tampered)


@pytest.mark.parametrize("route", ["replace", "direct"])
def test_an_inverse_perturbed_by_1e_6_cannot_be_constructed(route):
    # residuals of 1.4e-5 against the 1e-8 tolerance
    lmap = random_instance(10, 8, seed=77)["map"]
    noise = np.random.default_rng(4).standard_normal(lmap.inverse.shape)
    with pytest.raises(NotInvertible, match="inverse residuals"):
        _with_inverse(route, lmap, lmap.inverse + 1e-6 * noise)


def test_a_map_checks_its_shapes_however_built():
    dom, codom = make_space(identity(3)), make_space(identity(2))
    lmap = identity_map(dom)
    with pytest.raises(DimensionMismatch):
        LinearMap(dom, codom, np.ones((3, 3)))
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(lmap, codomain=codom)
    with pytest.raises(NotInvertible, match="square"):
        dataclasses.replace(lmap, inverse=np.eye(2))
    with pytest.raises(NotInvertible, match="square"):
        LinearMap(dom, codom, np.ones((2, 3)), np.ones((3, 2)))


def test_rectangular_never_invertible():
    dom = make_space(identity(4))
    codom = make_space(identity(3))
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


def _relation(sset, lmap, drop_tol=DEFAULT_DROP_TOL):
    """rank_relation of the set's POD at drop_tol, and the reference: the
    full POD of the induced set at the same drop tolerance."""
    basis = compute_pod(sset, drop_tol=drop_tol)
    reference = compute_pod(induced_snapshots(lmap, sset), drop_tol=drop_tol)
    return rank_relation(certifier(sset, basis, lmap)), reference


def test_rank_relation_invertible(golden_instance):
    space = golden_instance.space
    lmap = make_map(space, space, np.diag([1.0, 2.0]), invertible=True)
    report, reference = _relation(golden_instance, lmap)
    assert {key: report[key] for key in ("rank_source", "rank_image", "passed", "decided")} == {
        "rank_source": 2, "rank_image": 2, "passed": True, "decided": True,
    }
    assert reference.rank == 2


def test_rank_relation_rank_deficient(golden_instance):
    space = golden_instance.space
    lmap = make_map(space, space, np.array([[1.0, 0.0], [0.0, 0.0]]))
    report, reference = _relation(golden_instance, lmap)
    assert report["rank_image"] == reference.rank == 1
    assert report["rank_source"] == 2
    assert report["passed"] and report["decided"]


def test_rank_relation_zero_map(golden_instance):
    # an all-zero image spectrum drops nothing above zero: rank 0, decided
    space = golden_instance.space
    report, reference = _relation(golden_instance, make_map(space, space, np.zeros((2, 2))))
    assert report["rank_image"] == reference.rank == 0
    assert report["passed"] and report["decided"]


def test_rank_relation_drop_tol_provenance():
    # both ranks are counted at the basis's drop tolerance: eigenvalues 1 and
    # 1e-11 give rank 2 at 1e-12 and rank 1 at 1e-10, on both sides
    space = make_space(identity(2))
    sset = make_snapshot_set(np.diag([1.0, 10**-5.5]), np.ones(2), space=space)
    for drop_tol, rank in ((1e-12, 2), (1e-10, 1)):
        report, reference = _relation(sset, identity_map(space), drop_tol)
        assert report["rank_source"] == report["rank_image"] == reference.rank == rank
        assert report["passed"] and report["decided"]


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
        report, reference = _relation(sset, make_map(dom, codom, M, invertible=True))
        assert report["rank_image"] == reference.rank == report["rank_source"], f"seed {seed}"
        assert report["passed"], f"seed {seed}"


def _golden_map(sset, which):
    space = sset.space
    matrix = {"invertible": np.diag([1.0, 2.0]), "rank-1": np.diag([1.0, 0.0]),
              "zero": np.zeros((2, 2))}[which]
    return make_map(space, space, matrix, invertible=which == "invertible")


@pytest.mark.parametrize(
    "instance", ["golden-invertible", "golden-rank-1", "golden-zero", "embedding-1000", "flagship"]
)
def test_image_spectrum_matches_the_induced_set_pod(golden_instance, fhn_instance, instance):
    # the image spectrum against the reference: the full POD of L W
    if instance.startswith("golden"):
        sset = golden_instance
        lmap = _golden_map(sset, instance.split("-", 1)[1])
    else:
        inst = fhn_instance if instance == "flagship" else make_embedding_instance(1000, 1, seed=1)
        sset, lmap = inst["set"], inst["map"]
    lam = image_spectrum(lmap, sset)
    relation, reference = _relation(sset, lmap)
    assert lam.shape == reference.eigenvalues.shape
    scale = max(reference.eigenvalues[0], np.finfo(float).tiny)
    assert np.max(np.abs(lam - reference.eigenvalues)) <= 1e-14 * scale
    assert relation["rank_image"] == reference.rank
    # Eckart-Young-Mirsky: past the source rank p the image tail is at most
    # the mapped source tail, and the relation is decided when that tail and
    # the codomain floor fall within the image's drop threshold (the floor
    # moves no verdict here)
    source = compute_pod(sset)
    p = source.rank
    mapped = lmap.matrix @ source.modes_full
    mode_norms = np.einsum("ij,ij->j", mapped, lmap.codomain.gram @ mapped)
    tail = source.eigenvalues[p:] @ mode_norms[p:]
    assert np.sum(reference.eigenvalues[p:]) <= tail + 1e-14 * scale
    assert relation["decided"] == (tail <= source.drop_tol * reference.eigenvalues[0])
    assert relation["decided"] == (instance != "flagship")
    if instance == "flagship":
        assert (relation["rank_source"], relation["rank_image"]) == (22, 30)
    else:
        assert relation["passed"]


@pytest.mark.parametrize(
    "instance, tail, threshold",
    [("embedding-1000", 5.95e-15, 5.37e-13), ("flagship", 5.45e-8, 5.77e-13)],
    ids=["embedding-1000", "flagship"],
)
def test_rank_relation_records_its_tail_and_threshold(fhn_instance, instance, tail, threshold):
    # decided on the embedding, undecided on the flagship: the relation
    # records the mapped source tail past p plus the codomain floor, and
    # drop_tol times the image's leading eigenvalue, so a reader sees how far
    # it was from the other decision
    inst = fhn_instance if instance == "flagship" else make_embedding_instance(1000, 1, seed=1)
    sset, lmap = inst["set"], inst["map"]
    relation, reference = _relation(sset, lmap)
    source = compute_pod(sset)
    p = source.rank
    mapped = lmap.matrix @ source.modes_full
    mode_norms = np.einsum("ij,ij->j", mapped, lmap.codomain.gram @ mapped)
    energy_y = sset.weights @ np.einsum("ij,ij->j", lmap.matrix @ sset.data,
                                        lmap.codomain.gram @ (lmap.matrix @ sset.data))
    floor = 32 * np.finfo(float).eps / 2 * energy_y
    assert relation["tail"] == pytest.approx(source.eigenvalues[p:] @ mode_norms[p:] + floor,
                                             rel=1e-6)
    assert relation["threshold"] == pytest.approx(
        source.drop_tol * reference.eigenvalues[0], rel=1e-12
    )
    assert relation["tail"] == pytest.approx(tail, rel=5e-3)
    assert relation["threshold"] == pytest.approx(threshold, rel=5e-3)
    assert relation["decided"] == (instance != "flagship")


def _diag_spec_map(d, space):
    sset = make_snapshot_set(np.ones((len(d), 2)), np.ones(2), space=space)
    return build_map_from_spec(json.dumps({"diag": list(d)}), sset)[0]


def test_diag_spec_is_sparse_and_certifies_like_the_dense_map():
    inst = random_instance(8, 6, seed=5)
    sset, space = inst["set"], inst["space_x"]
    d = np.random.default_rng(1).uniform(0.5, 3.0, 8) * np.resize([1.0, -1.0], 8)
    lmap = _diag_spec_map(d, space)
    dense = make_map(space, space, np.diag(d), invertible=True)
    assert isinstance(lmap.matrix, Banded) and isinstance(lmap.inverse, Banded)
    assert np.array_equal(lmap.matrix.toarray(), np.diag(d))
    assert np.allclose(lmap.inverse.toarray(), dense.inverse, rtol=1e-14, atol=0)
    assert np.allclose(adjoint(lmap), adjoint(dense), rtol=1e-12, atol=0)
    basis = compute_pod(sset)
    for r in range(1, basis.rank + 1):
        got, want = (
            battery_level(certifier(sset, basis, m), r)
            for m in (lmap, dense)
        )
        assert [rep.identity_id for rep in got] == [rep.identity_id for rep in want]
        for a, b in zip(got, want):
            assert a.passed and b.passed, (r, a.identity_id)
            assert a.actual == pytest.approx(b.actual, rel=1e-10, abs=a.info["floor"])
            assert a.formula == pytest.approx(b.formula, rel=1e-10, abs=a.info["floor"])
    # a zero entry: no inverse
    singular = _diag_spec_map(np.where(np.arange(8) == 3, 0.0, d), space)
    assert singular.inverse is None


def test_ill_conditioned_diag_spec_is_refused():
    space = make_space(identity(3))
    assert _diag_spec_map([1.0, 2e-12, 1.0], space).inverse is not None  # condition 5e11
    with pytest.raises(NotInvertible, match="condition number"):
        _diag_spec_map([1.0, 1e-13, 1.0], space)


def test_diag_spec_of_30000_entries_builds_without_an_n_by_n_array():
    # the dense map, its inverse and the certificate took 4 n^2 doubles
    # (7.2 GB each at this size); the banded ones take O(n)
    space = make_space(identity(30000))
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
    sset = make_snapshot_set(np.ones((n, 2)), np.ones(2), space=make_space(identity(n)))
    spec = json.dumps({"matrix": path, "invertible": invertible})
    tracemalloc.start()
    try:
        lmap = build_map_from_spec(spec, sset)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (lmap.inverse is not None) == invertible
    assert peak < 8 * MATRIX_CSV_ARRAYS[invertible] * n * n
