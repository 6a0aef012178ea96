"""Projection families: idempotency, self-adjointness, operator norms, and
the provenance guards that keep mismatched ingredients out."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh, lu_factor, lu_solve

from podkit.cli import PROJECTOR_CHOICES, _select_family
from podkit.error_lab import codomain_projectors
from podkit.errors import (
    FormNotElliptic,
    NotInvertible,
    PodkitError,
    ProvenanceMismatch,
    RankDeficient,
    RankDeficientImage,
    RankExceeded,
    SingularRitzSystem,
)
from podkit.fem import assemble_fem_1d
from podkit.fhn_gen import embedding_set, make_embedding_instance, random_instance
from podkit.gram_space import identity_space, inner, make_space, orthonormalize, solve_gram
from podkit.linear_map import adjoint, identity_map, make_map
from podkit.pod_engine import compute_pod
from podkit.projector import (
    ELLIPTICITY_DEGENERACY,
    apply_projector,
    dense_matrix,
    form_ellipticity,
    mapped_orthogonal_levels,
    op_norm,
    pod_projector,
    pullback_projector,
    pushforward_levels,
    ritz_levels,
)
from podkit.snapshot_io import make_snapshot_set, resolve_gram_spec


@pytest.fixture
def invertible_instance():
    return random_instance(10, 8, seed=77)


def test_pod_projector_idempotent_and_self_adjoint():
    inst = random_instance(9, 7, seed=1)
    basis = compute_pod(inst["set"], inst["space_x"])
    rng = np.random.default_rng(2)
    for r in range(1, basis.rank + 1):
        proj = pod_projector(basis, r)
        x = rng.standard_normal((9, 4))
        px = apply_projector(proj, x)
        assert np.allclose(apply_projector(proj, px), px, rtol=1e-9, atol=1e-12)
        u, v = rng.standard_normal(9), rng.standard_normal(9)
        lhs = inner(basis.space, apply_projector(proj, u), v)
        rhs = inner(basis.space, u, apply_projector(proj, v))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_pod_projector_r_guard():
    inst = random_instance(5, 4, seed=3)
    basis = compute_pod(inst["set"], inst["space_x"])
    with pytest.raises(RankExceeded):
        pod_projector(basis, basis.rank + 1)


def test_orthogonal_norm_one():
    for seed in (5, 6, 7):
        inst = random_instance(8, 6, seed=seed)
        basis = compute_pod(inst["set"], inst["space_x"])
        proj = pod_projector(basis, min(3, basis.rank))
        assert op_norm(proj) == pytest.approx(1.0, abs=1e-9)
        mproj = mapped_orthogonal_levels(basis, inst["map"])(min(3, basis.rank))
        assert op_norm(mproj) == pytest.approx(1.0, abs=1e-9)


def test_mapped_projector_rank_deficient_image():
    # a map that collapses the two leading modes onto one direction
    space = identity_space(3)
    data = np.diag([2.0, 1.0, 0.5])
    sset = make_snapshot_set(data, np.ones(3), space=space)
    basis = compute_pod(sset, space)
    M = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    lmap = make_map(space, space, M)
    with pytest.raises(RankDeficientImage):
        mapped_orthogonal_levels(basis, lmap)(2)


def test_ritz_levels_properties():
    inst = make_embedding_instance(17, 3)
    basis = compute_pod(inst["set"], inst["space_x"])
    r = min(4, basis.rank)
    proj = ritz_levels(basis, inst["map"], inst["form"])(r)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(17)
    px = apply_projector(proj, x)
    assert np.allclose(apply_projector(proj, px), px, rtol=1e-9, atol=1e-12)
    # Galerkin property: the residual is form-orthogonal to the range
    form = inst["form"]
    residual_pairing = proj.range_basis.T @ (form @ (x - px))
    assert np.max(np.abs(residual_pairing)) < 1e-9
    c, C = form_ellipticity(proj.space, form)
    assert op_norm(proj) <= C / c + 1e-8


def test_ritz_with_nonsymmetric_form():
    # convection-perturbed form: coercive but not symmetric
    nodes = 17
    mesh = assemble_fem_1d(nodes)
    form = (mesh.stiffness + mesh.mass + 0.5 * mesh.convection).toarray()
    inst = make_embedding_instance(nodes, 1)
    basis = compute_pod(inst["set"], inst["space_x"])
    r = min(4, basis.rank)
    proj = ritz_levels(basis, inst["map"], form)(r)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(nodes)
    px = apply_projector(proj, x)
    assert np.allclose(apply_projector(proj, px), px, rtol=1e-9, atol=1e-12)
    residual_pairing = proj.range_basis.T @ (form @ (x - px))
    assert np.max(np.abs(residual_pairing)) < 1e-9
    c, C = form_ellipticity(proj.space, form)
    assert c > 0.2  # provably coercive on [0, 1]
    assert op_norm(proj) <= C / c + 1e-8
    # and it differs measurably from the orthogonal family
    orth = mapped_orthogonal_levels(basis, inst["map"])(r)
    assert np.linalg.norm(dense_matrix(proj) - dense_matrix(orth)) > 1e-6


def test_ritz_degenerate_form_rejected():
    inst = make_embedding_instance(9, 1)
    basis = compute_pod(inst["set"], inst["space_x"])
    mesh = assemble_fem_1d(9)
    # the skew part of a symmetric matrix is zero, so this form has no
    # coercivity at all and the build must refuse
    with pytest.raises(FormNotElliptic):
        ritz_levels(basis, inst["map"], (mesh.stiffness - mesh.stiffness.T).toarray())(2)


def reference_ellipticity(space, form):
    """The dense generalized eigensolve that form_ellipticity replaced."""
    A = form.toarray() if sparse.issparse(form) else np.asarray(form)
    vals = eigh(0.5 * (A + A.T), space.gram.toarray(), eigvals_only=True)
    return float(vals[0]), float(vals[-1])


def test_form_ellipticity_matches_the_dense_generalized_eigensolve():
    nodes = 200
    mesh = assemble_fem_1d(nodes)
    h1 = mesh.stiffness + mesh.mass
    embed = make_embedding_instance(nodes, 1)  # codomain Gram H^1, kd = 1
    dense = random_instance(12, 8, seed=81)  # dense codomain Gram, kd = n - 1
    assert dense["map"].codomain.chol.shape == (12, 12)
    M = np.random.default_rng(5).standard_normal((12, 12))
    W = np.random.default_rng(6).standard_normal((nodes, nodes))
    cases = [  # (instance, form, refused)
        (embed, h1, False),
        (embed, h1.toarray(), False),
        (embed, h1 + 0.5 * mesh.convection, False),
        (embed, mesh.mass, False),  # c about 2e-6 against C about 1
        (embed, sparse.csr_array((nodes, nodes)), True),
        (embed, mesh.stiffness - mesh.stiffness.T, True),
        (embed, -h1, True),
        (dense, M @ M.T + np.eye(12), False),
        (dense, M, True),
        # a dense form widens the band to n - 1: the dense eigensolve path
        (embed, W @ W.T / nodes + np.eye(nodes), False),
    ]
    for inst, form, refused in cases:
        lmap = inst["map"]
        want = reference_ellipticity(lmap.codomain, form)
        assert form_ellipticity(lmap.codomain, form) == pytest.approx(want, rel=1e-10, abs=0)
        # the decision ritz_levels takes from the reference constants
        assert (want[0] <= ELLIPTICITY_DEGENERACY * max(abs(want[1]), 1e-300)) == refused
        basis = compute_pod(inst["set"], inst["space_x"])
        if refused:
            with pytest.raises(FormNotElliptic):
                ritz_levels(basis, lmap, form)
        else:
            ritz_levels(basis, lmap, form)(1)


def test_form_ellipticity_of_30000_nodes_is_exact_and_small():
    # bisection on banded factorizations: (1 - t) I is definite exactly for
    # t < 1, so both constants come out as exactly 1, and no n x n array
    # (7.2 GB here) is formed
    space = identity_space(30000)
    tracemalloc.start()
    try:
        constants = form_ellipticity(space, sparse.eye_array(30000, format="csr"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert constants == (1.0, 1.0)
    assert peak < 8e6


def test_sparse_identity_keeps_the_30000_node_embedding_families_small():
    # identity_map holds one sparse identity (a dense pair would take
    # 14.4 GB) and neither family forms an n x n array
    nodes = 30000
    sset = embedding_set(nodes)
    codomain = resolve_gram_spec({"fem_stiffness": nodes}, nodes)
    basis = compute_pod(sset)
    assert basis.rank == 8
    tracemalloc.start()
    try:
        lmap = identity_map(sset.space, codomain, kind="embedding")
        mapped_orthogonal_levels(basis, lmap)(8)
        pushforward_levels(lmap, basis)(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_pushforward_matches_conjugation(invertible_instance):
    inst = invertible_instance
    basis = compute_pod(inst["set"], inst["space_x"])
    r = min(4, basis.rank)
    proj = pushforward_levels(inst["map"], basis)(r)
    rng = np.random.default_rng(10)
    y = rng.standard_normal((10, 3))
    # L P_r L^{-1} y computed longhand
    L = inst["map"].matrix
    back = np.linalg.solve(L, y)
    pod = pod_projector(basis, r)
    ref = L @ apply_projector(pod, back)
    assert np.allclose(apply_projector(proj, y), ref, rtol=1e-8, atol=1e-10)
    px = apply_projector(proj, y)
    assert np.allclose(apply_projector(proj, px), px, rtol=1e-9, atol=1e-10)


def test_pushforward_needs_inverse():
    inst = random_instance(8, 6, seed=12, invertible=False, map_rank=5)
    basis = compute_pod(inst["set"], inst["space_x"])
    with pytest.raises(NotInvertible):
        pushforward_levels(inst["map"], basis)(2)


def test_pullback_matches_conjugation(invertible_instance):
    inst = invertible_instance
    basis = compute_pod(inst["set"], inst["space_x"])
    r = min(4, basis.rank)
    inner_proj = mapped_orthogonal_levels(basis, inst["map"])(r)
    proj = pullback_projector(inst["map"], inner_proj, r)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(10)
    L = inst["map"].matrix
    ref = np.linalg.solve(L, apply_projector(inner_proj, L @ x))
    assert np.allclose(apply_projector(proj, x), ref, rtol=1e-8, atol=1e-10)
    px = apply_projector(proj, x)
    assert np.allclose(apply_projector(proj, px), px, rtol=1e-9, atol=1e-10)


def test_pullback_rejects_mismatched_r(invertible_instance):
    inst = invertible_instance
    basis = compute_pod(inst["set"], inst["space_x"])
    inner_proj = mapped_orthogonal_levels(basis, inst["map"])(3)
    with pytest.raises(ProvenanceMismatch):
        pullback_projector(inst["map"], inner_proj, 2)


def test_composite_norms_can_exceed_one(invertible_instance):
    # non-orthogonal families are projections but need not be contractions;
    # their norm is still finite and at least one
    inst = invertible_instance
    basis = compute_pod(inst["set"], inst["space_x"])
    r = min(3, basis.rank)
    push = pushforward_levels(inst["map"], basis)(r)
    n = op_norm(push)
    assert n >= 1.0 - 1e-9
    assert np.isfinite(n)


# -- level factories against the per-level builders they replace -------------
#
# The references build level r from the leading r modes alone and share
# nothing between levels.  The ellipticity check does not depend on r and is
# compared once; the adjoint matrix is an input of the pushforward
# reference, whose cross-check solves the adjoint system at every level.


def reference_mapped_orthogonal(basis, lmap, r):
    try:
        Q = orthonormalize(lmap.codomain, lmap.matrix @ basis.modes[:, :r])
    except RankDeficient as exc:
        raise RankDeficientImage(str(exc)) from None
    return Q, Q


def reference_ritz(basis, lmap, form, r):
    # the Ritz system on the G-orthonormalized leading r mapped modes
    Q, _ = reference_mapped_orthogonal(basis, lmap, r)
    B = Q.T @ (form @ Q)
    rcond = 1.0 / np.linalg.cond(B)
    if not np.isfinite(rcond) or rcond < 1e-14:
        raise SingularRitzSystem(f"reciprocal condition {rcond:.3e}")
    QBt = lu_solve(lu_factor(B), (form.T @ Q).T).T
    return Q, solve_gram(lmap.codomain, QBt)


def reference_pushforward(basis, lmap, adj, r, tol=1e-8):
    Phi = basis.modes[:, :r]
    dual = solve_gram(lmap.codomain, lmap.inverse.T @ (basis.space.gram @ Phi))
    mismatch = np.linalg.norm(dual - np.linalg.solve(adj, Phi)) / np.linalg.norm(dual)
    if mismatch > tol:
        raise NotInvertible(f"inverse and adjoint routes disagree by {mismatch:.3e}")
    return lmap.matrix @ Phi, dual


def reference_level(basis, lmap, family, form):
    if family == "orthogonal":
        return lambda r: reference_mapped_orthogonal(basis, lmap, r)
    if family == "ritz":
        return lambda r: reference_ritz(basis, lmap, form, r)
    adj = adjoint(lmap)
    return lambda r: reference_pushforward(basis, lmap, adj, r)


def assert_levels_match(basis, lmap, family, form):
    """Every level 1..rank: equal bases to 1e-12 relative, or the same error
    class at the same levels.  Returns the levels that raised."""
    levels = codomain_projectors(basis, lmap, family, form)
    reference = reference_level(basis, lmap, family, form)
    raised = []
    for r in range(1, basis.rank + 1):
        try:
            expected = reference(r)
        except PodkitError as exc:
            with pytest.raises(type(exc)):
                levels(r)
            raised.append(r)
            continue
        proj = levels(r)
        assert proj.r == r and proj.provenance["r"] == r
        for got, want in zip((proj.range_basis, proj.dual_basis), expected):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (family, r)
    return raised


@pytest.fixture(scope="module")
def embedding_1000():
    inst = make_embedding_instance(1000, 1, seed=1)
    return compute_pod(inst["set"], inst["space_x"]), inst["map"]


@pytest.mark.parametrize("flag", PROJECTOR_CHOICES)
def test_level_factories_match_per_level_builds(flag, embedding_1000):
    cases = [embedding_1000]
    for seed in (77, 78, 79):
        inst = random_instance(10, 8, seed=seed)
        cases.append((compute_pod(inst["set"], inst["space_x"]), inst["map"]))
    if not flag.startswith("composite"):
        flat = random_instance(9, 7, seed=80, invertible=False, dim_y=12)
        cases.append((compute_pod(flat["set"], flat["space_x"]), flat["map"]))
    for basis, lmap in cases:
        family, form = _select_family(flag, lmap, None)
        assert assert_levels_match(basis, lmap, family, form) == []
        if family == "ritz":
            proj = codomain_projectors(basis, lmap, family, form)(1)
            constants = (proj.provenance["ellipticity"], proj.provenance["continuity"])
            assert constants == form_ellipticity(lmap.codomain, form)


def _collapsed(inst, basis, j):
    """The instance's map composed with M, where M phi_j = phi_0 and M fixes
    the other modes: the mapped modes become dependent at column j."""
    Phi, G = basis.modes, basis.space.gram
    M = np.eye(G.shape[0]) + np.outer(Phi[:, 0] - Phi[:, j], G @ Phi[:, j])
    lmap = inst["map"]
    return make_map(lmap.domain, lmap.codomain, lmap.matrix @ M)


def test_dependent_mapped_modes_fail_at_the_same_levels():
    inst = random_instance(10, 8, seed=77)
    basis = compute_pod(inst["set"], inst["space_x"])
    lmap = _collapsed(inst, basis, 3)
    # level r holds modes 0..r-1, so levels 4..rank see the dependent column
    dependent = list(range(4, basis.rank + 1))
    assert assert_levels_match(basis, lmap, "orthogonal", None) == dependent
    with pytest.raises(RankDeficientImage):
        mapped_orthogonal_levels(basis, lmap)(4)
    form = lmap.codomain.gram + 0.1 * np.triu(np.ones((10, 10)), 1)
    assert assert_levels_match(basis, lmap, "ritz", form) == dependent
    with pytest.raises(RankDeficientImage):
        ritz_levels(basis, lmap, form)(4)


def test_skew_dominated_form_fails_the_ritz_system_at_the_same_levels():
    # sym(A) = eps I exactly (the form is elliptic, c = C = eps) and the skew
    # part pairs the orthonormal mapped modes (q_1, q_2), (q_3, q_4), ... at
    # 1e3: an odd level r >= 3 cuts a pair, leaving B_r a row of size eps, so
    # its reciprocal condition is eps / 1e3 = 1e-15 and SingularRitzSystem is
    # raised there, while even levels hold whole pairs (condition 1).  Only
    # the refusals are compared: B_1 = eps is formed from entries of size
    # 1e3, so level 1's values carry a relative round-off of about 10%.
    inst = random_instance(10, 8, seed=77)
    basis = compute_pod(inst["set"], inst["space_x"])
    lmap = make_map(inst["space_x"], identity_space(10), inst["map"].matrix)
    Q, _ = reference_mapped_orthogonal(basis, lmap, basis.rank)
    J = np.zeros((basis.rank, basis.rank))
    pairs = np.arange(0, basis.rank - 1, 2)
    J[pairs, pairs + 1], J[pairs + 1, pairs] = 1e3, -1e3
    K = Q @ J @ Q.T
    form = 1e-12 * np.eye(10) + 0.5 * (K - K.T)
    assert form_ellipticity(lmap.codomain, form) == (1e-12, 1e-12)
    levels = ritz_levels(basis, lmap, form)

    def refused(build):
        raised = []
        for r in range(1, basis.rank + 1):
            try:
                build(r)
            except SingularRitzSystem:
                raised.append(r)
        return raised

    odd = list(range(3, basis.rank + 1, 2))
    assert odd and refused(lambda r: reference_ritz(basis, lmap, form, r)) == odd
    assert refused(levels) == odd


def test_tampered_inverse_fails_the_cross_check_at_the_same_levels():
    # an inverse wrong only on mode j: inverse^T G phi_k changes for k = j,
    # so the cross-check fails exactly at the levels that include mode j
    inst = random_instance(10, 8, seed=78)
    basis = compute_pod(inst["set"], inst["space_x"])
    rng = np.random.default_rng(3)
    for j in (0, 2, 5):
        tampered = inst["map"].inverse + np.outer(basis.modes[:, j], rng.standard_normal(10))
        lmap = dataclasses.replace(inst["map"], inverse=tampered)
        raised = assert_levels_match(basis, lmap, "pushforward", None)
        assert raised == list(range(j + 1, basis.rank + 1)), j
        with pytest.raises(NotInvertible):
            pushforward_levels(lmap, basis)(j + 1)


def dense_op_norm(proj):
    """Reference operator norm: the largest eigenvalue of the dense
    generalized problem P^T G P z = mu G z, whose square root is ||P||."""
    G = proj.space.gram.toarray()
    P = dense_matrix(proj)
    M = P.T @ G @ P
    return float(np.sqrt(max(eigh(0.5 * (M + M.T), G, eigvals_only=True)[-1], 0.0)))


def test_op_norm_matches_the_dense_eigensolve_for_every_family():
    cases = []
    for seed in (77, 78):
        inst = random_instance(10, 8, seed=seed)
        cases.append((inst, None))
    nodes = 17
    mesh = assemble_fem_1d(nodes)
    cases.append((make_embedding_instance(nodes, 1),
                  (mesh.stiffness + mesh.mass + 0.5 * mesh.convection).toarray()))
    for inst, form in cases:
        basis = compute_pod(inst["set"], inst["space_x"])
        lmap = inst["map"]
        if form is None:
            upper = np.triu(np.ones((lmap.codomain.dim,) * 2), 1)
            form = lmap.codomain.gram.toarray() + 0.1 * upper
        orth_levels = mapped_orthogonal_levels(basis, lmap)
        ritz = ritz_levels(basis, lmap, form)
        push = pushforward_levels(lmap, basis)
        for r in range(1, basis.rank + 1):
            orth = orth_levels(r)
            for proj in (
                pod_projector(basis, r),
                orth,
                ritz(r),
                push(r),
                pullback_projector(lmap, orth, r),
            ):
                want = dense_op_norm(proj)
                assert op_norm(proj) == pytest.approx(want, rel=1e-10), (proj.family, r)


def test_pushforward_refuses_an_inverse_perturbed_by_1e_6(invertible_instance):
    inst = invertible_instance
    basis = compute_pod(inst["set"], inst["space_x"])
    lmap = inst["map"]
    noise = np.random.default_rng(4).standard_normal(lmap.inverse.shape)
    pushforward_levels(lmap, basis)(basis.rank)  # the certified inverse passes
    perturbed = dataclasses.replace(lmap, inverse=lmap.inverse + 1e-6 * noise)
    levels = pushforward_levels(perturbed, basis)
    for r in range(1, basis.rank + 1):
        with pytest.raises(NotInvertible, match="routes disagree"):
            levels(r)
