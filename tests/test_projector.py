"""Projection families: idempotency, self-adjointness, operator norms, and
the level factories against per-level reference builds."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh, lu_factor, lu_solve

from podkit.error_lab import PROJECTOR_FAMILIES, certifier
from podkit.errors import (
    FormNotElliptic,
    NotInvertible,
    PodkitError,
    RankDeficientImage,
    RankExceeded,
    SingularRitzSystem,
)
from podkit.fem import assemble_fem_1d
from podkit.fhn_gen import embedding_set
from podkit.gram_space import Banded, identity, identity_space, make_space
from podkit.linear_map import build_map_from_spec, identity_map, make_map
from podkit.pod_engine import compute_pod
from podkit.projector import (
    ELLIPTICITY_DEGENERACY,
    form_ellipticity,
    mapped_orthogonal_levels,
    pushforward_levels,
    ritz_levels,
)
from podkit.snapshot_io import make_snapshot_set, resolve_gram_spec

from oracles import (
    Projector,
    convection,
    apply_projector,
    dense_matrix,
    inner,
    level_projector,
    make_embedding_instance,
    op_norm,
    orthonormalize,
    pod_projector,
    pullback_projector,
    random_instance,
    solve_gram,
    whitened_pair,
)


@pytest.fixture
def invertible_instance():
    return random_instance(10, 8, seed=77)


def test_pod_projector_idempotent_and_self_adjoint():
    inst = random_instance(9, 7, seed=1)
    basis = compute_pod(inst["set"])
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
    basis = compute_pod(inst["set"])
    with pytest.raises(RankExceeded):
        pod_projector(basis, basis.rank + 1)


def test_orthogonal_norm_one():
    for seed in (5, 6, 7):
        inst = random_instance(8, 6, seed=seed)
        basis = compute_pod(inst["set"])
        proj = pod_projector(basis, min(3, basis.rank))
        assert op_norm(proj) == pytest.approx(1.0, abs=1e-9)
        level = mapped_orthogonal_levels(basis, inst["map"])(min(3, basis.rank))
        mproj = level_projector(inst["space_y"], level)
        assert op_norm(mproj) == pytest.approx(1.0, abs=1e-9)


def test_mapped_projector_rank_deficient_image():
    # a map that collapses the two leading modes onto one direction
    space = identity_space(3)
    data = np.diag([2.0, 1.0, 0.5])
    sset = make_snapshot_set(data, np.ones(3), space=space)
    basis = compute_pod(sset)
    M = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    lmap = make_map(space, space, M)
    with pytest.raises(RankDeficientImage):
        mapped_orthogonal_levels(basis, lmap)(2)


def test_ritz_levels_properties():
    inst = make_embedding_instance(17, 3)
    basis = compute_pod(inst["set"])
    r = min(4, basis.rank)
    proj = level_projector(inst["space_y"], ritz_levels(basis, inst["map"], inst["form"])(r))
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
    form = (mesh.stiffness + mesh.mass + 0.5 * convection(nodes)).toarray()
    inst = make_embedding_instance(nodes, 1)
    basis = compute_pod(inst["set"])
    r = min(4, basis.rank)
    proj = level_projector(inst["space_y"], ritz_levels(basis, inst["map"], form)(r))
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
    orth = level_projector(inst["space_y"], mapped_orthogonal_levels(basis, inst["map"])(r))
    assert np.linalg.norm(dense_matrix(proj) - dense_matrix(orth)) > 1e-6


def test_ritz_degenerate_form_rejected():
    inst = make_embedding_instance(9, 1)
    basis = compute_pod(inst["set"])
    mesh = assemble_fem_1d(9)
    # the skew part of a symmetric matrix is zero, so this form has no
    # coercivity at all and the build must refuse
    with pytest.raises(FormNotElliptic):
        ritz_levels(basis, inst["map"], (mesh.stiffness - mesh.stiffness.T).toarray())(2)


def reference_ellipticity(space, form):
    """The dense generalized eigensolve that form_ellipticity replaced."""
    A = form.toarray() if isinstance(form, Banded) else np.asarray(form)
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
        (embed, h1 + 0.5 * convection(nodes), False),
        (embed, mesh.mass, False),  # c about 2e-6 against C about 1
        (embed, Banded({}, (nodes, nodes)), True),
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
        basis = compute_pod(inst["set"])
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
        constants = form_ellipticity(space, identity(30000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert constants == (1.0, 1.0)
    assert peak < 8e6


def test_sparse_identity_keeps_the_30000_node_embedding_families_small():
    # identity_map holds one banded identity (a dense pair would take
    # 14.4 GB) and neither family forms an n x n array
    nodes = 30000
    sset = embedding_set(nodes)[0]
    codomain = resolve_gram_spec({"fem_stiffness": nodes}, nodes)
    basis = compute_pod(sset)
    assert basis.rank == 8
    tracemalloc.start()
    try:
        lmap = identity_map(sset.space, codomain)
        mapped_orthogonal_levels(basis, lmap)(8)
        pushforward_levels(basis, lmap)(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_pushforward_matches_conjugation(invertible_instance):
    inst = invertible_instance
    basis = compute_pod(inst["set"])
    r = min(4, basis.rank)
    proj = level_projector(inst["space_y"], pushforward_levels(basis, inst["map"])(r))
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
    basis = compute_pod(inst["set"])
    with pytest.raises(NotInvertible):
        pushforward_levels(basis, inst["map"])(2)


def test_pullback_matches_conjugation(invertible_instance):
    inst = invertible_instance
    basis = compute_pod(inst["set"])
    r = min(4, basis.rank)
    inner_proj = level_projector(inst["space_y"], mapped_orthogonal_levels(basis, inst["map"])(r))
    proj = pullback_projector(inst["map"], inner_proj)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(10)
    L = inst["map"].matrix
    ref = np.linalg.solve(L, apply_projector(inner_proj, L @ x))
    assert np.allclose(apply_projector(proj, x), ref, rtol=1e-8, atol=1e-10)
    px = apply_projector(proj, x)
    assert np.allclose(apply_projector(proj, px), px, rtol=1e-9, atol=1e-10)


def test_composite_norms_can_exceed_one(invertible_instance):
    # non-orthogonal families are projections but need not be contractions;
    # their norm is still finite and at least one
    inst = invertible_instance
    basis = compute_pod(inst["set"])
    r = min(3, basis.rank)
    push = level_projector(inst["space_y"], pushforward_levels(basis, inst["map"])(r))
    n = op_norm(push)
    assert n >= 1.0 - 1e-9
    assert np.isfinite(n)


# -- level factories against the per-level builders they replace -------------
#
# The references build level r, its range R and dual basis D = G^{-1} F, in
# natural coordinates from the leading r modes alone and share nothing
# between levels; oracles.whitened_pair converts each to the whitened pair
# (C^T R, C^{-1} F) that podkit stores.  The ellipticity check does not
# depend on r and is compared once.


def reference_mapped_orthogonal(basis, lmap, r):
    Q = orthonormalize(lmap.codomain, lmap.matrix @ basis.modes[:, :r])
    return Projector(lmap.codomain, Q, Q)


def reference_ritz(basis, lmap, form, r):
    # the Ritz system on the G-orthonormalized leading r mapped modes
    Q = reference_mapped_orthogonal(basis, lmap, r).range_basis
    B = Q.T @ (form @ Q)
    rcond = 1.0 / np.linalg.cond(B)
    if not np.isfinite(rcond) or rcond < 1e-14:
        raise SingularRitzSystem(f"reciprocal condition {rcond:.3e}")
    F = lu_solve(lu_factor(B), (form.T @ Q).T).T
    return Projector(lmap.codomain, Q, solve_gram(lmap.codomain, F))


def reference_pushforward(basis, lmap, r):
    # L^{-T} G_x Phi solved with the map's own matrix, not read off the
    # certified inverse that pushforward_levels reads
    Phi = basis.modes[:, :r]
    L = lmap.matrix.toarray() if isinstance(lmap.matrix, Banded) else lmap.matrix
    dual = solve_gram(lmap.codomain, np.linalg.solve(L.T, basis.space.gram @ Phi))
    return Projector(lmap.codomain, lmap.matrix @ Phi, dual)


def reference_level(basis, lmap, family, form):
    # without a form, ritz projects in the codomain's inner product: the
    # orthogonal family
    if family == "orthogonal" or family == "ritz" and form is None:
        return lambda r: reference_mapped_orthogonal(basis, lmap, r)
    if family == "ritz":
        return lambda r: reference_ritz(basis, lmap, form, r)
    return lambda r: reference_pushforward(basis, lmap, r)


def assert_levels_match(sset, basis, lmap, family, form):
    """Every level 1..rank of the certifier's projectors: equal whitened
    ranges and functionals to 1e-12 relative, or the same error class at the
    same levels.  Returns the levels that raised."""
    levels = certifier(sset, basis, lmap, family, form).projectors
    reference = reference_level(basis, lmap, family, form)
    raised = []
    for r in range(1, basis.rank + 1):
        try:
            expected = whitened_pair(reference(r))
        except PodkitError as exc:
            with pytest.raises(type(exc)):
                levels(r)
            raised.append(r)
            continue
        got = levels(r)
        assert got[0].shape[1] == r
        for have, want in zip(got, expected):
            assert have.shape == want.shape
            assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want)), (family, r)
    return raised


@pytest.fixture(scope="module")
def embedding_1000():
    inst = make_embedding_instance(1000, 1, seed=1)
    return inst["set"], compute_pod(inst["set"]), inst["map"]


@pytest.mark.parametrize("family", PROJECTOR_FAMILIES)
def test_level_factories_match_per_level_builds(family, embedding_1000):
    # the family each --projector value selects, on the CLI's default form;
    # the "diag" spec map is one whose matrix is not the identity
    sset, basis, _ = embedding_1000
    d = np.random.default_rng(2).uniform(0.5, 2.0, sset.space_dim)
    diag_map = build_map_from_spec(json.dumps({"diag": d.tolist()}), sset)[0]
    cases = [embedding_1000, (sset, basis, diag_map)]
    for seed in (77, 78, 79):
        inst = random_instance(10, 8, seed=seed)
        cases.append((inst["set"], compute_pod(inst["set"]), inst["map"]))
    if family != "composite-xy":
        flat = random_instance(9, 7, seed=80, invertible=False, dim_y=12)
        cases.append((flat["set"], compute_pod(flat["set"]), flat["map"]))
    for sset, basis, lmap in cases:
        assert assert_levels_match(sset, basis, lmap, family, None) == []


def _collapsed(inst, basis, j):
    """The instance's map composed with M, where M phi_j = phi_0 and M fixes
    the other modes: the mapped modes become dependent at column j."""
    Phi, G = basis.modes, basis.space.gram
    M = np.eye(G.shape[0]) + np.outer(Phi[:, 0] - Phi[:, j], G @ Phi[:, j])
    lmap = inst["map"]
    return make_map(lmap.domain, lmap.codomain, lmap.matrix @ M)


def test_dependent_mapped_modes_fail_at_the_same_levels():
    inst = random_instance(10, 8, seed=77)
    basis = compute_pod(inst["set"])
    lmap = _collapsed(inst, basis, 3)
    # level r holds modes 0..r-1, so levels 4..rank see the dependent column
    dependent = list(range(4, basis.rank + 1))
    assert assert_levels_match(inst["set"], basis, lmap, "orthogonal", None) == dependent
    with pytest.raises(RankDeficientImage):
        mapped_orthogonal_levels(basis, lmap)(4)
    form = lmap.codomain.gram + 0.1 * np.triu(np.ones((10, 10)), 1)
    assert assert_levels_match(inst["set"], basis, lmap, "ritz", form) == dependent
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
    basis = compute_pod(inst["set"])
    lmap = make_map(inst["space_x"], identity_space(10), inst["map"].matrix)
    Q = reference_mapped_orthogonal(basis, lmap, basis.rank).range_basis
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
                  (mesh.stiffness + mesh.mass + 0.5 * convection(nodes)).toarray()))
    for inst, form in cases:
        basis = compute_pod(inst["set"])
        lmap = inst["map"]
        if form is None:
            upper = np.triu(np.ones((lmap.codomain.dim,) * 2), 1)
            form = lmap.codomain.gram.toarray() + 0.1 * upper
        orth_levels = mapped_orthogonal_levels(basis, lmap)
        ritz = ritz_levels(basis, lmap, form)
        push = pushforward_levels(basis, lmap)
        for r in range(1, basis.rank + 1):
            orth = level_projector(lmap.codomain, orth_levels(r))
            for name, proj in (
                ("pod", pod_projector(basis, r)),
                ("orthogonal", orth),
                ("ritz", level_projector(lmap.codomain, ritz(r))),
                ("composite-xy", level_projector(lmap.codomain, push(r))),
                ("pullback", pullback_projector(lmap, orth)),
            ):
                want = dense_op_norm(proj)
                assert op_norm(proj) == pytest.approx(want, rel=1e-10), (name, r)
