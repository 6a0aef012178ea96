"""Snapshot generators: solver regressions, refinement consistency, and the
instance builders used across the suite."""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg.lapack
from scipy.linalg import block_diag, lu_factor, lu_solve

from podkit.errors import DimensionMismatch, SolverDiverged
from podkit.fhn_gen import (
    EMBEDDING_SNAPSHOTS,
    NEWTON_ABS_TOL,
    NEWTON_MAX_ITER,
    NEWTON_REL_TOL,
    SDIRK_GAMMA,
    STREAM_BLOCK,
    SYNTHETIC_ARRAYS,
    TRAJECTORY_ARRAYS,
    FhnConfig,
    boundary_pulse,
    embedding_set,
    make_fhn_instance,
    solve_fhn,
)
from podkit.fem import assemble_fem_1d
from podkit.gram_space import make_space
from podkit.linear_map import derivative_map
from podkit.pod_engine import compute_pod
from podkit.snapshot_io import resolve_gram_spec, save

from conftest import by_id
from oracles import make_embedding_instance, make_fhn_dict, norm, random_instance


def product_space(nodes):
    """generate-fhn's state space: L^2 x L^2 for the stacked [u; v]."""
    return resolve_gram_spec({"block_diag": [{"fem_mass": nodes}] * 2}, 2 * nodes)


def test_zero_without_source_or_drive():
    # with no source and no boundary drive the zero state is stationary
    grid, data = solve_fhn(
        FhnConfig(c=0.0, boundary_drive=False, nodes=10, t_end=0.5, dt=0.01)
    )
    assert data.shape == (20, 50)
    assert np.max(np.abs(data)) == 0.0


def test_impulse_enters_from_left():
    # sign regression: the prescribed flux feeds the wave in at x = 0, so
    # the left end must fire strictly before the right end; crossings are
    # read off the midpoint snapshots, at the interval midpoints
    grid, data = solve_fhn(FhnConfig(nodes=30, t_end=1.0, dt=0.005))
    u, times = data[:30], 0.5 * (grid[1:] + grid[:-1])

    def t_cross(series, level):
        idx = int(np.argmax(series > level))
        assert series[idx] > level, "level never crossed"
        return times[idx]

    assert u.max() > 1.0  # full excitation amplitude is reached
    for level in (0.2, 0.5):
        assert t_cross(u[0], level) < t_cross(u[-1], level)


def test_boundary_pulse_shape():
    assert boundary_pulse(0.0) == 0.0
    # t^3 exp(-15 t) peaks at t = 0.2
    assert boundary_pulse(0.2) > boundary_pulse(0.05)
    assert boundary_pulse(0.2) > boundary_pulse(1.0)


def test_stream_receives_every_snapshot_in_finished_blocks():
    # 2.5 blocks of steps: two full blocks, then the last half block as
    # soon as the final step ends
    class Recorder:
        def __init__(self):
            self.blocks = []

        def write(self, block):
            self.blocks.append(block.copy())

    steps = 2 * STREAM_BLOCK + STREAM_BLOCK // 2
    cfg = FhnConfig(nodes=6, t_end=steps * 0.005, dt=0.005)
    recorder = Recorder()
    _, streamed = solve_fhn(cfg, recorder)
    _, data = solve_fhn(cfg)
    assert [b.shape[1] for b in recorder.blocks] == [STREAM_BLOCK, STREAM_BLOCK, STREAM_BLOCK // 2]
    assert np.array_equal(np.hstack(recorder.blocks), data)
    assert np.array_equal(streamed, data)


def test_trajectory_deterministic():
    cfg = FhnConfig(nodes=12, t_end=0.5, dt=0.01)
    g1, s1 = solve_fhn(cfg)
    g2, s2 = solve_fhn(cfg)
    assert np.array_equal(g1, g2)
    assert np.array_equal(s1, s2)


def test_dt_does_not_divide_t_end():
    with pytest.raises(DimensionMismatch):
        solve_fhn(FhnConfig(nodes=8, t_end=1.0, dt=0.3))


def _dense_reference_solve(config):
    """The SDIRK solve with a dense [u; v] Newton matrix and dense LU.

    Same right-hand side, stage equations, stopping rule and refactor
    schedule as solve_fhn, but with v an unknown of every Newton system
    rather than eliminated node by node, dense products and a dense LU;
    returns the grid and the whole state trajectory.
    """
    mesh = assemble_fem_1d(config.nodes)
    n, M, S = config.nodes, mesh.mass.toarray(), mesh.stiffness.toarray()
    mu, b, gam, c = config.mu, config.b, config.gamma_param, config.c
    steps = int(round(config.t_end / config.dt))
    grid = np.linspace(0.0, config.t_end, steps + 1)
    Mb = block_diag(M, M)

    def rhs(t, w):
        u, v = w[:n], w[n:]
        fu = u * (u - 0.1) * (1.0 - u)
        out = np.empty(2 * n)
        out[:n] = -mu * (S @ u) + M @ ((-v + fu + c) / mu)
        if config.boundary_drive:
            out[0] += mu * boundary_pulse(t)
        out[n:] = M @ (b * u - gam * v + c)
        return out

    def jacobian(w):
        fp = -3.0 * w[:n] ** 2 + 2.2 * w[:n] - 0.1
        J = np.zeros((2 * n, 2 * n))
        J[:n, :n] = -mu * S + (M * fp[None, :]) / mu
        J[:n, n:] = -M / mu
        J[n:, :n] = b * M
        J[n:, n:] = -gam * M
        return J

    def stage_solve(t_stage, y_base, const, coeff, guess):
        Y = guess.copy()
        lu = lu_factor(Mb - coeff * jacobian(Y))
        for it in range(NEWTON_MAX_ITER):
            F = Mb @ (Y - y_base) - coeff * rhs(t_stage, Y) - const
            delta = lu_solve(lu, -F)
            Y += delta
            if np.max(np.abs(delta)) <= NEWTON_ABS_TOL + NEWTON_REL_TOL * np.max(np.abs(Y)):
                return Y
            if it in (8, 16):
                lu = lu_factor(Mb - coeff * jacobian(Y))
        raise AssertionError(f"reference Newton stalled at t = {t_stage}")

    h, g = config.dt, SDIRK_GAMMA
    states = np.zeros((2 * n, steps + 1))
    w = np.zeros(2 * n)
    for k in range(steps):
        tn = grid[k]
        Y1 = stage_solve(tn + g * h, w, np.zeros(2 * n), h * g, w)
        const = h * (1.0 - g) * rhs(tn + g * h, Y1)
        w = stage_solve(tn + h, w, const, h * g, Y1)
        states[:, k + 1] = w
    return grid, states


@pytest.mark.parametrize("nodes", [2, 3, 8, 30])
@pytest.mark.parametrize("drive", [True, False], ids=["drive", "no-drive"])
@pytest.mark.parametrize("c", [0.0, FhnConfig().c], ids=["c0", "c-default"])
def test_banded_newton_matches_dense_reference(nodes, drive, c):
    # 2 and 3 nodes are below the sizes scipy's dgttrf and dgbmv take
    cfg = FhnConfig(nodes=nodes, boundary_drive=drive, c=c, t_end=1.0, dt=0.005)
    grid, data = solve_fhn(cfg)
    ref_grid, states = _dense_reference_solve(cfg)
    ref = 0.5 * (states[:, 1:] + states[:, :-1])  # its midpoint snapshots
    assert np.array_equal(grid, ref_grid)
    assert data.shape == ref.shape
    assert np.max(np.abs(data - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("nodes", [8, 30])
@pytest.mark.parametrize("drive", [True, False], ids=["drive", "no-drive"])
@pytest.mark.parametrize("dt", [0.005, 0.1])
def test_newton_schedule_matches_dense_reference(monkeypatch, nodes, drive, dt):
    # eliminating v leaves every stage's Newton iteration and refactor
    # schedule as they are: the same factorizations and solves as the dense
    # [u; v] Newton, counted call by call; at dt = 0.1 some stages refactor
    calls = Counter()

    def count(module, name):
        call = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("dgttrf", "dgttrs"):  # solve_fhn imports them from scipy when it runs
        count(scipy.linalg.lapack, name)
    for name in ("lu_factor", "lu_solve"):
        count(sys.modules[__name__], name)
    cfg = FhnConfig(nodes=nodes, boundary_drive=drive, t_end=1.0, dt=dt)
    solve_fhn(cfg)
    _dense_reference_solve(cfg)
    stages = 2 * round(1.0 / dt)
    assert calls["dgttrf"] == calls["lu_factor"] >= stages
    assert calls["dgttrs"] == calls["lu_solve"] > calls["lu_factor"]
    if dt == 0.1:
        assert calls["lu_factor"] > stages  # a stage refactored


@pytest.mark.parametrize("nodes", [1, 0])
def test_fewer_than_two_nodes_is_input_error(nodes):
    with pytest.raises(DimensionMismatch):
        solve_fhn(FhnConfig(nodes=nodes))


@pytest.mark.parametrize(
    "config",
    [
        FhnConfig(nodes=8, dt=1.0, t_end=10.0, c=50.0),
        FhnConfig(nodes=8, dt=5.0, t_end=10.0),
        FhnConfig(nodes=8, dt=0.01, t_end=0.1, mu=0.0),
    ],
    ids=["large-source", "large-step", "non-finite-matrix"],
)
def test_failed_newton_is_solver_diverged(config):
    with np.errstate(all="ignore"), pytest.raises(SolverDiverged):
        solve_fhn(config)


def test_time_step_consistency():
    # halving the step leaves the rank-4 data error nearly unchanged; the
    # decomposition certifies its own identities at either resolution, this
    # pins the trajectory itself
    from podkit.error_lab import battery_level, certifier

    def lhs_r4(dt):
        inst = make_fhn_dict(FhnConfig(nodes=24, t_end=2.0, dt=dt))
        basis = compute_pod(inst["set"])
        return by_id(battery_level(certifier(inst["set"], basis), 4))["pod_x"].actual

    coarse = lhs_r4(0.01)
    fine = lhs_r4(0.005)
    assert abs(coarse - fine) / fine < 0.05


def test_node_doubling_keeps_leading_eigenvalues(fhn_instance):
    # the leading decomposition spectrum is a property of the underlying
    # dynamics, not of the mesh: doubling the node count moves the top
    # twelve eigenvalues by well under five percent (this is the one
    # deliberately expensive consistency run in the suite)
    base = compute_pod(fhn_instance["set"])
    fine_inst = make_fhn_dict(FhnConfig(nodes=200))
    fine = compute_pod(fine_inst["set"])
    e_base = base.eigenvalues[:12]
    e_fine = fine.eigenvalues[:12]
    assert np.all(np.abs(e_base - e_fine) / e_fine < 0.05)


def test_derivative_map_kills_constants():
    lmap = derivative_map(10, product_space(10))
    const = np.concatenate([np.full(10, 3.0), np.full(10, -2.0)])
    assert np.max(np.abs(lmap.matrix @ const)) < 1e-13
    assert lmap.inverse is None


def test_derivative_map_on_one_or_two_components():
    mesh = assemble_fem_1d(10)
    single = derivative_map(10, make_space(mesh.mass))
    assert np.array_equal(single.matrix.toarray(), mesh.deriv.toarray())
    assert np.array_equal(single.codomain.gram.toarray(), np.diag(mesh.element_lengths))
    pair = derivative_map(10, product_space(10))
    assert pair.domain.dim == 20 and pair.codomain.dim == 18
    assert np.array_equal(pair.matrix.toarray()[9:, 10:], mesh.deriv.toarray())
    assert np.array_equal(pair.matrix.toarray()[:9, 10:], np.zeros((9, 10)))
    with pytest.raises(DimensionMismatch):
        derivative_map(10, make_space(np.eye(15)))


def test_product_space_norm_is_componentwise():
    space = product_space(8)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)
    mesh = assemble_fem_1d(8)
    expected = np.sqrt(u @ (mesh.mass @ u) + v @ (mesh.mass @ v))
    assert norm(space, np.concatenate([u, v])) == pytest.approx(expected, rel=1e-13)


def test_fhn_instance_packaging():
    # the triple: a continuous set on the product space its gram spec
    # names, and a map spec whose derivative map starts from that space
    sset, gram_spec, map_spec = make_fhn_instance(FhnConfig(nodes=10, t_end=0.2, dt=0.01))
    assert sset.kind == "continuous"
    assert sset.count == 20
    assert sset.data.shape == (20, 20)
    assert np.array_equal(sset.space.gram.toarray(), product_space(10).gram.toarray())
    assert np.array_equal(
        resolve_gram_spec(gram_spec, 20).gram.toarray(), sset.space.gram.toarray()
    )
    assert map_spec == {"derivative_1d": {"nodes": 10, "scheme": "forward"}}
    assert np.allclose(np.diff(sset.grid), 0.01)


def test_random_instance_reproducible():
    a = random_instance(7, 5, seed=9)
    b = random_instance(7, 5, seed=9)
    assert np.array_equal(a["set"].data, b["set"].data)
    assert np.array_equal(a["set"].weights, b["set"].weights)
    assert np.array_equal(a["space_x"].gram.toarray(), b["space_x"].gram.toarray())
    assert np.array_equal(a["map"].matrix, b["map"].matrix)
    c = random_instance(7, 5, seed=10)
    assert not np.array_equal(a["set"].data, c["set"].data)


def test_random_instance_certified_inverse():
    inst = random_instance(8, 6, seed=11)
    lmap = inst["map"]
    assert lmap.inverse is not None
    assert np.allclose(lmap.inverse @ lmap.matrix, np.eye(8), atol=1e-10)
    flat = random_instance(8, 6, seed=12, invertible=False, map_rank=4)
    assert flat["map"].inverse is None
    assert np.linalg.matrix_rank(flat["map"].matrix) == 4


def test_embedding_instance_structure():
    from podkit.fem import assemble_fem_1d

    nodes = 11
    mesh = assemble_fem_1d(nodes)
    l2, h1 = mesh.mass.toarray(), (mesh.stiffness + mesh.mass).toarray()
    one = make_embedding_instance(nodes, 1)
    assert np.allclose(one["space_x"].gram.toarray(), l2)
    assert np.allclose(one["space_y"].gram.toarray(), h1)
    assert one["form"] is None
    two = make_embedding_instance(nodes, 2)
    assert np.allclose(two["space_x"].gram.toarray(), h1)
    assert np.allclose(two["space_y"].gram.toarray(), l2)
    three = make_embedding_instance(nodes, 3)
    assert np.allclose(three["form"].toarray(), h1)
    for inst in (one, two, three):
        assert np.array_equal(inst["map"].matrix.toarray(), np.eye(nodes))
        assert inst["map"].inverse is not None
    with pytest.raises(DimensionMismatch):
        make_embedding_instance(nodes, 4)


def test_embedding_norm_inequality():
    # the stiffness part only adds energy: the plain norm never exceeds the
    # derivative-augmented one, with equality exactly on constants
    inst = make_embedding_instance(13, 1)
    l2, h1 = inst["space_x"], inst["space_y"]
    ones = np.ones(13)
    assert norm(l2, ones) == pytest.approx(1.0, rel=1e-12)
    assert norm(h1, ones) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.standard_normal(13)
        assert norm(l2, v) <= norm(h1, v) + 1e-12


def test_trajectory_peaks_within_its_counted_arrays(tmp_path):
    # the budget counts TRAJECTORY_ARRAYS dense 2n x (steps + 1) arrays: the
    # traced peak of solving, packaging and saving a bundle as generate-fhn does
    config = FhnConfig(nodes=60, t_end=2.0)
    tracemalloc.start()
    try:
        sset, gram_spec, _ = make_fhn_instance(config)
        save(sset, str(tmp_path / "f.json"), gram_spec=gram_spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sset.count == 400
    assert peak < 8 * TRAJECTORY_ARRAYS * 120 * 401


@pytest.mark.parametrize("nodes", [1000, 5000])
def test_synthetic_set_peaks_within_its_counted_arrays(tmp_path, nodes):
    # the budget counts SYNTHETIC_ARRAYS dense nodes x (snapshots + 1)
    # arrays: the traced peak of generating and saving a bundle as
    # generate-synthetic does
    tracemalloc.start()
    try:
        sset, gram_spec, _ = embedding_set(nodes, seed=1)
        save(sset, str(tmp_path / "s.json"), gram_spec=gram_spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sset.data.shape == (nodes, EMBEDDING_SNAPSHOTS)
    assert peak < 8 * SYNTHETIC_ARRAYS * nodes * (EMBEDDING_SNAPSHOTS + 1)
