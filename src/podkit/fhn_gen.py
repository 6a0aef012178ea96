"""Snapshot generators: a stiff excitable-media solver and synthetic instances.

The PDE test problem is a FitzHugh-Nagumo system on the unit interval,

    u_t = mu u_xx - v / mu + f(u) / mu + c / mu,      f(u) = u (u - 0.1) (1 - u),
    v_t = b u - gamma v + c,

with homogeneous initial data, a prescribed boundary slope
u_x(t, 0) = -50000 t^3 exp(-15 t) feeding an impulse in from the left end,
and a zero slope at the right end.  Space is discretized by piecewise linear
finite elements with the nonlinearity interpolated at the nodes; time by a
fixed-step two-stage L-stable singly diagonally implicit Runge-Kutta scheme
with Newton iteration on the cubic.  A state stacks the nodal values of u
over those of v.  The v rows of every stage equation are the mass matrix
times a nodal equation, linear in the stage's u and v, so each stage's v is
eliminated node by node (block elimination; Hairer and Wanner, Solving
ODEs II, sec. IV.8) and Newton runs on u alone.  Its matrix is tridiagonal,
a fixed part minus (h gamma / mu) M diag(f'(u)) for the mass matrix M, and is
factored by dgttrf at every stage start and at Newton iterations 8 and 16;
each residual is two tridiagonal products (dgbmv) against a right-hand side
formed once per stage.  Each midpoint snapshot is stored as its step ends;
no state trajectory is held.  Given a snapshot_io.CsvStream, the solver
hands it every STREAM_BLOCK finished snapshots, so a helper process formats
the data CSV on another core while the later steps are solved.

The module also makes the smooth synthetic snapshots of generate-synthetic.
Both generators return a bundle as (snapshot set, gram spec, map spec), the
specs that snapshot_io.save and the map file record; the set's space is
snapshot_io.resolve_gram_spec of the gram spec, as load builds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SolverDiverged
from .fem import assemble_fem_1d
from .gram_space import check_dense_budget
from .snapshot_io import from_trajectory, make_snapshot_set, resolve_gram_spec

SDIRK_GAMMA = 1.0 - np.sqrt(2.0) / 2.0
NEWTON_ABS_TOL = 1e-8
NEWTON_REL_TOL = 1e-6
NEWTON_MAX_ITER = 25
SYNTHETIC_FIELDS = 8
SYNTHETIC_DECAY = 0.45
EMBEDDING_SNAPSHOTS = 40
# Peak of solving and packaging a trajectory (make_fhn_instance, then save),
# in 2n x (steps + 1) doubles: 1.03, 1.10 and 1.75 (tracemalloc; 400 and 100
# nodes at 2,000 steps, 60 nodes at 400), the midpoint snapshots and the
# smaller working arrays beside them, such as save's 256 KiB hash buffer.
# Checked against gram_space.DENSE_BYTES_BUDGET before the solve; the
# default 2,000 steps are refused above 8,384 nodes.
TRAJECTORY_ARRAYS = 2
# Peak of generating and packaging the synthetic set (embedding_set, then
# save), in nodes x (EMBEDDING_SNAPSHOTS + 1) doubles: 2.62 and 2.16
# (tracemalloc; 1,000 and 30,000 nodes), the trajectory samples, the
# midpoint snapshots and one temporary of their size.  Checked against
# gram_space.DENSE_BYTES_BUDGET before the Gram is assembled; refused above
# 545,600 nodes.
SYNTHETIC_ARRAYS = 3
# Snapshots per block handed to a CsvStream: 50 columns of the 100-node
# flagship are 80 KB of doubles, and the last block, the only one formatted
# after the solve ends, takes the helper a few milliseconds.
STREAM_BLOCK = 50


@dataclass
class FhnConfig:
    """Model and discretization parameters for the excitable-media run."""

    mu: float = 0.015
    b: float = 0.5
    gamma_param: float = 2.0
    c: float = 0.05
    nodes: int = 100
    t_end: float = 10.0
    dt: float = 0.005
    boundary_drive: bool = True


def boundary_pulse(t):
    """Magnitude of the prescribed influx at the left end."""
    return 50000.0 * t**3 * np.exp(-15.0 * t)


def _band(T, m):
    """dgbmv's band storage (kl = ku = 1, Fortran order) of the tridiagonal
    Banded T, zero-padded to m x m."""
    n = T.shape[0]
    ab = np.zeros((3, m), order="F")
    ab[0, 1:n], ab[1, :n], ab[2, : n - 1] = T.diagonal(1), T.diagonal(), T.diagonal(-1)
    return ab


def solve_fhn(config, stream=None):
    """Integrate the system; returns (time grid, snapshots of shape (2n, steps)).

    Snapshot k is the midpoint average 0.5 * (w_{k+1} + w_k) of the states
    at grid points k and k + 1, as from_trajectory forms it, written as soon
    as step k ends; a state stacks the nodal values of u over those of v.
    With a stream (a snapshot_io.CsvStream), every STREAM_BLOCK finished
    snapshots, and the last ones, go to stream.write as their steps end.
    With the source c = 0 and the boundary drive disabled the zero state is
    stationary and the snapshots stay identically zero.
    """
    # scipy is imported here, so that no other command loads it
    from scipy.linalg.blas import dgbmv
    from scipy.linalg.lapack import dgttrf, dgttrs

    n = config.nodes
    if n < 2:
        raise DimensionMismatch(f"need at least 2 nodes, got {n}")
    steps = int(round(config.t_end / config.dt))
    if steps < 1 or abs(steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise DimensionMismatch(
            f"dt = {config.dt} does not divide t_end = {config.t_end}"
        )
    check_dense_budget(TRAJECTORY_ARRAYS, (2 * n, steps + 1), "the FitzHugh-Nagumo trajectory")
    grid = np.linspace(0.0, config.t_end, steps + 1)
    mesh = assemble_fem_1d(n)
    mu = np.float64(config.mu)  # mu = 0 makes inf entries, not ZeroDivisionError
    b, gam, h = config.b, config.gamma_param, config.dt
    coeff = h * SDIRK_GAMMA
    explicit = h * (1.0 - SDIRK_GAMMA)  # stage 2's weight on rhs(t1, Y1)
    rho = explicit / coeff
    kappa = coeff / mu
    denom = 1.0 + coeff * gam
    beta = coeff * b / denom

    # A stage Y = [U; V] solves M (Y - w) = coeff rhs(t, Y) + const, with
    # const = 0 in stage 1 and explicit rhs(t1, Y1) in stage 2.  Its v rows
    # are M times a nodal equation, so V = v0 + beta U node by node, where
    # v0 = (v_base + coeff c + m_v) / denom and const's v rows are M m_v.
    # Put into the u rows, V leaves A U - m_fp f(U) = M z + q for the
    # tridiagonal A = (1 + kappa beta) M + coeff mu S and m_fp = kappa M:
    # z = u_base + kappa (c - v0) plus const's M part, a nodal vector, and q
    # the boundary influx plus const's stiffness part.
    # scipy's dgttrf takes at least 3 unknowns and dgbmv kl + ku + 1 rows,
    # so U and V carry decoupled zero nodes up to m = max(n, 3).
    m = max(n, 3)
    mass, stiff = _band(mesh.mass, m), _band(mesh.stiffness, m)
    a_u = (1.0 + kappa * beta) * mass + (coeff * mu) * stiff
    a_u[1, n:] = 1.0
    m_fp = kappa * mass
    # C order, so that dgttrf takes the Newton matrix's rows without copies
    a_rows, fp_rows = np.ascontiguousarray(a_u), np.ascontiguousarray(m_fp)
    c = np.zeros(m)
    c[:n] = config.c
    starts = grid[:-1]
    # q's influx entry, mu pulse(t) times its weight, per step and stage
    influx = (mu if config.boundary_drive else 0.0) * np.stack([
        coeff * boundary_pulse(starts + coeff),
        coeff * boundary_pulse(starts + h) + explicit * boundary_pulse(starts + coeff),
    ])

    def gbmv(ab, x, alpha, y):
        """alpha * ab x + y, in place in y."""
        # positional: incx, offx, beta, y, incy, offy, trans, overwrite_y;
        # f2py parses keywords at twice the cost of the product itself
        return dgbmv(m, m, 1, 1, alpha, ab, x, 1, 0, 1.0, y, 1, 0, 0, 1)

    def nonlinear(U):
        return U * (U - 0.1) * (1.0 - U)

    def factor(U, t_stage):
        newton = np.multiply(fp_rows, -3.0 * U**2 + 2.2 * U - 0.1)
        np.subtract(a_rows, newton, out=newton)  # A - m_fp diag(f'(U))
        if not np.isfinite(newton).all():
            raise SolverDiverged(f"Newton matrix not finite at t = {t_stage:.6f}")
        *lu, info = dgttrf(newton[2, :-1], newton[1], newton[0, 1:], 1, 1, 1)
        if info != 0:
            raise SolverDiverged(f"Newton matrix singular at t = {t_stage:.6f}")
        return lu

    def stage_solve(t_stage, z, q, v0, guess):
        """The stage [U; V] with V = v0 + beta U and A U - m_fp f(U) = M z + q."""
        r = gbmv(mass, z, 1.0, q)
        Y = guess.copy()
        delta = np.empty(2 * m)
        U, V, d_u, d_v = Y[:m], Y[m:], delta[:m], delta[m:]
        lu = factor(U, t_stage)
        jump = v0 + beta * U - V  # the guess's V to v0 + beta U, in iteration 0
        for it in range(NEWTON_MAX_ITER):
            neg_f = gbmv(m_fp, nonlinear(U), 1.0, gbmv(a_u, U, -1.0, r.copy()))
            d_u[:] = dgttrs(*lu, neg_f, "N", 1)[0]
            U += d_u
            np.multiply(d_u, beta, out=d_v)
            if it == 0:
                d_v += jump
            V += d_v
            y_max = abs(Y).max()  # nan when Y holds one
            if abs(delta).max() <= NEWTON_ABS_TOL + NEWTON_REL_TOL * y_max:
                return Y
            if it in (8, 16):
                lu = factor(U, t_stage)
            if not math.isfinite(y_max):
                break
        raise SolverDiverged(f"Newton stalled at t = {t_stage:.6f}")

    data = np.empty((2 * n, steps))
    w = np.zeros(2 * m)
    sent = 0  # snapshots handed to the stream
    for k in range(steps):
        u_base, v_base = w[:m], w[m:]
        q = np.zeros(m)
        q[0] = influx[0, k]
        v0 = (v_base + coeff * c) / denom
        Y1 = stage_solve(starts[k] + coeff, u_base + kappa * (c - v0), q, v0, w)
        # stage 2's const is explicit rhs(t1, Y1): m_v = explicit (b U1 -
        # gam V1 + c), M part rho kappa (f(U1) - V1 + c), stiffness part
        # -explicit mu S U1
        U1, V1 = Y1[:m], Y1[m:]
        v0 = (v_base + coeff * c + explicit * (b * U1 - gam * V1 + c)) / denom
        z = u_base + kappa * (c - v0 + rho * (nonlinear(U1) - V1 + c))
        q = np.zeros(m)
        q[0] = influx[1, k]
        q = gbmv(stiff, U1, -explicit * mu, q)
        w_next = stage_solve(starts[k] + h, z, q, v0, Y1)
        mid = 0.5 * (w_next + w)
        data[:n, k], data[n:, k] = mid[:n], mid[m : m + n]
        w = w_next
        if stream is not None and (k + 1 - sent == STREAM_BLOCK or k + 1 == steps):
            stream.write(data[:, sent : k + 1])
            sent = k + 1
    return grid, data


def make_fhn_instance(config=None, stream=None):
    """Solve the system; returns generate-fhn's (snapshot set, gram spec, map
    spec): the set on solve_fhn's time grid, the two-species L^2 product
    space and the forward derivative.  A stream receives the snapshots as
    solve_fhn computes them."""
    config = config or FhnConfig()
    grid, data = solve_fhn(config, stream)
    n = config.nodes
    gram_spec = {"block_diag": [{"fem_mass": n}] * 2}
    sset = make_snapshot_set(data, grid=grid, space=resolve_gram_spec(gram_spec, 2 * n))
    return sset, gram_spec, {"derivative_1d": {"nodes": n, "scheme": "forward"}}


def synthetic_states(nodes, count, seed=0):
    """Smooth deterministic trajectory samples on the unit-interval mesh:
    SYNTHETIC_FIELDS cosine fields with amplitudes decaying by SYNTHETIC_DECAY."""
    grid = np.linspace(0.0, 1.0, nodes)  # the nodes of the assemble_fem_1d mesh
    rng = np.random.default_rng(seed)
    tgrid = np.linspace(0.0, 1.0, count + 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, SYNTHETIC_FIELDS)
    fields = np.stack(
        [np.cos(np.pi * m * grid) for m in range(SYNTHETIC_FIELDS)], axis=1
    )
    amps = np.stack(
        [
            SYNTHETIC_DECAY**m * np.sin(2.0 * np.pi * (m + 1) * tgrid + phases[m])
            for m in range(SYNTHETIC_FIELDS)
        ],
        axis=0,
    )
    return tgrid, fields @ amps


def embedding_set(nodes, seed=None):
    """generate-synthetic's (snapshot set, gram spec, map spec): synthetic_states
    on the L^2 (FEM mass) space, embedded in H^1; the seed defaults to 101."""
    if nodes < 2:
        raise DimensionMismatch(f"need at least 2 nodes, got {nodes}")
    check_dense_budget(SYNTHETIC_ARRAYS, (nodes, EMBEDDING_SNAPSHOTS + 1), "the synthetic set")
    gram_spec = {"fem_mass": nodes}
    space = resolve_gram_spec(gram_spec, nodes)
    tgrid, states = synthetic_states(nodes, EMBEDDING_SNAPSHOTS, 101 if seed is None else seed)
    sset = from_trajectory(tgrid, states, space=space)
    return sset, gram_spec, {"embedding": {"from": "mass", "to": "stiffness+mass"}}
