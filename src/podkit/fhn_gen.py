"""Snapshot generators: a stiff excitable-media solver and synthetic instances.

The PDE test problem is a FitzHugh-Nagumo system on the unit interval,

    u_t = mu u_xx - v / mu + f(u) / mu + c / mu,      f(u) = u (u - 0.1) (1 - u),
    v_t = b u - gamma v + c,

with homogeneous initial data, a prescribed boundary slope
u_x(t, 0) = -50000 t^3 exp(-15 t) feeding an impulse in from the left end,
and a zero slope at the right end.  Space is discretized by piecewise linear
finite elements with the nonlinearity interpolated at the nodes; time by a
fixed-step two-stage L-stable singly diagonally implicit Runge-Kutta scheme
with Newton iteration on the cubic.  The solver works with u and v
interleaved as [u_0, v_0, u_1, v_1, ...] throughout, where the tridiagonal
mass and stiffness blocks make every operator a band with three sub- and
superdiagonals.  The Newton matrix M - h gamma J is factored in LAPACK band
storage: its f'(u)-free part A0 is built once per solve, and each
factorization (at every stage start and at Newton iterations 8 and 16) adds
only the three f'(u)-dependent uu diagonals.  The Newton residual is two
banded products (dgbmv), A0 Y minus the f(u) term, against a right-hand side
formed once per stage (Hairer and Wanner, Solving ODEs II, sec. IV.8).  Each
midpoint snapshot is stored as its step ends; no state trajectory is held.
Given a snapshot_io.CsvStream, the solver hands it every STREAM_BLOCK
finished snapshots, so a helper process formats the data CSV on another
core while the later steps are solved.

The module also makes the smooth synthetic snapshots of generate-synthetic.
Both generators return a bundle as (snapshot set, gram spec, map spec), the
specs that snapshot_io.save and the map file record; the set's space is
snapshot_io.resolve_gram_spec of the gram spec, as load builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DimensionMismatch, SolverDiverged
from .fem import assemble_fem_1d
from .gram_space import check_dense_budget
from .snapshot_io import from_trajectory, make_snapshot_set, resolve_gram_spec

SDIRK_GAMMA = 1.0 - np.sqrt(2.0) / 2.0
NEWTON_ABS_TOL = 1e-8
NEWTON_REL_TOL = 1e-6
NEWTON_MAX_ITER = 25
NEWTON_BAND = 3
SYNTHETIC_FIELDS = 8
SYNTHETIC_DECAY = 0.45
EMBEDDING_SNAPSHOTS = 40
# Peak of solving and packaging a trajectory (make_fhn_instance, then save),
# in 2n x (steps + 1) doubles: 1.04, 1.09 and 1.21 (tracemalloc; 400 and 100
# nodes at 2,000 steps, 60 nodes at 400), the midpoint snapshots and the
# smaller working arrays beside them.  Checked against
# gram_space.DENSE_BYTES_BUDGET before the solve; the default 2,000 steps
# are refused above 8,384 nodes.
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


def _interleaved_band(blocks, n):
    """General band storage (dgbmv's, kl = ku = NEWTON_BAND, Fortran order)
    of the interleaved matrix with tridiagonal blocks.

    blocks maps (row species, column species), 0 for u and 1 for v, to an
    n x n tridiagonal sparse block.  Entry (i, j) of the interleaved matrix
    goes to row NEWTON_BAND + i - j of column j.
    """
    ab = np.zeros((2 * NEWTON_BAND + 1, 2 * n), order="F")
    for (row, col), block in blocks.items():
        for d in (-1, 0, 1):
            lo, hi = max(0, -d), n - max(0, d)
            ab[NEWTON_BAND + 2 * d + row - col, 2 * lo + col : 2 * hi : 2] = (
                block.diagonal(-d)
            )
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
    M = mesh.mass
    S = mesh.stiffness
    mu = np.float64(config.mu)  # mu = 0 makes inf entries, not ZeroDivisionError
    b = config.b
    gam = config.gamma_param
    h = config.dt
    gam_s = SDIRK_GAMMA
    coeff = h * gam_s

    # Every vector below is interleaved, [u_0, v_0, u_1, v_1, ...].  With
    # rhs(t, w) = K_lin w + (M / mu) f(u) on the u rows + forcing(t), the
    # Newton matrix Mb - coeff * J is A0 - band_fp * f'(u) on the u columns,
    # A0 = Mb - coeff * K_lin, band_fp = coeff * (M / mu) on the uu block.
    mass = _interleaved_band({(0, 0): M, (1, 1): M}, n)
    k_lin = _interleaved_band(
        {(0, 0): -mu * S, (0, 1): M / -mu, (1, 0): b * M, (1, 1): -gam * M}, n
    )
    a0 = mass - coeff * k_lin
    band_fp = _interleaved_band({(0, 0): (coeff / mu) * M}, n)
    # scipy's dgbmv takes at least kl + ku + 1 rows, so below 4 nodes the
    # products' outputs carry zero rows past 2n
    rows = max(2 * n, 2 * NEWTON_BAND + 1)
    source = np.zeros(rows)
    source[: 2 * n : 2] = M @ np.full(n, config.c / mu)
    source[1 : 2 * n : 2] = M @ np.full(n, config.c)
    f_u = np.zeros(2 * n)  # f(u) on the u entries, zero on the v entries

    def gbmv(ab, x, alpha, y, beta=1.0):
        """alpha * ab x + beta * y, in place in y (of rows entries)."""
        return dgbmv(
            rows, 2 * n, NEWTON_BAND, NEWTON_BAND, alpha, ab, x,
            beta=beta, y=y, overwrite_y=1,
        )

    def nonlinear(Y):
        u = Y[::2]
        f_u[::2] = u * (u - 0.1) * (1.0 - u)
        return f_u

    def forcing(t):
        out = source.copy()
        if config.boundary_drive:
            out[0] += mu * boundary_pulse(t)
        return out

    def factor(Y, t_stage):
        u = Y[::2]
        fp = -3.0 * u**2 + 2.2 * u - 0.1
        ab = np.zeros((3 * NEWTON_BAND + 1, 2 * n), order="F")  # top rows: fill-in
        ab[NEWTON_BAND:] = a0 - band_fp * np.repeat(fp, 2)
        if not np.all(np.isfinite(ab)):
            raise SolverDiverged(f"Newton matrix not finite at t = {t_stage:.6f}")
        lu, piv, info = dgbtrf(ab, NEWTON_BAND, NEWTON_BAND, overwrite_ab=1)
        if info != 0:
            raise SolverDiverged(f"Newton matrix singular at t = {t_stage:.6f}")
        return lu, piv

    def stage_solve(t_stage, y_base, const, guess):
        """Y with Mb (Y - y_base) = coeff * rhs(t_stage, Y) + const."""
        r_stage = gbmv(mass, y_base, 1.0, const + coeff * forcing(t_stage))
        Y = guess.copy()
        lu, piv = factor(Y, t_stage)
        for it in range(NEWTON_MAX_ITER):
            # -F = r_stage - A0 Y + band_fp f(u)
            neg_f = gbmv(a0, Y, -1.0, r_stage.copy())
            neg_f = gbmv(band_fp, nonlinear(Y), 1.0, neg_f)
            delta, _ = dgbtrs(lu, NEWTON_BAND, NEWTON_BAND, neg_f[: 2 * n], piv, overwrite_b=1)
            Y += delta
            y_max = abs(Y).max()  # nan when Y holds one
            if abs(delta).max() <= NEWTON_ABS_TOL + NEWTON_REL_TOL * y_max:
                return Y
            if it in (8, 16):
                lu, piv = factor(Y, t_stage)
            if not np.isfinite(y_max):
                break
        raise SolverDiverged(f"Newton stalled at t = {t_stage:.6f}")

    data = np.empty((2 * n, steps))
    w = np.zeros(2 * n)
    sent = 0  # snapshots handed to the stream
    for k in range(steps):
        t1 = grid[k] + gam_s * h
        Y1 = stage_solve(t1, w, 0.0, w)
        # h (1 - gamma) rhs(t1, Y1); band_fp carries coeff = h gamma
        const = gbmv(k_lin, Y1, h * (1.0 - gam_s), forcing(t1), h * (1.0 - gam_s))
        const = gbmv(band_fp, nonlinear(Y1), (1.0 - gam_s) / gam_s, const)
        w_next = stage_solve(grid[k] + h, w, const, Y1)
        mid = 0.5 * (w_next + w)
        data[:n, k], data[n:, k] = mid[::2], mid[1::2]
        w = w_next
        if stream is not None and (k + 1 - sent == STREAM_BLOCK or k + 1 == steps):
            stream.write(data[:, sent : k + 1])
            sent = k + 1
    return grid, data


def make_fhn_instance(config=None, stream=None):
    """Solve the system; returns generate-fhn's (snapshot set, gram spec, map
    spec): the two-species L^2 product space and the forward derivative.
    A stream receives the snapshots as solve_fhn computes them."""
    config = config or FhnConfig()
    grid, data = solve_fhn(config, stream)
    n = config.nodes
    gram_spec = {"block_diag": [{"fem_mass": n}] * 2}
    sset = make_snapshot_set(
        data, np.diff(grid), kind="continuous", grid=grid,
        space=resolve_gram_spec(gram_spec, 2 * n),
    )
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
