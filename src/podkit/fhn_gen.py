"""Snapshot generators: a stiff excitable-media solver and synthetic instances.

The PDE test problem is a FitzHugh-Nagumo system on the unit interval,

    u_t = mu u_xx - v / mu + f(u) / mu + c / mu,      f(u) = u (u - 0.1) (1 - u),
    v_t = b u - gamma v + c,

with homogeneous initial data, a prescribed boundary slope
u_x(t, 0) = -50000 t^3 exp(-15 t) feeding an impulse in from the left end,
and a zero slope at the right end.  Space is discretized by piecewise linear
finite elements with the nonlinearity interpolated at the nodes; time by a
fixed-step two-stage L-stable singly diagonally implicit Runge-Kutta scheme
with Newton iteration on the cubic.  The Newton matrix M - h gamma J is
factored in LAPACK band storage: with u and v interleaved as
[u_0, v_0, u_1, v_1, ...] the tridiagonal mass and stiffness blocks make it
a band with three sub- and superdiagonals.  Its f'(u)-free part is built
once per solve, and each factorization (at every stage start and at Newton
iterations 8 and 16) adds only the three f'(u)-dependent uu diagonals, read
off the sparse FEM matrices; the right-hand side and the Newton residual are
one sparse product each.

The module also builds the product state space (two L^2 components), the
block derivative map into elementwise constants, identity-embedding instances
between the L^2 and H^1 inner products on one mesh, and seeded random
instances used by the property suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DimensionMismatch, SolverDiverged
from .fem import assemble_fem_1d
from .gram_space import check_dense_budget, make_space
from .linear_map import derivative_map, identity_map, make_map
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
# in 2n x (steps + 1) doubles: 2.02 to 2.07 (tracemalloc, 100 and 400 nodes),
# the states and the midpoint snapshots.  Checked against
# gram_space.DENSE_BYTES_BUDGET before the solve; the default 2,000 steps
# are refused above 5,589 nodes.
TRAJECTORY_ARRAYS = 3


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
    """dgbtrf band storage of the interleaved matrix with tridiagonal blocks.

    blocks maps (row species, column species), 0 for u and 1 for v, to an
    n x n tridiagonal sparse block.  Entry (i, j) of the interleaved matrix goes to
    row 2 * NEWTON_BAND + i - j of column j; the top NEWTON_BAND rows are
    left zero for the pivoting fill-in.
    """
    ab = np.zeros((3 * NEWTON_BAND + 1, 2 * n))
    for (row, col), block in blocks.items():
        for d in (-1, 0, 1):
            lo, hi = max(0, -d), n - max(0, d)
            ab[2 * NEWTON_BAND + 2 * d + row - col, 2 * lo + col : 2 * hi : 2] = (
                block.diagonal(-d)
            )
    return ab


def solve_fhn(config):
    """Integrate the system; returns (time grid, states of shape (2n, steps+1)).

    The state stacks the nodal values of u over those of v.  With the source
    c = 0 and the boundary drive disabled the zero state is stationary and
    the trajectory stays identically zero.
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
    c = config.c

    Mb = sparse.block_diag((M, M), format="csr")
    # rhs(w) = K [u; v; f(u)] + source, one sparse product per evaluation
    K = sparse.block_array(
        [[-mu * S, M / -mu, M / mu], [b * M, -gam * M, None]], format="csr"
    )
    source = np.concatenate((M @ np.full(n, c / mu), M @ np.full(n, c)))

    def rhs(t, w):
        u = w[:n]
        out = K @ np.concatenate((w, u * (u - 0.1) * (1.0 - u))) + source
        if config.boundary_drive:
            out[0] += mu * boundary_pulse(t)
        return out

    # Mb - coeff * J = band - band_fp * f'(u) on the u columns
    h = config.dt
    gam_s = SDIRK_GAMMA
    coeff = h * gam_s
    band = _interleaved_band(
        {
            (0, 0): M + coeff * mu * S,
            (0, 1): (coeff / mu) * M,
            (1, 0): (-coeff * b) * M,
            (1, 1): (1.0 + coeff * gam) * M,
        },
        n,
    )
    band_fp = _interleaved_band({(0, 0): (coeff / mu) * M}, n)

    def factor(Y, t_stage):
        u = Y[:n]
        fp = -3.0 * u**2 + 2.2 * u - 0.1
        ab = band - band_fp * np.repeat(fp, 2)
        if not np.all(np.isfinite(ab)):
            raise SolverDiverged(f"Newton matrix not finite at t = {t_stage:.6f}")
        lu, piv, info = dgbtrf(ab, NEWTON_BAND, NEWTON_BAND, overwrite_ab=1)
        if info != 0:
            raise SolverDiverged(f"Newton matrix singular at t = {t_stage:.6f}")
        return lu, piv

    def stage_solve(t_stage, y_base, const, guess):
        Y = guess.copy()
        lu, piv = factor(Y, t_stage)
        for it in range(NEWTON_MAX_ITER):
            F = Mb @ (Y - y_base) - coeff * rhs(t_stage, Y) - const
            # interleave -F, solve, and return to the [u; v] layout
            x, _ = dgbtrs(
                lu, NEWTON_BAND, NEWTON_BAND, -F.reshape(2, n).T.ravel(), piv
            )
            delta = x.reshape(n, 2).T.ravel()
            Y += delta
            nd = np.max(np.abs(delta))
            if nd <= NEWTON_ABS_TOL + NEWTON_REL_TOL * np.max(np.abs(Y)):
                return Y
            if it in (8, 16):
                lu, piv = factor(Y, t_stage)
            if not np.all(np.isfinite(Y)):
                break
        raise SolverDiverged(f"Newton stalled at t = {t_stage:.6f}")

    states = np.zeros((2 * n, steps + 1))
    w = np.zeros(2 * n)
    zero = np.zeros(2 * n)
    for k in range(steps):
        tn = grid[k]
        Y1 = stage_solve(tn + gam_s * h, w, zero, w)
        const = h * (1.0 - gam_s) * rhs(tn + gam_s * h, Y1)
        w = stage_solve(tn + h, w, const, Y1)
        states[:, k + 1] = w
    return grid, states


def make_product_space(nodes):
    """L^2 x L^2 Gram matrix for the stacked state [u; v]."""
    mesh = assemble_fem_1d(nodes)
    return make_space(sparse.block_diag((mesh.mass, mesh.mass), format="csr"))


def make_fhn_L(nodes, domain=None):
    """Forward-derivative map (linear_map.derivative_map) on nodal [u; v].

    The domain defaults to the L^2 product space of the two-species state;
    a one-component domain gives the derivative of a single nodal field.
    """
    domain = make_product_space(nodes) if domain is None else domain
    return derivative_map(nodes, domain)


def make_fhn_instance(config=None):
    """Solve the system and package snapshots, spaces and the derivative map."""
    config = config or FhnConfig()
    grid, states = solve_fhn(config)
    lmap = make_fhn_L(config.nodes)
    sset = from_trajectory(grid, states, space=lmap.domain)
    return {
        "set": sset,
        "space_x": lmap.domain,
        "space_y": lmap.codomain,
        "map": lmap,
        "grid": grid,
        "states": states,
        "config": config,
    }


def synthetic_states(nodes, count, seed=0):
    """Smooth deterministic trajectory samples on the unit-interval mesh:
    SYNTHETIC_FIELDS cosine fields with amplitudes decaying by SYNTHETIC_DECAY."""
    grid = np.linspace(0.0, 1.0, nodes)  # the nodes of assemble_fem_1d(nodes)
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


def embedding_set(nodes, which=1, seed=None):
    """The snapshot set of make_embedding_instance(nodes, which, seed) alone,
    on the ambient space of its layout; the seed defaults to 100 + which."""
    if which not in (1, 2, 3):
        raise DimensionMismatch(f"embedding instance must be 1, 2 or 3, got {which}")
    space = resolve_gram_spec({"fem_stiffness" if which == 2 else "fem_mass": nodes}, nodes)
    seed = 100 + which if seed is None else seed
    tgrid, states = synthetic_states(nodes, EMBEDDING_SNAPSHOTS, seed)
    return from_trajectory(tgrid, states, space=space)


def make_embedding_instance(nodes, which, seed=None):
    """Identity-embedding instance between the L^2 and H^1 inner products.

    which = 1: ambient L^2, codomain H^1 (the natural embedding direction
    reversed: the map is the identity, only the norms change).
    which = 2: ambient H^1, codomain L^2.
    which = 3: variant of 1 that also carries the H^1 bilinear form for the
    form-determined projection family.

    Returns a dict with the snapshot set (embedding_set, attached to the
    ambient space), both spaces, the sparse identity map (with its exact
    inverse), and the form as a CSR array (or None).
    """
    sset = embedding_set(nodes, which, seed)
    space_y = resolve_gram_spec({"fem_mass" if which == 2 else "fem_stiffness": nodes}, nodes)
    return {
        "set": sset,
        "space_x": sset.space,
        "space_y": space_y,
        "map": identity_map(sset.space, space_y, kind="embedding"),
        "form": space_y.gram if which == 3 else None,
    }


def _random_spd_space(rng, dim):
    A = rng.standard_normal((dim, dim))
    return make_space((A.T @ A + dim * np.eye(dim)) / dim)


def _random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))[None, :]


def random_instance(
    dim,
    s,
    seed,
    invertible=True,
    dim_y=None,
    map_rank=None,
    data_rank=None,
    kind="discrete",
):
    """Seeded random weighted-POD instance with a controlled spectrum.

    Data columns are synthesized from an exact-rank SVD with log-uniform
    singular values, so the numerical rank is unambiguous; Gram matrices are
    random SPD with eigenvalues of order one; invertible maps are random
    orthogonal-diagonal-orthogonal products with condition at most four.
    Rank-deficient or rectangular maps are produced by the matching knobs.

    Returns a dict with the snapshot set, both spaces, and the map.
    """
    rng = np.random.default_rng(seed)
    space_x = _random_spd_space(rng, dim)
    dim_y = dim if dim_y is None else dim_y
    space_y = _random_spd_space(rng, dim_y)

    rk = min(dim, s) if data_rank is None else min(data_rank, dim, s)
    U = _random_orthogonal(rng, dim)[:, :rk]
    V = _random_orthogonal(rng, s)[:, :rk]
    sv = np.exp(rng.uniform(np.log(0.3), np.log(3.0), rk))
    data = U @ (sv[:, None] * V.T)

    if invertible:
        if dim_y != dim:
            raise DimensionMismatch("invertible instances need equal dimensions")
        d = np.exp(rng.uniform(np.log(0.5), np.log(2.0), dim))
        matrix = _random_orthogonal(rng, dim) @ (
            d[:, None] * _random_orthogonal(rng, dim).T
        )
        lmap = make_map(space_x, space_y, matrix, invertible=True)
    else:
        mrk = min(dim, dim_y) if map_rank is None else min(map_rank, dim, dim_y)
        d = np.exp(rng.uniform(np.log(0.5), np.log(2.0), mrk))
        matrix = _random_orthogonal(rng, dim_y)[:, :mrk] @ (
            d[:, None] * _random_orthogonal(rng, dim)[:, :mrk].T
        )
        lmap = make_map(space_x, space_y, matrix)

    if kind == "continuous":
        t0 = np.cumsum(rng.uniform(0.05, 1.0, s + 1))
        grid = t0 - t0[0]
        sset = make_snapshot_set(
            data, np.diff(grid), kind="continuous", grid=grid, space=space_x
        )
    else:
        weights = rng.uniform(0.5, 2.0, s)
        sset = make_snapshot_set(data, weights, kind="discrete", space=space_x)
    return {"set": sset, "space_x": space_x, "space_y": space_y, "map": lmap}
