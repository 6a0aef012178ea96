"""Assembly oracle: every matrix entry is checked against elementwise
two-point Gauss quadrature of the hat functions, which is exact for the
polynomial degrees involved (products of P1 functions and their slopes).
The convection form the projector tests use, oracles.convection, is checked
the same way."""

import numpy as np
import pytest

from podkit.fem import assemble_fem_1d

from oracles import convection

# Gauss-Legendre nodes on [-1, 1], exact through degree 3.
GAUSS_X = np.array([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
GAUSS_W = np.array([1.0, 1.0])


def hat(grid, i, x):
    h = grid[1] - grid[0]
    return np.clip(1.0 - np.abs(x - grid[i]) / h, 0.0, None)


def hat_slope(grid, i, x):
    # derivative of the i-th hat, defined inside elements
    h = grid[1] - grid[0]
    out = np.zeros_like(x)
    out[(x > grid[i] - h) & (x < grid[i])] = 1.0 / h
    out[(x > grid[i]) & (x < grid[i] + h)] = -1.0 / h
    if i == 0:
        out[(x >= grid[0]) & (x < grid[1])] = -1.0 / h
    if i == len(grid) - 1:
        out[(x > grid[-2]) & (x <= grid[-1])] = 1.0 / h
    return out


def nodes_of(n):
    """The node coordinates of assemble_fem_1d(n)."""
    return np.linspace(0.0, 1.0, n)


def integrate(grid, f):
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * np.sum(GAUSS_W * f(mid + half * GAUSS_X))
    return total


@pytest.mark.parametrize("nodes", [2, 5, 11])
def test_mass_matches_quadrature(nodes):
    mass, grid = assemble_fem_1d(nodes).mass.toarray(), nodes_of(nodes)
    for i in range(nodes):
        for j in range(nodes):
            ref = integrate(grid, lambda x: hat(grid, i, x) * hat(grid, j, x))
            assert mass[i, j] == pytest.approx(ref, abs=1e-14)


@pytest.mark.parametrize("nodes", [2, 5, 11])
def test_stiffness_matches_quadrature(nodes):
    stiffness, grid = assemble_fem_1d(nodes).stiffness.toarray(), nodes_of(nodes)
    for i in range(nodes):
        for j in range(nodes):
            ref = integrate(grid, lambda x: hat_slope(grid, i, x) * hat_slope(grid, j, x))
            assert stiffness[i, j] == pytest.approx(ref, abs=1e-12)


def test_convection_matches_quadrature():
    form, grid = convection(7).toarray(), nodes_of(7)
    for i in range(7):
        for j in range(7):
            ref = integrate(grid, lambda x: hat_slope(grid, j, x) * hat(grid, i, x))
            assert form[i, j] == pytest.approx(ref, abs=1e-14)


def test_convection_symmetric_part_is_boundary_only():
    # integration by parts: (u', v) + (v', u) = u(1)v(1) - u(0)v(0)
    n = 9
    form = convection(n)
    boundary = np.zeros((n, n))
    boundary[-1, -1] = 1.0
    boundary[0, 0] = -1.0
    assert np.allclose((form + form.T).toarray(), boundary, atol=1e-15)


def test_mass_spd_stiffness_kernel():
    mesh = assemble_fem_1d(14)
    eig_m = np.linalg.eigvalsh(mesh.mass.toarray())
    assert eig_m[0] > 0.0
    eig_s = np.linalg.eigvalsh(mesh.stiffness.toarray())
    # exactly one zero direction: the constants
    assert eig_s[0] == pytest.approx(0.0, abs=1e-12)
    assert eig_s[1] > 1e-8
    const = np.ones(14)
    assert np.linalg.norm(mesh.stiffness @ const) < 1e-12


def test_deriv_reproduces_seminorm():
    # ||D v||^2 weighted by element lengths equals v^T S v for any nodal v
    mesh = assemble_fem_1d(23)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(23)
        slopes = mesh.deriv @ v
        semi = float(np.sum(mesh.element_lengths * slopes**2))
        assert semi == pytest.approx(float(v @ (mesh.stiffness @ v)), rel=1e-12)


def test_deriv_on_linear_function():
    mesh = assemble_fem_1d(6)
    v = 3.0 * nodes_of(6) + 1.0
    assert np.allclose(mesh.deriv @ v, 3.0)


def test_two_nodes_rejected_below():
    with pytest.raises(ValueError):
        assemble_fem_1d(1)
