"""Piecewise linear finite elements on a uniform 1-D mesh over [0, 1].

Element integrals are exact: on an element of length h the local mass matrix
is h/6 * [[2, 1], [1, 2]] and the local stiffness matrix is
1/h * [[1, -1], [-1, 1]].  The derivative operator maps nodal values to the
(constant) slopes on each element; paired with the diagonal Gram matrix of
element lengths it reproduces the H^1 seminorm exactly.  The matrices are
scipy.sparse CSR arrays in O(n) memory; call .toarray() for a dense one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass
class FemMesh:
    """Assembled matrices for an n-node uniform mesh on [0, 1].

    Attributes
    ----------
    nodes : int
        Number of mesh nodes (n >= 2).
    h : float
        Element length 1 / (n - 1).
    grid : ndarray, shape (n,)
        Node coordinates.
    mass : scipy.sparse.csr_array, shape (n, n)
        L^2 Gram matrix of the nodal hat functions (tridiagonal).
    stiffness : scipy.sparse.csr_array, shape (n, n)
        Gram matrix of their derivatives (singular on its own: constants).
    convection : scipy.sparse.csr_array, shape (n, n)
        First-derivative form (u', v); skew apart from boundary terms, used
        to build nonsymmetric elliptic forms.
    deriv : scipy.sparse.csr_array, shape (n - 1, n)
        Nodal values -> elementwise slopes (bidiagonal).
    element_lengths : ndarray, shape (n - 1,)
        Quadrature weights of the elementwise-constant derivative space.
    """

    nodes: int
    h: float
    grid: np.ndarray
    mass: sparse.csr_array
    stiffness: sparse.csr_array
    convection: sparse.csr_array
    deriv: sparse.csr_array
    element_lengths: np.ndarray


def assemble_fem_1d(nodes):
    """Assemble mass, stiffness and derivative matrices for [0, 1].

    Parameters
    ----------
    nodes : int
        Number of equispaced nodes, at least 2.

    Returns
    -------
    FemMesh
    """
    n = int(nodes)
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    h = 1.0 / (n - 1)
    grid = np.linspace(0.0, 1.0, n)

    def tridiagonal(below, main, above):
        return sparse.diags_array(
            [below, main, above], offsets=(-1, 0, 1), shape=(n, n), format="csr"
        )

    off = np.ones(n - 1)
    half_ends = np.ones(n)
    half_ends[[0, -1]] = 0.5  # an end node lies in one element, not two
    mass = tridiagonal(off * (h / 6.0), half_ends * (2.0 * h / 3.0), off * (h / 6.0))
    stiffness = tridiagonal(off * (-1.0 / h), half_ends * (2.0 / h), off * (-1.0 / h))
    boundary = np.zeros(n)
    boundary[[0, -1]] = -0.5, 0.5
    convection = tridiagonal(off * -0.5, boundary, off * 0.5)
    deriv = sparse.diags_array([-off / h, off / h], offsets=(0, 1), shape=(n - 1, n), format="csr")

    return FemMesh(
        nodes=n,
        h=h,
        grid=grid,
        mass=mass,
        stiffness=stiffness,
        convection=convection,
        deriv=deriv,
        element_lengths=np.full(n - 1, h),
    )
