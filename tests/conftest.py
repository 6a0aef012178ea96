"""Shared fixtures.

The 2x2 hand instance has data W = [[1, 1], [0, 1]], unit weights and the
euclidean inner product.  Its correlation matrix [[2, 1], [1, 1]] has
eigenvalues (3 +- sqrt(5))/2, energy 3, and the rank-1 truncation error
(3 - sqrt(5))/2.  All hand values below come from that 2x2 eigenproblem.

Trajectory-driven instances are solved once per session; everything that
needs them (consistency tests and the acceptance battery) shares the cache.
"""

import numpy as np
import pytest

from podkit.fhn_gen import FhnConfig
from podkit.gram_space import identity, make_space
from podkit.snapshot_io import make_snapshot_set

from oracles import make_fhn_dict

GOLDEN_LAMBDA_1 = (3.0 + np.sqrt(5.0)) / 2.0
GOLDEN_LAMBDA_2 = (3.0 - np.sqrt(5.0)) / 2.0


def by_id(reports):
    """Rows keyed by identity_id: one battery level without pointwise rows,
    whose ids are unique."""
    return {rep.identity_id: rep for rep in reports}


@pytest.fixture
def golden_instance():
    data = np.array([[1.0, 1.0], [0.0, 1.0]])
    weights = np.array([1.0, 1.0])
    space = make_space(identity(2))
    return make_snapshot_set(data, weights, space=space)


@pytest.fixture(scope="session")
def fhn_instance():
    return make_fhn_dict(FhnConfig())


@pytest.fixture(scope="session")
def fhn_small_instance():
    # Six nodes: the trajectory fills the whole 12-dimensional state space
    # above the drop threshold, so numerical and exact ranks coincide and
    # the rank relation can be asserted strictly.
    return make_fhn_dict(FhnConfig(nodes=6))
