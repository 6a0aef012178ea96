"""Proper orthogonal decomposition of weighted snapshot sets.

Mathematically this is the method of snapshots: the eigenvalues of the
weighted correlation matrix C_ij = sqrt(g_i g_j) (w_j, w_i)_X are the squared
singular values of the weighted snapshot operator

    K c = sum_j g_j c_j w_j,

the modes phi_k are orthonormal in the ambient space, and the right vectors
f_k are orthonormal in the weighted coefficient space.  Numerically the
decomposition is realized as one thin SVD of the half-weighted data matrix
A = R^T W diag(sqrt(g)), where R is the Cholesky factor of the ambient Gram
matrix.  The SVD route and the correlation eigenproblem agree in exact
arithmetic; the SVD is preferred because its backward error couples trailing
singular directions at the scale of the trailing singular values themselves,
which the deep-truncation error identities are sensitive to, while a
correlation eigensolve couples them at the scale of the leading eigenvalue.

Numerical rank is the number of eigenvalues above drop_tol times the largest
one.  The basis keeps the complete computed spectrum and the full set of
singular directions alongside the rank-truncated arrays: the error-identity
checkers need the whole tail, while callers requesting a projection are held
to the trusted range r <= rank.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import svd

from .errors import (
    DimensionMismatch,
    EigenFailure,
    IndexOutOfRange,
    MalformedManifest,
    RankExceeded,
)
from .gram_space import (
    GramSpace,
    half_weight,
    half_weight_inv,
    identity_space,
    orthonormalize,
)
from .snapshot_io import _atomic_write, _read_json, read_matrix_csv, write_matrix_csv

DEFAULT_DROP_TOL = 1e-12
SPECTRUM_GAP = 1e3


@dataclass
class PodBasis:
    """Result of a POD computation.

    Attributes
    ----------
    sigma : ndarray, shape (rank,)
        Singular values in descending order, all above the drop tolerance.
    modes : ndarray, shape (dim, rank)
        Orthonormal modes in the ambient inner product (re-orthonormalized
        after the SVD by one QR; spans of leading blocks are preserved).
    right_vectors : ndarray, shape (s, rank)
        Coefficient-side vectors, orthonormal under the weights (the leading
        right singular directions, signed like the modes).
    rank : int
    drop_tol : float
    eigenvalues : ndarray, shape (min(dim, s),)
        Complete computed spectrum (squared singular values), descending.
    modes_full, right_full : ndarray
        Singular directions for the whole spectrum, orthonormal in their
        respective inner products.  Used by the error checkers; not polished.
    space : GramSpace
        Ambient space of the snapshots.
    snapshots_ref : str
        Content fingerprint of the data the basis was computed from.
    """

    sigma: np.ndarray
    modes: np.ndarray
    right_vectors: np.ndarray
    rank: int
    drop_tol: float
    eigenvalues: np.ndarray
    modes_full: np.ndarray = field(repr=False)
    right_full: np.ndarray = field(repr=False)
    space: GramSpace = field(repr=False)
    snapshots_ref: str = ""


def fingerprint(*arrays):
    """First 12 hex digits of the SHA-1 of the arrays' bytes, in order;
    contiguous arrays are hashed in place, through the buffer protocol."""
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()[:12]


def snapshot_fingerprint(sset):
    return fingerprint(sset.data, sset.weights)


def basis_fingerprint(basis):
    return fingerprint(basis.sigma, basis.modes)


def compute_pod(sset, space=None, drop_tol=DEFAULT_DROP_TOL):
    """Compute the POD of a snapshot set.

    Parameters
    ----------
    sset : SnapshotSet
    space : GramSpace, optional
        Ambient space; defaults to the set's attached space.
    drop_tol : float
        Relative eigenvalue cutoff defining the numerical rank, in (0, 1).

    Returns
    -------
    PodBasis

    The right vectors are the raw SVD directions scaled by 1/sqrt(g), already
    weight-orthonormal to working accuracy, so nothing of size s x s is
    formed.  Each mode is signed to make its largest-magnitude entry positive.
    """
    if space is None:
        space = sset.space
    if space is None:
        raise DimensionMismatch("snapshot set has no space attached; pass one")
    if space.dim != sset.space_dim:
        raise DimensionMismatch(
            f"space dim {space.dim} != snapshot dim {sset.space_dim}"
        )
    if not (0.0 < drop_tol < 1.0):
        raise IndexOutOfRange(f"drop_tol must lie in (0, 1), got {drop_tol}")

    W = sset.data
    g12 = np.sqrt(sset.weights)
    A = half_weight(space, W * g12[None, :])  # chol^T W Gamma^{1/2}, n x s

    try:
        U, sig_full, Vt = svd(A, full_matrices=False)
    except Exception as exc:
        raise EigenFailure(str(exc)) from None

    lam = sig_full**2
    modes_full = half_weight_inv(space, U)
    right_full = Vt.T / g12[:, None]

    if lam.size and lam[0] > 0.0:
        rank = int(np.sum(lam > drop_tol * lam[0]))
    else:
        rank = 0

    modes = orthonormalize(space, modes_full[:, :rank])
    peaks = modes[np.argmax(np.abs(modes), axis=0), np.arange(rank)]
    signs = np.where(peaks < 0.0, -1.0, 1.0)
    modes *= signs
    right = right_full[:, :rank] * signs

    return PodBasis(
        sigma=sig_full[:rank].copy(),
        modes=modes,
        right_vectors=right,
        rank=rank,
        drop_tol=drop_tol,
        eigenvalues=lam,
        modes_full=modes_full,
        right_full=right_full,
        space=space,
        snapshots_ref=snapshot_fingerprint(sset),
    )


def spectrum_gapped(basis):
    """Whether the computed rank is a trustworthy proxy for the exact rank.

    True when the drop threshold removed nothing (every computed eigenvalue
    kept, so the exact rank is pinned by the dimensions) or when the spectrum
    falls by at least SPECTRUM_GAP across the cut.  Rank comparisons between two
    decompositions are only meaningful when both sides satisfy this; without
    a gap the count is a statement about the noise floor, not the data.
    """
    lam = basis.eigenvalues
    if basis.rank >= lam.size:
        return True
    below = float(lam[basis.rank])
    if below <= 0.0:
        return True
    if basis.rank == 0:
        return False
    return float(lam[basis.rank - 1]) / below >= SPECTRUM_GAP


def apply_K(sset, coeffs):
    """Weighted combination of the snapshots: K c = sum_j g_j c_j w_j."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != sset.count:
        raise DimensionMismatch(
            f"{coeffs.shape[0]} coefficients for {sset.count} snapshots"
        )
    if coeffs.ndim == 1:
        return sset.data @ (sset.weights * coeffs)
    return sset.data @ (sset.weights[:, None] * coeffs)


def apply_K_adjoint(sset, space, x):
    """Adjoint of the snapshot operator: (K* x)_j = (x, w_j)_X."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != sset.space_dim:
        raise DimensionMismatch(
            f"vector of dim {x.shape[0]} against snapshots of dim {sset.space_dim}"
        )
    return sset.data.T @ (space.gram @ x)


def project_X(basis, r, x):
    """Orthogonal projection onto the leading r modes."""
    if r < 0:
        raise IndexOutOfRange(f"negative truncation level {r}")
    if r > basis.rank:
        raise RankExceeded(f"requested r = {r} beyond computed rank {basis.rank}")
    x = np.asarray(x, dtype=float)
    Phi = basis.modes[:, :r]
    return Phi @ (Phi.T @ (basis.space.gram @ x))


def hs_norm_sq(sset, space=None):
    """Total weighted data energy sum_j g_j ||w_j||_X^2.

    Equals the squared Hilbert-Schmidt norm of the snapshot operator, and by
    the spectral identity also the sum of all POD eigenvalues.
    """
    if space is None:
        space = sset.space
    A = half_weight(space, sset.data)
    return float(np.einsum("ij,ij,j->", A, A, sset.weights))


def tail_energy(basis, r):
    """Sum of eigenvalues beyond index r over the whole computed spectrum."""
    if r < 0:
        raise IndexOutOfRange(f"negative truncation level {r}")
    return float(np.sum(basis.eigenvalues[r:]))


def optimality_oracle(sset, space, r, trials=8, seed=0):
    """Check POD optimality against random rank-r competitor families.

    Every competitor approximates snapshot j by a combination of r fixed
    vectors; its weighted squared error can never fall below the POD tail
    energy.  Competitors of three kinds are drawn: random vectors with random
    coefficients, random vectors with optimal (projection) coefficients, and
    the POD modes themselves, which must achieve the tail exactly.

    Returns a dict with the POD tail, each competitor's error, and whether
    the lower bound held with slack 1e-10.
    """
    basis = compute_pod(sset, space)
    if r < 0 or r > basis.rank:
        raise RankExceeded(f"r = {r} outside [0, {basis.rank}]")
    pod_error = tail_energy(basis, r)
    rng = np.random.default_rng(seed)
    W = sset.data
    g = sset.weights
    n = sset.space_dim

    def weighted_error(approx):
        R = W - approx
        A = half_weight(space, R)
        return float(np.einsum("ij,ij,j->", A, A, g))

    def best_coeffs(eta):
        Q = orthonormalize(space, eta)
        return Q @ (Q.T @ (space.gram @ W))

    errors = []
    for t in range(trials):
        eta = rng.standard_normal((n, r))
        if t % 2 == 0:
            coeffs = rng.standard_normal((r, sset.count))
            errors.append(weighted_error(eta @ coeffs))
        else:
            errors.append(weighted_error(best_coeffs(eta)))
    if r:
        errors.append(weighted_error(best_coeffs(basis.modes[:, :r])))
    else:
        errors.append(weighted_error(np.zeros_like(W)))

    slack = 1e-10
    return {
        "r": r,
        "pod_error": pod_error,
        "competitor_errors": errors,
        "min_competitor": min(errors),
        "all_ge": all(e >= pod_error - slack for e in errors),
        "trials": trials,
    }


def save_basis(basis, manifest_path):
    """Persist sigma, rank and the basis arrays (17 significant digits)."""
    manifest_path = os.path.abspath(manifest_path)
    base = os.path.dirname(manifest_path)
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    modes_name = stem + "_modes.csv"
    right_name = stem + "_right.csv"
    write_matrix_csv(os.path.join(base, modes_name), basis.modes)
    write_matrix_csv(os.path.join(base, right_name), basis.right_vectors)
    manifest = {
        "sigma": [float(v) for v in basis.sigma],
        "rank": int(basis.rank),
        "drop_tol": float(basis.drop_tol),
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "snapshots_ref": basis.snapshots_ref,
        "modes": modes_name,
        "right_vectors": right_name,
    }
    _atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_basis(manifest_path, space=None):
    """Load a basis bundle written by save_basis.

    The full-spectrum helper arrays are restored only up to the stored rank;
    recompute from the data when a checker needs the complete tail.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    manifest = _read_json(manifest_path)
    for key in ("sigma", "rank", "modes", "right_vectors"):
        if key not in manifest:
            raise MalformedManifest(f"{manifest_path}: missing key {key!r}")
    sigma = np.asarray(manifest["sigma"], dtype=float)
    rank = int(manifest["rank"])
    if sigma.shape != (rank,):
        raise MalformedManifest(f"{rank} singular values expected, got {sigma.shape}")
    modes = read_matrix_csv(os.path.join(base, manifest["modes"]))
    right = read_matrix_csv(os.path.join(base, manifest["right_vectors"]))
    if rank == 0:
        modes = np.zeros((modes.shape[0], 0)) if modes.size else modes.reshape(modes.shape[0], 0)
        right = np.zeros((right.shape[0], 0)) if right.size else right.reshape(right.shape[0], 0)
    if modes.shape[1] != rank or right.shape[1] != rank:
        raise MalformedManifest("basis arrays inconsistent with stored rank")
    eigenvalues = np.asarray(manifest.get("eigenvalues", sigma**2), dtype=float)
    if space is None:
        space = identity_space(modes.shape[0])
    return PodBasis(
        sigma=sigma,
        modes=modes,
        right_vectors=right,
        rank=rank,
        drop_tol=float(manifest.get("drop_tol", DEFAULT_DROP_TOL)),
        eigenvalues=eigenvalues,
        modes_full=modes,
        right_full=right,
        space=space,
        snapshots_ref=manifest.get("snapshots_ref", ""),
    )
