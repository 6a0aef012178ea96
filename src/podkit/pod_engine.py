"""Proper orthogonal decomposition of weighted snapshot sets.

Mathematically this is the method of snapshots: the eigenvalues of the
weighted correlation matrix C_ij = sqrt(g_i g_j) (w_j, w_i)_X are the squared
singular values of the weighted snapshot operator

    K c = sum_j g_j c_j w_j,

the modes phi_k are orthonormal in the ambient space, and the right vectors
f_k are orthonormal in the weighted coefficient space.  Numerically the
decomposition is realized as one thin SVD of the whitened data matrix
A = C^T W diag(sqrt(g)), G = C C^T, filled by column blocks into the one
data-sized working copy beside the data and the right vectors; other
data-sized temporaries are blocks of gram_space.COLUMN_BLOCK_BYTES.
numpy.linalg.svd (xGESDD) factors the orientation with at least as many
rows as columns, A itself or, for wide data, the view A^T, so that it
reduces by QR rather than LQ, and the roles of its vectors swap back
without a copy.  It works in buffers of its own, a copy of its input, its
vectors and its workspace: by peak RSS (one BLAS thread) the SVD alone
adds 10.2 to 10.4 MiB for a 3.1 MB 200 x 2000 input (13.0 to 13.1 in the
wide orientation), and compute_pod adds 15.5 MiB over load on the
flagship, so it first checks snapshot_io.POD_ARRAYS data-sized arrays
against the dense budget.  Its left vectors are the modes in whitened
coordinates, U = C^T Phi, which the certificate reads; pod writes Phi.  The
SVD route and the correlation eigenproblem agree in exact arithmetic; the
SVD is preferred because its backward error couples trailing singular
directions at the scale of the trailing singular values themselves, which
the deep-truncation error identities are sensitive to, while a correlation
eigensolve couples them at the scale of the leading eigenvalue.

Numerical rank is the number of eigenvalues above drop_tol times the largest
one.  The basis keeps the complete computed spectrum and the full set of
singular directions: the error-identity checkers need the whole tail, while
every truncation level is held to the trusted range 1 <= r <= rank
(error_lab.check_level), whose modes are the leading columns of the same
arrays.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EigenFailure, IndexOutOfRange
from .gram_space import GramSpace, check_dense_budget, half_weight_inv, whitened_blocks
from .snapshot_io import POD_ARRAYS, _atomic_write, _digest, write_matrix_csv

DEFAULT_DROP_TOL = 1e-12
# A mode is signed by its first entry whose magnitude is within this
# fraction of the largest.  Symmetric modes (the synthetic sets') have two
# largest magnitudes equal to within 1e-12, which round-off orders; the
# flagship's closest pair is 1.8e-7 apart, outside the band.
SIGN_TIE_RTOL = 1e-10


@dataclass
class PodBasis:
    """Result of a POD computation: one set of singular directions.

    Attributes
    ----------
    eigenvalues : ndarray, shape (min(dim, s),)
        Complete computed spectrum (squared singular values), descending.
    rank : int
        Number of eigenvalues above drop_tol times the largest; the trusted
        range of truncation levels.
    drop_tol : float
    modes_full : ndarray, shape (dim, min(dim, s))
        Modes for the whole spectrum, orthonormal in the ambient inner
        product as the SVD leaves them; each of the leading rank columns is
        signed to make positive its first entry within SIGN_TIE_RTOL of its
        largest magnitude.
    left_full : ndarray, shape (dim, min(dim, s))
        The modes in whitened coordinates, U = C^T Phi: the SVD's own left
        vectors, with the modes' signs.
    right_full : ndarray, shape (s, min(dim, s))
        Coefficient-side vectors for the whole spectrum, orthonormal under
        the weights; the leading rank columns carry the modes' signs.
    space : GramSpace
        Ambient space of the snapshots.
    snapshots_ref : str
        Content fingerprint of the data the basis was computed from.

    modes, right_vectors and sigma are the rank-r arrays, read-only: views
    of the leading rank columns of modes_full and right_full, and
    sqrt(eigenvalues[:rank]).  So dataclasses.replace(basis, rank=k) is the
    basis cut to its leading k modes.
    """

    eigenvalues: np.ndarray
    rank: int
    drop_tol: float
    modes_full: np.ndarray = field(repr=False)
    left_full: np.ndarray = field(repr=False)
    right_full: np.ndarray = field(repr=False)
    space: GramSpace = field(repr=False)
    snapshots_ref: str = ""

    @property
    def modes(self):
        return self.modes_full[:, : self.rank]

    @property
    def right_vectors(self):
        return self.right_full[:, : self.rank]

    @property
    def sigma(self):
        return np.sqrt(self.eigenvalues[: self.rank])


def fingerprint(*arrays):
    """First 12 hex digits of the BLAKE2b-256 (snapshot_io._digest) of the
    arrays' bytes, in order; contiguous arrays are hashed in place, through
    the buffer protocol."""
    h = _digest()
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()[:12]


def compute_pod(sset, drop_tol=DEFAULT_DROP_TOL):
    """Compute the POD of a snapshot set in its attached space.

    Parameters
    ----------
    sset : SnapshotSet
    drop_tol : float
        Relative eigenvalue cutoff defining the numerical rank, in (0, 1).

    Returns
    -------
    PodBasis

    The right vectors are the raw SVD directions scaled by 1/sqrt(g), already
    weight-orthonormal to working accuracy, so nothing of size s x s is
    formed.  Each leading mode is signed, in place with its right vector,
    to make positive its first entry within SIGN_TIE_RTOL of its largest
    magnitude, so round-off cannot choose between two tied entries.
    """
    space = sset.space
    if space is None:
        raise DimensionMismatch("snapshot set has no space attached")
    if space.dim != sset.space_dim:
        raise DimensionMismatch(f"space dim {space.dim} != snapshot dim {sset.space_dim}")
    if not (0.0 < drop_tol < 1.0):
        raise IndexOutOfRange(f"drop_tol must lie in (0, 1), got {drop_tol}")

    W = sset.data
    check_dense_budget(POD_ARRAYS, W.shape, "the POD")
    g12 = np.sqrt(sset.weights)
    A = np.empty(W.shape, order="F")  # C^T W Gamma^{1/2}, n x s, by blocks
    for blk, whitened, _ in whitened_blocks(W, space, scale=g12):
        A[:, blk] = whitened

    if A.shape[0] >= A.shape[1]:
        U, sig_full, Vt = _svd(A)
    else:  # A^T = V S U^T, a C-order view: xGESDD's QR route, not its LQ
        Vt, sig_full, U = (x.T for x in _svd(A.T))
    del A  # freed before the basis arrays are formed

    lam = sig_full**2
    modes_full = half_weight_inv(space, U)
    right_full = np.divide(Vt, g12, out=Vt).T  # in place
    rank = numerical_rank(lam, drop_tol)

    lead = modes_full[:, :rank]
    mags = np.abs(lead)
    # the first entry within SIGN_TIE_RTOL of the column's largest magnitude
    first = np.argmax(mags >= (1.0 - SIGN_TIE_RTOL) * mags.max(axis=0), axis=0)
    signs = np.where(lead[first, np.arange(rank)] < 0.0, -1.0, 1.0)
    lead *= signs
    U[:, :rank] *= signs
    right_full[:, :rank] *= signs

    return PodBasis(
        eigenvalues=lam,
        rank=rank,
        drop_tol=drop_tol,
        modes_full=modes_full,
        left_full=U,
        right_full=right_full,
        space=space,
        snapshots_ref=fingerprint(W, sset.weights),
    )


def _svd(A, compute_uv=True):
    """numpy.linalg.svd's thin SVD, EigenFailure for non-finite entries,
    which numpy does not check, or when it does not converge."""
    if not np.isfinite(A).all():
        raise EigenFailure("the SVD input has non-finite entries")
    try:
        return np.linalg.svd(A, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None


def numerical_rank(lam, drop_tol):
    """The number of eigenvalues above drop_tol times the largest one."""
    return int(np.sum(lam > drop_tol * lam[0])) if lam.size and lam[0] > 0.0 else 0


def image_spectrum(lmap, sset):
    """The POD eigenvalues of {L w_j}, same weights, descending: whitened
    blocks of >= codomain dim columns of A = C_y^T L W Gamma^{1/2} fold into
    an R-only Householder QR of A^T (Golub & Van Loan 5.2), so no image set
    is formed."""
    if sset.space_dim != lmap.domain.dim:
        raise DimensionMismatch(f"snapshots of dim {sset.space_dim}, map from {lmap.domain.dim}")
    dim_y, g12 = lmap.codomain.dim, np.sqrt(sset.weights)
    R = np.zeros((0, dim_y))
    for blk, _, image in whitened_blocks(sset.data, lmap=lmap, min_width=dim_y):
        R = np.linalg.qr(np.vstack((R, (image * g12[blk]).T)), mode="r")
    return _svd(R, compute_uv=False) ** 2


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
