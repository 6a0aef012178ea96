"""Certified error identities and bounds for POD projections.

Each checker evaluates one side of an identity by explicit projection of the
data (the "actual" route) and the other side from the spectrum and the mode
tails (the "formula" route).  The two routes share only the Gram-space
primitives; agreement is the certificate.  Inequality checkers evaluate both
sides the same way and test the ordering with a small slack.

Identity and bound tags
-----------------------
- pod_x:            weighted data error of the mode projection, ambient norm
- pod_x_mapped:     the same residuals pushed through a map, codomain norm
- proj_y:           data error of a codomain projection of the mapped data
- pullback_x:       data error of the inverse-conjugated codomain projection
- hs_*:             the three above at operator level (Hilbert-Schmidt norms)
- range_exact:      exact residual formula per snapshot (with a rounding
  floor), and the per-snapshot singular-value bound snap_sigma_bound
- snap_*:           per-snapshot squared-error bounds by the identity tails
- pw_*:             pointwise tail bounds for elements reproduced from a
  coefficient vector

All squared-error identities sum their spectral side over the complete
computed spectrum, not just the kept rank: with unbounded-looking maps the
below-tolerance tail still carries weight at the certified accuracy.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MissingDataFile,
    NotInvertible,
    ProvenanceMismatch,
)
from .gram_space import half_weight, norm
from .linear_map import apply_inverse
from .pod_engine import project_X, tail_energy
from .projector import (
    apply_projector,
    mapped_orthogonal_projector,
    pod_projector,
    pushforward_projector,
    ritz_projector,
)
from .snapshot_io import _atomic_write

IDENTITY_RTOL = 1e-8
IDENTITY_ABS_FLOOR = 1e-14
EXACT_RTOL = 1e-9
EXACT_FLOOR_UNITS = 32.0  # range_exact floor, in units of u sigma_1 / sqrt(g)
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
BOUND_SLACK = 1e-10

CSV_COLUMNS = ("identity_id", "r", "actual", "formula", "abs_diff", "rel_diff", "passed")


@dataclass
class ErrorReport:
    """Outcome of one identity or bound evaluation.

    lhs is the explicitly computed quantity ("actual"), rhs the spectral
    formula.  For identities, passed means the relative difference is within
    tol or both sides sit below the absolute floor; for bounds it means
    lhs <= rhs plus slack.
    """

    identity_id: str
    r: int
    lhs: float
    rhs: float
    abs_diff: float
    rel_diff: float
    passed: bool
    kind: str = "identity"
    tol: float = IDENTITY_RTOL
    info: dict = field(default_factory=dict)


def _compare(lhs, rhs, tol):
    """Elementwise absolute and relative differences (rel 0 where both sides
    are) and the identity verdict: within tol, or both sides negligible."""
    abs_diff = np.abs(lhs - rhs)
    denom = np.maximum(np.abs(lhs), np.abs(rhs))
    rel_diff = abs_diff / np.where(denom > 0.0, denom, 1.0)
    small = (np.abs(lhs) <= IDENTITY_ABS_FLOOR) & (np.abs(rhs) <= IDENTITY_ABS_FLOOR)
    return abs_diff, rel_diff, (rel_diff <= tol) | small


def identity_report(identity_id, r, lhs, rhs, tol=None, info=None):
    tol = IDENTITY_RTOL if tol is None else tol
    lhs = float(lhs)
    rhs = float(rhs)
    abs_diff, rel_diff, passed = _compare(lhs, rhs, tol)
    return ErrorReport(
        identity_id=identity_id,
        r=r,
        lhs=lhs,
        rhs=rhs,
        abs_diff=float(abs_diff),
        rel_diff=float(rel_diff),
        passed=bool(passed),
        kind="identity",
        tol=tol,
        info=info or {},
    )


def bound_report(identity_id, r, lhs, rhs, slack=None, info=None):
    slack = BOUND_SLACK if slack is None else slack
    lhs = float(lhs)
    rhs = float(rhs)
    abs_diff, rel_diff, _ = _compare(lhs, rhs, slack)
    return ErrorReport(
        identity_id=identity_id,
        r=r,
        lhs=lhs,
        rhs=rhs,
        abs_diff=float(abs_diff),
        rel_diff=float(rel_diff),
        passed=lhs <= rhs + slack,
        kind="bound",
        tol=slack,
        info=info or {},
    )


def _weighted_energy(space, columns, weights):
    A = half_weight(space, columns)
    return float(np.einsum("ij,ij,j->", A, A, weights))


def _column_sq_norms(space, columns):
    A = half_weight(space, columns)
    return np.einsum("ij,ij->j", A, A)


def _project_cols(basis, r, columns):
    if r == 0:
        return np.zeros_like(columns)
    return project_X(basis, r, columns)


def _check_proj_y(proj_y, lmap, r):
    if proj_y.space.dim != lmap.codomain.dim:
        raise DimensionMismatch("codomain projector does not live on the codomain")
    if proj_y.r != r:
        raise ProvenanceMismatch(
            f"codomain projector has r = {proj_y.r}, check runs at r = {r}"
        )


# -- weighted-sum identities -------------------------------------------------

def check_pod_error(sset, basis, r, tol=None):
    """Weighted squared data error of the rank-r mode projection.

    Identity: sum_j g_j ||w_j - P_r w_j||_X^2 equals the spectral tail.
    """
    W = sset.data
    residual = W - _project_cols(basis, r, W)
    lhs = _weighted_energy(basis.space, residual, sset.weights)
    rhs = tail_energy(basis, r)
    return identity_report("pod_x", r, lhs, rhs, tol)


def check_mapped_pod_error(sset, basis, lmap, r, tol=None):
    """Mode-projection residuals pushed through the map, codomain norm.

    Identity: sum_j g_j ||L w_j - L P_r w_j||_Y^2 equals the eigenvalue tail
    weighted by the squared codomain norms of the mapped modes.
    """
    W = sset.data
    residual = lmap.matrix @ (W - _project_cols(basis, r, W))
    lhs = _weighted_energy(lmap.codomain, residual, sset.weights)
    tail_modes = lmap.matrix @ basis.modes_full[:, r:]
    rhs = float(
        np.dot(basis.eigenvalues[r:], _column_sq_norms(lmap.codomain, tail_modes))
    )
    return identity_report("pod_x_mapped", r, lhs, rhs, tol)


def check_projected_error(sset, basis, lmap, proj_y, r, tol=None):
    """Data error of a codomain projection applied to the mapped data.

    Identity: sum_j g_j ||L w_j - Q L w_j||_Y^2 equals the eigenvalue tail
    weighted by the projection residuals of the mapped modes.
    """
    _check_proj_y(proj_y, lmap, r)
    LW = lmap.matrix @ sset.data
    lhs = _weighted_energy(
        lmap.codomain, LW - apply_projector(proj_y, LW), sset.weights
    )
    LPhi = lmap.matrix @ basis.modes_full[:, r:]
    res = LPhi - apply_projector(proj_y, LPhi)
    rhs = float(np.dot(basis.eigenvalues[r:], _column_sq_norms(lmap.codomain, res)))
    return identity_report("proj_y", r, lhs, rhs, tol)


def check_pullback_error(sset, basis, lmap, proj_y, r, tol=None):
    """Data error of the inverse-conjugated codomain projection, ambient norm.

    Identity: sum_j g_j ||w_j - L^{-1} Q L w_j||_X^2 equals the eigenvalue
    tail weighted by the same conjugated residuals of the modes.
    """
    if lmap.inverse is None:
        raise NotInvertible("pullback identity needs an invertible map")
    _check_proj_y(proj_y, lmap, r)
    W = sset.data
    LW = lmap.matrix @ W
    pulled = apply_inverse(lmap, apply_projector(proj_y, LW))
    lhs = _weighted_energy(basis.space, W - pulled, sset.weights)
    Phi = basis.modes_full[:, r:]
    LPhi = lmap.matrix @ Phi
    pulled_modes = apply_inverse(lmap, apply_projector(proj_y, LPhi))
    rhs = float(
        np.dot(
            basis.eigenvalues[r:],
            _column_sq_norms(basis.space, Phi - pulled_modes),
        )
    )
    return identity_report("pullback_x", r, lhs, rhs, tol)


# -- operator-level identities -----------------------------------------------

def _hs_norm_sq_matrix(space_out, sset, op_matrix):
    """Squared Hilbert-Schmidt norm of an operator out of the weighted
    coefficient space, from its coordinate matrix.

    Realized as the Frobenius norm of chol_out^T M Gamma^{-1/2}: columns are
    weighted by 1/g_j because e_j / sqrt(g_j) is an orthonormal basis of the
    coefficient space.
    """
    A = half_weight(space_out, op_matrix)
    return float(np.einsum("ij,ij,j->", A, A, 1.0 / sset.weights))


def check_hs_identities(sset, basis, lmap, proj_y, r, tol=None):
    """The three squared-error identities at operator level.

    The actual side is the Hilbert-Schmidt norm of the explicit operator
    difference (snapshot operator minus its projected counterpart); the
    formula side reuses the spectral tails.  Returns two reports, or three
    when the map is invertible.
    """
    _check_proj_y(proj_y, lmap, r)
    MK = sset.data * sset.weights[None, :]
    PK = _project_cols(basis, r, MK)
    LMK = lmap.matrix @ MK

    reports = []

    M_a = lmap.matrix @ (MK - PK)
    lhs = _hs_norm_sq_matrix(lmap.codomain, sset, M_a)
    tail_modes = lmap.matrix @ basis.modes_full[:, r:]
    rhs = float(
        np.dot(basis.eigenvalues[r:], _column_sq_norms(lmap.codomain, tail_modes))
    )
    reports.append(identity_report("hs_pod_x_mapped", r, lhs, rhs, tol))

    M_b = LMK - apply_projector(proj_y, LMK)
    lhs = _hs_norm_sq_matrix(lmap.codomain, sset, M_b)
    LPhi = lmap.matrix @ basis.modes_full[:, r:]
    res = LPhi - apply_projector(proj_y, LPhi)
    rhs = float(np.dot(basis.eigenvalues[r:], _column_sq_norms(lmap.codomain, res)))
    reports.append(identity_report("hs_proj_y", r, lhs, rhs, tol))

    if lmap.inverse is not None:
        M_c = MK - apply_inverse(lmap, apply_projector(proj_y, LMK))
        lhs = _hs_norm_sq_matrix(basis.space, sset, M_c)
        Phi = basis.modes_full[:, r:]
        pulled = apply_inverse(lmap, apply_projector(proj_y, lmap.matrix @ Phi))
        rhs = float(
            np.dot(
                basis.eigenvalues[r:],
                _column_sq_norms(basis.space, Phi - pulled),
            )
        )
        reports.append(identity_report("hs_pullback_x", r, lhs, rhs, tol))

    return reports


# -- per-snapshot results ----------------------------------------------------

def _coeff_inner(sset, basis, g):
    """(g, f_k) in the weighted coefficient space, for all computed k."""
    g = np.asarray(g, dtype=float)
    if g.shape != (sset.count,):
        raise DimensionMismatch(
            f"coefficient vector of shape {g.shape} for {sset.count} snapshots"
        )
    return basis.right_full.T @ (sset.weights * g)


def _worst_index(passed, rel_diff):
    """Worst row: failures first, then the largest rel_diff, then lowest index."""
    candidates = np.flatnonzero(~passed)
    if candidates.size == 0:
        candidates = np.arange(passed.size)
    return int(candidates[np.argmax(rel_diff[candidates])])


def check_range_residual(sset, basis, r, ell, tol_exact=None):
    """Exact residual formula and singular-value bound for snapshots ell.

    Snapshot ell is the image of the scaled coordinate coefficient vector,
    so its projection residual norm equals the square root of the eigenvalue
    tail weighted by the squared right-vector entries at ell.  The companion
    bound caps the residual by sigma_{r+1} over the square root of the
    snapshot's weight.  The exact row also passes when the sides differ by
    at most EXACT_FLOOR_UNITS * u * sigma_1 / sqrt(g_ell), u the unit
    roundoff: the SVD's backward error carried over to snapshot ell (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 19), recorded in
    info["floor"].  ell is one index or a sequence of them, evaluated in one
    block; each report then names its worst snapshot.

    Returns (exact_report, bound_report).
    """
    tol_exact = EXACT_RTOL if tol_exact is None else tol_exact
    ells = np.atleast_1d(np.asarray(ell))
    if ells.size == 0 or np.any((ells < 0) | (ells >= sset.count)):
        raise IndexOutOfRange(f"snapshot index {ell} outside [0, {sset.count})")
    W = sset.data[:, ells]
    lhs = np.sqrt(_column_sq_norms(basis.space, W - _project_cols(basis, r, W)))
    lam = basis.eigenvalues
    rhs = np.sqrt(basis.right_full[ells, r:] ** 2 @ lam[r:])
    inv_sqrt_g = 1.0 / np.sqrt(sset.weights[ells])
    sigma_1 = float(np.sqrt(lam[0])) if lam.size else 0.0
    floor = EXACT_FLOOR_UNITS * UNIT_ROUNDOFF * sigma_1 * inv_sqrt_g
    abs_diff, rel_diff, passed = _compare(lhs, rhs, tol_exact)
    passed |= abs_diff <= floor
    i = _worst_index(passed, rel_diff)
    exact = identity_report(
        "range_exact", r, lhs[i], rhs[i], tol_exact,
        info={"ell": int(ells[i]), "floor": float(floor[i])},
    )
    exact.passed = bool(passed[i])  # the floor can pass a row outside tol

    sigma_next = float(np.sqrt(lam[r])) if r < lam.size else 0.0
    cap = sigma_next * inv_sqrt_g
    _, cap_rel, _ = _compare(lhs, cap, 0.0)
    j = _worst_index(lhs <= cap + BOUND_SLACK, cap_rel)
    bound = bound_report(
        "snap_sigma_bound", r, lhs[j], cap[j],
        info={"ell": int(ells[j]), "sigma_next": sigma_next},
    )
    return exact, bound


def snapshot_guarantee_threshold(sset, basis):
    """Smallest r at which every coefficient vector is captured well enough.

    The per-snapshot bounds are guaranteed once
    max_ell || g_ell - P_r g_ell ||_S <= 1, where g_ell reproduces snapshot
    ell and P_r projects onto the leading right vectors.  Returns None when
    no computable r satisfies the criterion (possible whenever the rank falls
    short of the snapshot count: the leftover coefficient mass sits in the
    kernel of the data operator and no computed mode sees it).
    """
    g_norm_sq = 1.0 / sset.weights
    captured = np.zeros(sset.count)
    F = basis.right_full
    for r in range(1, basis.rank + 1):
        captured += F[:, r - 1] ** 2
        worst = float(np.max(g_norm_sq - captured))
        if worst <= 1.0:
            return r
    return None


def check_snapshot_bounds(sset, basis, r, lmap=None, proj_y=None, slack=None):
    """Per-snapshot squared-error bounds by the identity tails.

    Evaluates, for every snapshot, the squared residual of (a) the mode
    projection against sigma_{r+1}^2 and, when a map and codomain projector
    are supplied, (b) the codomain projection of the mapped snapshot against
    the projected-mode tail, (c) the mapped residual against the mapped-mode
    tail, and with an invertible map (d) the pulled-back residual against
    its tail.  Each bound reports its worst snapshot.

    Returns a dict with the guarantee threshold r0 (None if unattainable),
    whether the requested r is covered, and the reports.  The capture bounds
    are only claimed from r0 upward; below it each row passes and carries the
    raw outcome in info["holds"].
    """
    if lmap is not None and proj_y is not None:
        _check_proj_y(proj_y, lmap, r)
    W = sset.data
    lam = basis.eigenvalues
    r0 = snapshot_guarantee_threshold(sset, basis)
    guaranteed = r0 is not None and r >= r0

    res_x = W - _project_cols(basis, r, W)
    sq_x = _column_sq_norms(basis.space, res_x)
    sigma_next_sq = float(lam[r]) if r < lam.size else 0.0

    def worst(label, sq, cap):
        i = int(np.argmax(sq))
        rep = bound_report(
            label, r, float(sq[i]), cap, slack,
            info={"ell": i, "guaranteed": guaranteed, "r0": r0},
        )
        if not guaranteed:
            # Below the guarantee threshold the inequality is evaluated but
            # not asserted; record the raw outcome and let the row pass.
            rep.info["holds"] = rep.passed
            rep.passed = True
        return rep

    reports = [worst("snap_pod_x", sq_x, sigma_next_sq)]
    if lmap is None or proj_y is None:
        return {"r0": r0, "r": r, "guaranteed": guaranteed, "reports": reports}

    LW = lmap.matrix @ W
    res_proj = LW - apply_projector(proj_y, LW)
    sq_proj = _column_sq_norms(lmap.codomain, res_proj)
    LPhi = lmap.matrix @ basis.modes_full[:, r:]
    tail_proj = float(
        np.dot(lam[r:], _column_sq_norms(lmap.codomain, LPhi - apply_projector(proj_y, LPhi)))
    )

    res_map = lmap.matrix @ res_x
    sq_map = _column_sq_norms(lmap.codomain, res_map)
    tail_map = float(np.dot(lam[r:], _column_sq_norms(lmap.codomain, LPhi)))

    reports.append(worst("snap_proj_y", sq_proj, tail_proj))
    reports.append(worst("snap_pod_x_mapped", sq_map, tail_map))
    if lmap.inverse is not None:
        Phi = basis.modes_full[:, r:]
        pulled_modes = apply_inverse(lmap, apply_projector(proj_y, lmap.matrix @ Phi))
        tail_pull = float(
            np.dot(lam[r:], _column_sq_norms(basis.space, Phi - pulled_modes))
        )
        pulled = apply_inverse(lmap, apply_projector(proj_y, LW))
        sq_pull = _column_sq_norms(basis.space, W - pulled)
        reports.append(worst("snap_pullback_x", sq_pull, tail_pull))

    return {"r0": r0, "r": r, "guaranteed": guaranteed, "reports": reports}


# -- pointwise bounds --------------------------------------------------------

def check_pointwise(kind, sset, basis, g, r, lmap, proj_y=None, slack=None):
    """Tail bound on the error of one reproduced element.

    g is a coefficient vector; the element is its image under the snapshot
    operator (pushed through the map for the codomain variants).  Kinds:

    - "proj_y":      codomain projection error of the mapped element
    - "composite_y": error of the map-conjugated mode projection
    - "composite_x": ambient error of the inverse-conjugated projection

    The report's info carries the looser Cauchy-Schwarz version of the bound
    alongside the sharp one.
    """
    g = np.asarray(g, dtype=float)
    coeffs = _coeff_inner(sset, basis, g)
    x = sset.data @ (sset.weights * g)
    lam = basis.eigenvalues
    sig_tail = np.sqrt(lam[r:])
    amp_tail = np.abs(coeffs[r:])

    if kind == "proj_y":
        if proj_y is None:
            raise ProvenanceMismatch("proj_y bound needs the codomain projector")
        _check_proj_y(proj_y, lmap, r)
        y = lmap.matrix @ x
        lhs = norm(lmap.codomain, apply_projector(proj_y, y) - y)
        LPhi = lmap.matrix @ basis.modes_full[:, r:]
        res = apply_projector(proj_y, LPhi) - LPhi
        res_norms = np.sqrt(_column_sq_norms(lmap.codomain, res))
        label = "pw_proj_y"
    elif kind == "composite_y":
        if lmap.inverse is None:
            raise NotInvertible("composite codomain bound needs an invertible map")
        y = lmap.matrix @ x
        back = apply_inverse(lmap, y)
        lhs = norm(
            lmap.codomain, y - lmap.matrix @ _project_cols(basis, r, back[:, None])[:, 0]
        )
        LPhi = lmap.matrix @ basis.modes_full[:, r:]
        res_norms = np.sqrt(_column_sq_norms(lmap.codomain, LPhi))
        label = "pw_composite_y"
    elif kind == "composite_x":
        if lmap.inverse is None:
            raise NotInvertible("composite ambient bound needs an invertible map")
        if proj_y is None:
            raise ProvenanceMismatch("composite ambient bound needs the codomain projector")
        _check_proj_y(proj_y, lmap, r)
        pulled = apply_inverse(lmap, apply_projector(proj_y, lmap.matrix @ x))
        lhs = norm(basis.space, x - pulled)
        Phi = basis.modes_full[:, r:]
        pulled_modes = apply_inverse(lmap, apply_projector(proj_y, lmap.matrix @ Phi))
        res_norms = np.sqrt(_column_sq_norms(basis.space, Phi - pulled_modes))
        label = "pw_composite_x"
    else:
        raise IndexOutOfRange(f"unknown pointwise bound kind {kind!r}")

    rhs = float(np.sum(sig_tail * amp_tail * res_norms))
    cs_rhs = float(
        np.sqrt(np.sum(amp_tail**2)) * np.sqrt(np.sum(lam[r:] * res_norms**2))
    )
    return bound_report(
        label, r, lhs, rhs, slack,
        info={"cs_rhs": cs_rhs, "cs_passed": lhs <= cs_rhs + (BOUND_SLACK if slack is None else slack)},
    )


# -- sweeps and serialization ------------------------------------------------

def build_codomain_projector(basis, lmap, r, family="orthogonal", form=None):
    """Construct the codomain projector a sweep or battery asks for."""
    if family == "orthogonal":
        return mapped_orthogonal_projector(basis, lmap, r)
    if family == "ritz":
        if form is None:
            raise ProvenanceMismatch("ritz family needs a bilinear form matrix")
        return ritz_projector(basis, lmap, form, r)
    if family == "pushforward":
        if lmap.inverse is None:
            raise NotInvertible("pushforward projector needs an invertible map")
        return pushforward_projector(lmap, basis, r)
    raise IndexOutOfRange(f"unknown codomain projector family {family!r}")


def sweep(sset, basis, lmap, r_list, family="orthogonal", form=None, tol=None):
    """Run the data-error identities over a list of truncation levels.

    Per level: the ambient identity, the mapped identity, the projected
    identity, and with an invertible map the pulled-back identity.  Returns
    the reports in evaluation order.
    """
    reports = []
    for r in r_list:
        proj_y = build_codomain_projector(basis, lmap, r, family, form)
        reports.append(check_pod_error(sset, basis, r, tol))
        reports.append(check_mapped_pod_error(sset, basis, lmap, r, tol))
        reports.append(check_projected_error(sset, basis, lmap, proj_y, r, tol))
        if lmap.inverse is not None:
            reports.append(check_pullback_error(sset, basis, lmap, proj_y, r, tol))
    return reports


def report_rows(reports):
    rows = []
    for rep in reports:
        rows.append(
            {
                "identity_id": rep.identity_id,
                "r": rep.r,
                "actual": rep.lhs,
                "formula": rep.rhs,
                "abs_diff": rep.abs_diff,
                "rel_diff": rep.rel_diff,
                "passed": rep.passed,
            }
        )
    return rows


def write_report_csv(reports, path):
    lines = [",".join(CSV_COLUMNS)]
    for row in report_rows(reports):
        lines.append(
            ",".join(
                [
                    row["identity_id"],
                    str(row["r"]),
                    "%.16e" % row["actual"],
                    "%.16e" % row["formula"],
                    "%.16e" % row["abs_diff"],
                    "%.16e" % row["rel_diff"],
                    str(bool(row["passed"])).lower(),
                ]
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_report_json(reports, path, extra=None):
    payload = {
        "all_passed": all(rep.passed for rep in reports),
        "checks": [
            {
                **row,
                "kind": rep.kind,
                "tol": rep.tol,
                "info": {k: _jsonable(v) for k, v in rep.info.items()},
            }
            for row, rep in zip(report_rows(reports), reports)
        ],
    }
    if extra:
        payload.update(extra)
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return path


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def read_report(path):
    """Load a report written by write_report_csv or write_report_json."""
    if not os.path.exists(path):
        raise MissingDataFile(f"no such report: {path}")
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        return payload["checks"]
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            rows.append(
                {
                    "identity_id": raw["identity_id"],
                    "r": int(raw["r"]),
                    "actual": float(raw["actual"]),
                    "formula": float(raw["formula"]),
                    "abs_diff": float(raw["abs_diff"]),
                    "rel_diff": float(raw["rel_diff"]),
                    "passed": raw["passed"] == "true",
                }
            )
        return rows
