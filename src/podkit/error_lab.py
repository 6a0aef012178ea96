"""Certified error identities and bounds for POD projections.

Every exact formula has one shape: for the residual operator T of a
projection, in the norm of a space, sum_j g_j ||T w_j||^2 equals
sum_{k>r} lambda_k ||T phi_k||^2.  The battery is written once around the
pair (T, space), one record per operator and truncation level:

- pod_x         I - P_r, ambient norm (the mode projection)
- pod_x_mapped  L (I - P_r), codomain norm
- proj_y        (I - Q) L, codomain norm, Q a codomain projection
- pullback_x    I - L^{-1} Q L, ambient norm, invertible maps only

Each record yields its data identity (T applied to the data W), the operator
form hs_* (T applied to K = W diag(g)), the per-snapshot bound snap_* and the
pointwise bound pw_* for elements K c; range_exact is the exact per-snapshot
residual of pod_x.  The actual side applies T to the data; the formula side
reads only the basis, never the data, so agreement of the two routes is the
certificate.  Spectral sums run over the complete computed spectrum: with
unbounded-looking maps the below-tolerance tail still carries weight at the
certified accuracy.

Floors: an identity passes within its relative tol or when both sides are
below its floor, a bound when lhs <= rhs + floor.  The floor is
EXACT_FLOOR_UNITS * u * scale, u the unit roundoff (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3 and 19).  The scale is the energy of
the row's input in its norm space, E = sum_k lambda_k in the ambient norm and
E = sum_j g_j ||L w_j||^2 in the codomain, times 1 / min g for snap_* rows
and ||c||_S^2 for pw_* rows, whose unsquared norms take the floor's square
root.  range_exact and snap_sigma_bound use u sigma_1 / sqrt(g_ell).  Every
row records its floor in info["floor"].
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedManifest,
    MissingDataFile,
    NotInvertible,
    ProvenanceMismatch,
)
from .gram_space import GramSpace, half_weight
from .linear_map import apply_inverse
from .pod_engine import project_X
from .projector import apply_projector, mapped_orthogonal_levels, pushforward_levels, ritz_levels
from .snapshot_io import _atomic_write, _read_json

IDENTITY_RTOL = 1e-8
EXACT_RTOL = 1e-9
EXACT_FLOOR_UNITS = 32.0  # every floor, in units of u times the row's scale
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

CSV_COLUMNS = ("identity_id", "r", "actual", "formula", "abs_diff", "rel_diff", "passed")


@dataclass
class ErrorReport:
    """Outcome of one identity or bound evaluation.

    lhs is the explicitly computed quantity ("actual"), rhs the spectral
    formula.  For identities, passed means the relative difference is within
    tol or both sides sit below info["floor"]; for bounds it means
    lhs <= rhs + floor, and tol is that floor.
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


def _floor(scale):
    return EXACT_FLOOR_UNITS * UNIT_ROUNDOFF * scale


def _compare(lhs, rhs):
    """Elementwise absolute and relative differences (rel 0 where both are 0)."""
    abs_diff = np.abs(lhs - rhs)
    denom = np.maximum(np.abs(lhs), np.abs(rhs))
    return abs_diff, abs_diff / np.where(denom > 0.0, denom, 1.0)


def _report(kind, identity_id, r, lhs, rhs, tol, floor, info=None):
    lhs, rhs, floor = float(lhs), float(rhs), float(floor)
    abs_diff, rel_diff = _compare(lhs, rhs)
    if kind == "identity":
        passed = rel_diff <= tol or max(abs(lhs), abs(rhs)) <= floor
    else:
        passed, tol = lhs <= rhs + floor, floor
    return ErrorReport(
        identity_id, r, lhs, rhs, float(abs_diff), float(rel_diff), bool(passed),
        kind, tol, {**(info or {}), "floor": floor},
    )


def _column_sq_norms(space, columns):
    A = half_weight(space, columns)
    return np.einsum("ij,ij->j", A, A)


# -- the residual-operator primitive -----------------------------------------

@dataclass
class _Residual:
    """Residual operator T of one projection at level r, in its norm space.

    apply maps ambient columns to their images under T.  mode_sq holds
    ||T phi_k||^2 for the tail modes k >= r and formula the tail sum
    sum_k lambda_k mode_sq_k, both from the basis alone; energy is the data's
    total weighted energy in this norm space, the scale of T's floors.
    """

    label: str
    space: GramSpace
    apply: Callable
    mode_sq: np.ndarray
    formula: float
    energy: float

    def sq_norms(self, columns):
        return _column_sq_norms(self.space, self.apply(columns))

    def floor(self, mass=1.0, squared=True):
        floor = _floor(self.energy * mass)
        return float(floor if squared else np.sqrt(floor))


def mapped_mode_norms(basis, lmap):
    """||L phi_k||^2 for every mode, from the basis alone and once per
    bundle: its tail [r:] is the pod_x_mapped formula side at level r."""
    return _column_sq_norms(lmap.codomain, lmap.matrix @ basis.modes_full)


def _residuals(sset, basis, r, lmap=None, proj_y=None, mode_norms=None):
    """The residual operators of level r, keyed by label in identity order:
    pod_x, with a map pod_x_mapped (from mode_norms, see battery_level), with
    a codomain projector proj_y, and with both and an invertible map pullback_x."""
    tail, lam = basis.modes_full[:, r:], basis.eigenvalues[r:]
    out = {}

    def add(label, space, apply, energy, mode_sq=None):
        if mode_sq is None:
            mode_sq = _column_sq_norms(space, apply(tail))
        out[label] = _Residual(label, space, apply, mode_sq, float(lam @ mode_sq), energy)

    def pod_x(C):
        return C - project_X(basis, r, C)

    energy_x = float(np.sum(basis.eigenvalues))
    add("pod_x", basis.space, pod_x, energy_x, np.ones(lam.size))  # pure tail
    if lmap is None:
        return out
    L, codomain = lmap.matrix, lmap.codomain
    energy_y = float(sset.weights @ _column_sq_norms(codomain, L @ sset.data))
    if mode_norms is None:
        mode_norms = mapped_mode_norms(basis, lmap)
    add("pod_x_mapped", codomain, lambda C: L @ pod_x(C), energy_y, mode_norms[r:])
    if proj_y is None:
        return out
    if proj_y.space.dim != codomain.dim:
        raise DimensionMismatch("codomain projector does not live on the codomain")
    if proj_y.r != r:
        raise ProvenanceMismatch(f"codomain projector has r = {proj_y.r}, check runs at r = {r}")

    def proj(C):
        LC = L @ C
        return LC - apply_projector(proj_y, LC)

    add("proj_y", codomain, proj, energy_y)
    if lmap.inverse is not None:
        add("pullback_x", basis.space,
            lambda C: C - apply_inverse(lmap, apply_projector(proj_y, L @ C)), energy_x)
    return out


def _identity(sset, t, r, tol, sq=None, hs=False):
    """Data identity of T, or with hs its operator form on K = W diag(g)."""
    tol = IDENTITY_RTOL if tol is None else tol
    if hs:  # e_j / sqrt(g_j) is an orthonormal basis of the coefficient space
        lhs = (1.0 / sset.weights) @ t.sq_norms(sset.data * sset.weights)
    else:
        lhs = sset.weights @ (t.sq_norms(sset.data) if sq is None else sq)
    label = "hs_" + t.label if hs else t.label
    return _report("identity", label, r, lhs, t.formula, tol, t.floor())


def battery_level(sset, basis, r, lmap=None, proj_y=None, tol=None, coeffs=None, mode_norms=None):
    """Every row of truncation level r, in report order: the data identities
    (range_exact and snap_sigma_bound after pod_x), the operator-level
    identities, the per-snapshot bounds, and the pointwise bounds of K c for
    the columns c of coeffs.  T W is formed once per operator; mode_norms
    is mapped_mode_norms(basis, lmap), computed here when not given.
    """
    res = _residuals(sset, basis, r, lmap, proj_y, mode_norms)
    sq = {label: t.sq_norms(sset.data) for label, t in res.items()}
    rows = [_identity(sset, t, r, tol, sq[label]) for label, t in res.items()]
    rows[1:1] = _range_rows(sset, basis, r, np.arange(sset.count), sq["pod_x"])
    rows += [_identity(sset, t, r, tol, hs=True) for t in list(res.values())[1:]]
    rows += _snapshot_rows(sset, basis, r, res, sq)["reports"]
    if coeffs is not None:
        rows += _pointwise_rows(sset, basis, r, lmap, res, coeffs)
    return rows


# -- weighted-sum identities -------------------------------------------------

def check_pod_error(sset, basis, r, tol=None):
    """Weighted squared data error of the rank-r mode projection.

    Identity: sum_j g_j ||w_j - P_r w_j||_X^2 equals the spectral tail.
    """
    return _identity(sset, _residuals(sset, basis, r)["pod_x"], r, tol)


def check_mapped_pod_error(sset, basis, lmap, r, tol=None):
    """Mode-projection residuals pushed through the map, codomain norm.

    Identity: sum_j g_j ||L w_j - L P_r w_j||_Y^2 equals the eigenvalue tail
    weighted by the squared codomain norms of the mapped tail modes.
    """
    return _identity(sset, _residuals(sset, basis, r, lmap)["pod_x_mapped"], r, tol)


def check_projected_error(sset, basis, lmap, proj_y, r, tol=None):
    """Data error of a codomain projection applied to the mapped data.

    Identity: sum_j g_j ||L w_j - Q L w_j||_Y^2 equals the eigenvalue tail
    weighted by the projection residuals of the mapped modes.
    """
    return _identity(sset, _residuals(sset, basis, r, lmap, proj_y)["proj_y"], r, tol)


def check_pullback_error(sset, basis, lmap, proj_y, r, tol=None):
    """Data error of the inverse-conjugated codomain projection, ambient norm.

    Identity: sum_j g_j ||w_j - L^{-1} Q L w_j||_X^2 equals the eigenvalue
    tail weighted by the same conjugated residuals of the modes.
    """
    if lmap.inverse is None:
        raise NotInvertible("pullback identity needs an invertible map")
    return _identity(sset, _residuals(sset, basis, r, lmap, proj_y)["pullback_x"], r, tol)


def check_hs_identities(sset, basis, lmap, proj_y, r, tol=None):
    """The mapped, projected and pulled-back identities at operator level:
    the Hilbert-Schmidt norm of T K against the same spectral tails.  Returns
    two reports, or three when the map is invertible."""
    res = _residuals(sset, basis, r, lmap, proj_y)
    return [_identity(sset, t, r, tol, hs=True) for t in list(res.values())[1:]]


# -- per-snapshot results ----------------------------------------------------

def _worst_index(passed, rel_diff):
    """Worst row: failures first, then the largest rel_diff, then lowest index."""
    candidates = np.flatnonzero(~passed)
    if candidates.size == 0:
        candidates = np.arange(passed.size)
    return int(candidates[np.argmax(rel_diff[candidates])])


def _range_rows(sset, basis, r, ells, sq):
    """range_exact and snap_sigma_bound from the squared pod_x residuals sq at ells."""
    lam = basis.eigenvalues
    lhs = np.sqrt(sq)
    rhs = np.sqrt(basis.right_full[ells, r:] ** 2 @ lam[r:])
    floor = _floor(np.sqrt(lam[0] / sset.weights[ells]))
    abs_diff, rel_diff = _compare(lhs, rhs)
    passed = (rel_diff <= EXACT_RTOL) | (abs_diff <= floor)
    i = _worst_index(passed, rel_diff)
    exact = _report(
        "identity", "range_exact", r, lhs[i], rhs[i], EXACT_RTOL, floor[i],
        info={"ell": int(ells[i])},
    )
    exact.passed = bool(passed[i])  # here the floor bounds the difference
    sigma_next = float(np.sqrt(lam[r])) if r < lam.size else 0.0
    cap = sigma_next / np.sqrt(sset.weights[ells])
    j = _worst_index(lhs <= cap + floor, _compare(lhs, cap)[1])
    bound = _report(
        "bound", "snap_sigma_bound", r, lhs[j], cap[j], None, floor[j],
        info={"ell": int(ells[j]), "sigma_next": sigma_next},
    )
    return [exact, bound]


def check_range_residual(sset, basis, r, ell):
    """Exact residual formula and singular-value bound for snapshots ell.

    Snapshot ell is K e_ell / g_ell, so its pod_x residual norm is the square
    root of the eigenvalue tail weighted by the squared right-vector entries
    at ell, and at most sigma_{r+1} / sqrt(g_ell).  The exact row also passes
    when the sides differ by at most its floor, the SVD's backward error
    carried over to snapshot ell.  ell is one index or a sequence, evaluated
    in one block; each report names its worst snapshot.

    Returns (exact_report, bound_report).
    """
    ells = np.atleast_1d(np.asarray(ell))
    if ells.size == 0 or np.any((ells < 0) | (ells >= sset.count)):
        raise IndexOutOfRange(f"snapshot index {ell} outside [0, {sset.count})")
    sq = _residuals(sset, basis, r)["pod_x"].sq_norms(sset.data[:, ells])
    return tuple(_range_rows(sset, basis, r, ells, sq))


def snapshot_guarantee_threshold(sset, basis):
    """Smallest r at which every coefficient vector is captured well enough.

    The per-snapshot bounds are guaranteed once
    max_ell || g_ell - P_r g_ell ||_S <= 1, where g_ell reproduces snapshot
    ell and P_r projects onto the leading right vectors.  Returns None when
    no computable r satisfies the criterion (possible whenever the rank falls
    short of the snapshot count: the leftover coefficient mass sits in the
    kernel of the data operator and no computed mode sees it).
    """
    captured = np.cumsum(basis.right_full[:, : basis.rank] ** 2, axis=1)
    worst = np.max(1.0 / sset.weights[:, None] - captured, axis=0)
    hits = np.flatnonzero(worst <= 1.0)
    return int(hits[0]) + 1 if hits.size else None


def _snapshot_rows(sset, basis, r, res, sq):
    """check_snapshot_bounds' result from each T's squared residuals sq of the data."""
    lam = basis.eigenvalues
    r0 = snapshot_guarantee_threshold(sset, basis)
    guaranteed = r0 is not None and r >= r0
    reports = []
    for t in (res[k] for k in ("pod_x", "proj_y", "pod_x_mapped", "pullback_x") if k in res):
        cap = t.formula if t.label != "pod_x" else float(lam[r]) if r < lam.size else 0.0
        i = int(np.argmax(sq[t.label]))
        # snapshot ell is K e_ell / g_ell, of energy at most E / g_ell
        floor = t.floor(1.0 / np.min(sset.weights))
        rep = _report(
            "bound", "snap_" + t.label, r, sq[t.label][i], cap, None, floor,
            info={"ell": i, "guaranteed": guaranteed, "r0": r0},
        )
        if not guaranteed:
            # Below the guarantee threshold the inequality is evaluated but
            # not asserted; record the raw outcome and let the row pass.
            rep.info["holds"] = rep.passed
            rep.passed = True
        reports.append(rep)
    return {"r0": r0, "r": r, "guaranteed": guaranteed, "reports": reports}


def check_snapshot_bounds(sset, basis, r, lmap=None, proj_y=None):
    """Per-snapshot squared-error bounds by the identity tails.

    The worst snapshot's ||T w_ell||^2 against the formula tail of T, for
    pod_x (capped by sigma_{r+1}^2) and, with a map and codomain projector,
    proj_y, pod_x_mapped and, for an invertible map, pullback_x.

    Returns a dict with the guarantee threshold r0 (None if unattainable),
    whether the requested r is covered, and the reports.  The bounds are only
    claimed from r0 upward; below it each row passes and carries the raw
    outcome in info["holds"].
    """
    # the mapped rows come as one family with the codomain projector
    res = _residuals(sset, basis, r, lmap if proj_y is not None else None, proj_y)
    sq = {label: t.sq_norms(sset.data) for label, t in res.items()}
    return _snapshot_rows(sset, basis, r, res, sq)


# -- pointwise bounds --------------------------------------------------------

_POINTWISE = {
    "proj_y": "pw_proj_y", "composite_y": "pw_composite_y", "pullback_x": "pw_composite_x"
}


def _pointwise_rows(sset, basis, r, lmap, res, coeffs):
    """pw_* rows for the elements K c, c the columns of coeffs, element by
    element in _POINTWISE order; info carries the looser Cauchy-Schwarz bound."""
    if lmap is not None and lmap.inverse is not None:
        def composite_y(C):
            LC = lmap.matrix @ C
            return LC - lmap.matrix @ project_X(basis, r, apply_inverse(lmap, LC))

        # its own actual route, measured against the pod_x_mapped tail
        res = {**res, "composite_y": replace(res["pod_x_mapped"], apply=composite_y)}
    gC = sset.weights[:, None] * coeffs
    X = sset.data @ gC
    amp = np.abs(basis.right_full[:, r:].T @ gC)
    mass = np.einsum("ij,ij->j", coeffs, gC)  # ||c||_S^2: ||K c||^2 <= E ||c||_S^2
    sig = np.sqrt(basis.eigenvalues[r:])
    kinds = [(_POINTWISE[k], res[k], res[k].sq_norms(X)) for k in _POINTWISE if k in res]
    reports = []
    for i in range(coeffs.shape[1]):
        for label, t, sq in kinds:
            lhs = float(np.sqrt(sq[i]))
            rhs = np.sum(sig * amp[:, i] * np.sqrt(t.mode_sq))
            cs_rhs = float(np.linalg.norm(amp[:, i]) * np.sqrt(t.formula))
            floor = t.floor(mass[i], squared=False)
            reports.append(_report(
                "bound", label, r, lhs, rhs, None, floor,
                info={"cs_rhs": cs_rhs, "cs_passed": lhs <= cs_rhs + floor},
            ))
    return reports


def check_pointwise(kind, sset, basis, g, r, lmap, proj_y=None):
    """Tail bound on the error of one reproduced element.

    g is a coefficient vector; the element is its image under the snapshot
    operator (pushed through the map for the codomain variants).  Kinds:

    - "proj_y":      codomain projection error of the mapped element
    - "composite_y": error of the map-conjugated mode projection
    - "composite_x": ambient error of the inverse-conjugated projection

    The report's info carries the looser Cauchy-Schwarz version of the bound
    alongside the sharp one.
    """
    if kind not in ("proj_y", "composite_y", "composite_x"):
        raise IndexOutOfRange(f"unknown pointwise bound kind {kind!r}")
    if kind != "proj_y" and lmap.inverse is None:
        raise NotInvertible(f"pointwise {kind} bound needs an invertible map")
    if kind != "composite_y" and proj_y is None:
        raise ProvenanceMismatch(f"pointwise {kind} bound needs the codomain projector")
    g = np.asarray(g, dtype=float)
    if g.shape != (sset.count,):
        raise DimensionMismatch(f"coefficients of shape {g.shape} for {sset.count} snapshots")
    res = _residuals(sset, basis, r, lmap, proj_y)
    rows = _pointwise_rows(sset, basis, r, lmap, res, g[:, None])
    return next(rep for rep in rows if rep.identity_id == "pw_" + kind)


# -- sweeps and serialization ------------------------------------------------

def codomain_projectors(basis, lmap, family="orthogonal", form=None):
    """Level factory r -> the codomain projector a sweep or battery asks
    for; the family's level-free part is built here, once."""
    if family == "orthogonal":
        return mapped_orthogonal_levels(basis, lmap)
    if family == "ritz":
        if form is None:
            raise ProvenanceMismatch("ritz family needs a bilinear form matrix")
        return ritz_levels(basis, lmap, form)
    if family == "pushforward":
        return pushforward_levels(lmap, basis)
    raise IndexOutOfRange(f"unknown codomain projector family {family!r}")


def build_codomain_projector(basis, lmap, r, family="orthogonal", form=None):
    """Construct the codomain projector a sweep or battery asks for."""
    return codomain_projectors(basis, lmap, family, form)(r)


def sweep(sset, basis, lmap, r_list, family="orthogonal", form=None, tol=None):
    """The data identities (pod_x, pod_x_mapped, proj_y and, with an
    invertible map, pullback_x) at each truncation level, in that order.
    The projector family and the mapped mode norms are built once."""
    projectors = codomain_projectors(basis, lmap, family, form)
    mode_norms, reports = mapped_mode_norms(basis, lmap), []
    for r in r_list:
        res = _residuals(sset, basis, r, lmap, projectors(r), mode_norms)
        reports.extend(_identity(sset, t, r, tol) for t in res.values())
    return reports


def report_rows(reports):
    return [
        dict(zip(CSV_COLUMNS, (
            rep.identity_id, rep.r, rep.lhs, rep.rhs, rep.abs_diff, rep.rel_diff, rep.passed
        )))
        for rep in reports
    ]


def write_report_csv(reports, path):
    lines = [",".join(CSV_COLUMNS)]
    for row in report_rows(reports):
        values = [row["identity_id"], str(row["r"])]
        values += ["%.16e" % row[key] for key in CSV_COLUMNS[2:6]]
        lines.append(",".join(values + [str(bool(row["passed"])).lower()]))
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_report_json(reports, path, extra=None):
    checks = [
        {**row, "kind": rep.kind, "tol": rep.tol,
         "info": {k: _jsonable(v) for k, v in rep.info.items()}}
        for row, rep in zip(report_rows(reports), reports)
    ]
    payload = {"all_passed": all(rep.passed for rep in reports), "checks": checks}
    _atomic_write(path, json.dumps({**payload, **(extra or {})}, indent=2) + "\n")
    return path


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def report_format(path):
    """"json" or "csv", as the report name ends: the one rule every report
    reader and writer uses.  Other names are MalformedManifest, a directory
    is MissingDataFile."""
    if os.path.isdir(path):
        raise MissingDataFile(f"cannot use {path}: Is a directory")
    if not path.endswith((".json", ".csv")):
        raise MalformedManifest(f"{path}: a report name must end in .json or .csv")
    return path.rsplit(".", 1)[1]


def write_report(reports, path, extra=None):
    """Write reports as report_format(path) says; extra goes to JSON only."""
    if report_format(path) == "csv":
        return write_report_csv(reports, path)
    return write_report_json(reports, path, extra)


def read_report(path):
    """Load a report written by write_report.

    An unreadable path is MissingDataFile; a name report_format rejects,
    invalid JSON, a report without rows (so that an empty or truncated report
    never reads as a pass) and a bad CSV row are MalformedManifest.
    """
    if report_format(path) == "json":
        report = _read_json(path)
        if not isinstance(report, dict) or not report.get("checks"):
            raise MalformedManifest(f'{path}: no "checks" rows')
        return report["checks"]
    try:
        with open(path) as fh:
            raws = list(csv.DictReader(fh))
    except OSError as exc:
        raise MissingDataFile(f"cannot read {path}: {exc.strerror}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise MalformedManifest(f"{path}: {exc}") from None
    if not raws:
        raise MalformedManifest(f"{path}: no report rows")
    try:
        return [
            {
                "identity_id": raw["identity_id"],
                "r": int(raw["r"]),
                **{key: float(raw[key]) for key in CSV_COLUMNS[2:6]},
                "passed": raw["passed"] == "true",
            }
            for raw in raws
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{path}: bad report row ({exc})") from None
