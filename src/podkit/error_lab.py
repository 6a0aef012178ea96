"""Certified error identities and bounds for POD projections.

Every exact formula has one shape: for the residual operator T of a
projection, in the norm of a space, sum_j g_j ||T w_j||^2 equals
sum_{k>r} lambda_k ||T phi_k||^2.  The battery is written once around T,
one record per operator and truncation level:

- pod_x         I - P_r, ambient norm (the mode projection)
- pod_x_mapped  L (I - P_r), codomain norm
- proj_y        (I - Q) L, codomain norm, Q a codomain projection
- pullback_x    I - L^{-1} Q L, ambient norm, invertible maps only

Each record yields its data identity (T applied to the data W), the operator
form hs_* (T applied to K = W diag(g)), the per-snapshot bound snap_* and the
pointwise bound pw_* for elements K c: pw_proj_y and, for an invertible map,
pw_composite_y (pod_x_mapped's, the pushforward's error L (I - P_r) L^{-1}
on L K c) and pw_composite_x (pullback_x's); range_exact is the exact
per-snapshot residual of pod_x.  All of it runs in whitened coordinates,
x~ = C_x^T x and y~ = C_y^T y (G = C C^T), where these norms are Euclidean
and P_r is U_r U_r^T (U = C_x^T Phi), so no Gram product is formed.  The
actual side whitens each data block of gram_space.COLUMN_BLOCK_BYTES once,
as the pair (C_x^T W_b, C_y^T L W_b), for every residual; the formula side
reads only the basis's U and V~ = C_y^T L Phi and the family's pair, never
the data, so agreement of the two routes is the certificate.  Spectral sums
run over the complete computed spectrum: with unbounded-looking maps the
below-tolerance tail still carries weight at the certified accuracy.

Entry points, the ones the CLI's verify and sweep run: certifier (built
once per bundle: the codomain family's projector.Levels for proj_y, V~ and
the level-free constants), battery_level (every row of one level) and sweep
(the data identities over levels).  Both take the certifier, so a
projection from another map or basis cannot reach a row, and both refuse a
level that check_level refuses.  rank_relation compares the POD ranks of
the data and of their image under the map, and verdict decides a report:
every row passed, and a decided relation holds.

Floors: an identity passes within IDENTITY_RTOL or when both sides are
below its floor, a bound when actual <= formula + floor.  The floor is
EXACT_FLOOR_UNITS * u * scale, u the unit roundoff (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 3 and 19).  The scale is the energy of
the row's input in its norm space, E = sum_k lambda_k in the ambient norm and
E = sum_j g_j ||L w_j||^2 in the codomain, times 1 / min g for snap_* rows
and ||c||_S^2 for pw_* rows, whose unsquared norms take the floor's square
root.  range_exact and snap_sigma_bound use u sigma_1 / sqrt(g_ell).  Every
row records its floor in info["floor"].
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .csv_rows import CSV_FMT
from .errors import DimensionMismatch, IndexOutOfRange, MalformedManifest, MissingDataFile
from .errors import RankExceeded
from .gram_space import column_blocks, half_weight, half_weight_inv, whitened_blocks
from .linear_map import LinearMap
from .pod_engine import PodBasis, image_spectrum, numerical_rank
from .projector import Levels, mapped_orthogonal_levels, pushforward_levels, ritz_levels
from .projector import whitened_images
from .snapshot_io import SnapshotSet, _atomic_write, _read_json

IDENTITY_RTOL = 1e-8
EXACT_RTOL = 1e-9
EXACT_FLOOR_UNITS = 32.0  # every floor, in units of u times the row's scale
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# the codomain projector families, by their --projector names
PROJECTOR_FAMILIES = ("orthogonal", "ritz", "composite-xy")

CSV_COLUMNS = ("identity_id", "r", "actual", "formula", "abs_diff", "rel_diff", "passed")


@dataclass
class ErrorReport:
    """Outcome of one identity or bound evaluation, one report row.

    actual is the explicitly computed quantity, formula the spectral side.
    For identities, passed means the relative difference is within tol or
    both sides sit below info["floor"]; for bounds it means
    actual <= formula + floor, and tol is that floor.
    """

    identity_id: str
    r: int
    actual: float
    formula: float
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


def _sq(A):
    """The squared Euclidean norm of each column of A."""
    return np.einsum("ij,ij->j", A, A)


# -- the residual-operator primitive -----------------------------------------

@dataclass
class _Residual:
    """Residual operator T of one projection at level r: apply maps the
    whitened pair (C_x^T x, C_y^T L x) of columns x to the whitened T x,
    mode_sq holds ||T phi_k||^2 for the tail modes k >= r (apply on the
    basis's pair (U, V~)), formula is sum_k lambda_k mode_sq_k, and energy
    the data's total weighted energy in T's norm space, its floors' scale."""

    label: str
    apply: Callable
    mode_sq: np.ndarray
    formula: float
    energy: float

    def floor(self, mass=1.0, squared=True):
        floor = _floor(self.energy * mass)
        return float(floor if squared else np.sqrt(floor))


@dataclass(frozen=True)
class Certifier:
    """One bundle's inputs to the rows that no truncation level changes.

    projectors is the Levels of the codomain family named family (None
    without a map); r0 is the snapshot_guarantee_threshold.  With a map,
    images is V~ = C_y^T L Phi for every mode, whose squared column norms
    are ||L phi_k||^2, and energy_y is sum_j g_j ||L w_j||^2, the codomain
    rows' floor scale.  With an invertible map, pullback is
    M = C_x^T L^{-1} C_y^{-T} R~ for the family's range R~, so that no data
    are solved with L^{-1}.
    """

    sset: SnapshotSet
    basis: PodBasis
    lmap: LinearMap | None
    family: str
    projectors: Levels | None
    r0: int | None
    images: np.ndarray | None = None
    energy_y: float | None = None
    pullback: np.ndarray | None = None


def certifier(sset, basis, lmap=None, family="orthogonal", form=None):
    """The Certifier of a snapshot set, its POD and an optional map.

    family names the codomain projector family a map's rows use, one of
    PROJECTOR_FAMILIES: "orthogonal", "ritz" (on the bilinear form matrix
    form) or "composite-xy" (the pushforward L P L^{-1}, invertible maps
    only).  Without a form, ritz projects in the codomain's own inner
    product, where the Ritz projection is the orthogonal one, and builds
    that family's Levels.  Without a map there is no codomain projector and
    form is not read; family is recorded as given.  The map's inverse, when
    it has one, is read here once, for the pullback; the pushforward reads
    it once more, for its functionals.
    """
    r0 = snapshot_guarantee_threshold(sset, basis)
    if lmap is None:
        return Certifier(sset, basis, None, family, None, r0)
    if family == "orthogonal" or family == "ritz" and form is None:
        projectors = mapped_orthogonal_levels(basis, lmap)
    elif family == "ritz":
        projectors = ritz_levels(basis, lmap, form)
    elif family == "composite-xy":
        projectors = pushforward_levels(basis, lmap)
    else:
        raise IndexOutOfRange(f"unknown codomain projector family {family!r}")
    images = whitened_images(basis, lmap)
    image_sq = np.concatenate([_sq(Y) for _, _, Y in whitened_blocks(sset.data, lmap=lmap)])
    pullback = None
    if lmap.inverse is not None:
        ranges = lmap.inverse @ half_weight_inv(lmap.codomain, projectors.range)
        pullback = half_weight(basis.space, ranges)
    return Certifier(
        sset, basis, lmap, family, projectors, r0,
        images, float(sset.weights @ image_sq), pullback,
    )


def check_level(basis, r):
    """The one truncation-level rule, for every level's rows and pod --r."""
    if r < 1:
        raise IndexOutOfRange(f"truncation level must be >= 1, got {r}")
    if r > basis.rank:
        raise RankExceeded(f"requested r = {r} beyond computed rank {basis.rank}")


def _residuals(cert, r):
    """The residual operators of level r, keyed by label in identity order:
    pod_x and, with a map, pod_x_mapped, proj_y and, when the map is
    invertible, pullback_x; proj_y's projection is the certifier's level r."""
    basis, lmap = cert.basis, cert.lmap
    check_level(basis, r)
    lam, U_r = basis.eigenvalues[r:], basis.left_full[:, :r]
    tail = basis.left_full[:, r:], None if lmap is None else cert.images[:, r:]
    out = {}

    def add(label, apply, energy, mode_sq=None):
        if mode_sq is None:
            mode_sq = _sq(apply(*tail))
        out[label] = _Residual(label, apply, mode_sq, float(lam @ mode_sq), energy)

    energy_x = float(np.sum(basis.eigenvalues))
    add("pod_x", lambda X, Y: X - U_r @ (U_r.T @ X), energy_x, np.ones(lam.size))  # pure tail
    if lmap is None:
        return out
    V_r, (R, F) = cert.images[:, :r], cert.projectors(r)
    add("pod_x_mapped", lambda X, Y: Y - V_r @ (U_r.T @ X), cert.energy_y, _sq(tail[1]))
    add("proj_y", lambda X, Y: Y - R @ (F.T @ Y), cert.energy_y)
    if lmap.inverse is not None:
        M_r = cert.pullback[:, :r]
        add("pullback_x", lambda X, Y: X - M_r @ (F.T @ Y), energy_x)
    return out


def _residual_norms(cert, res, columns, weights=None):
    """({label: ||T c_j||^2}, hs) for the residuals T of res over the columns
    c_j: each block is whitened once and every residual reads the pair.
    With weights, hs is {label: ||T (g_j c_j)||^2} for the residuals past the
    first (the hs forms), from the pair scaled in place; else None."""
    sq = {label: np.empty(columns.shape[1]) for label in res}
    hs = None if weights is None else {label: np.empty_like(sq[label]) for label in list(res)[1:]}
    for blk, X, Y in whitened_blocks(columns, cert.basis.space, cert.lmap):
        for label, t in res.items():
            sq[label][blk] = _sq(t.apply(X, Y))
        if hs:
            X *= weights[blk]
            Y *= weights[blk]
            for label in hs:
                hs[label][blk] = _sq(res[label].apply(X, Y))
    return sq, hs


def _identities(res, norms, weights, r, prefix=""):
    """The identity rows of the residuals whose squared norms norms holds:
    actual side weights @ norms, the data identity, or with weights 1 / g
    on the norms of W diag(g) and prefix "hs_", its operator form."""
    return [
        _report("identity", prefix + label, r, weights @ sq, res[label].formula,
                IDENTITY_RTOL, res[label].floor())
        for label, sq in norms.items()
    ]


def battery_level(cert, r, coeffs=None):
    """Every row of truncation level r of the certifier's bundle, in report
    order: the data identities (range_exact and snap_sigma_bound after
    pod_x), the operator-level identities, the per-snapshot bounds, and the
    pointwise bounds of K c for the columns c of coeffs, shape (count, k).
    One pass whitens each data block once for every residual and its hs
    form (the block scaled by the weights, W diag(g)).
    """
    sset, basis = cert.sset, cert.basis
    if coeffs is not None and (np.ndim(coeffs) != 2 or len(coeffs) != sset.count):
        raise DimensionMismatch(f"coefficients of shape {np.shape(coeffs)}, not ({sset.count}, k)")
    res = _residuals(cert, r)
    sq, hs = _residual_norms(cert, res, sset.data, sset.weights)
    rows = _identities(res, sq, sset.weights, r)
    rows[1:1] = _range_rows(sset, basis, r, sq["pod_x"])
    # e_j / sqrt(g_j) is an orthonormal basis of the coefficient space
    rows += _identities(res, hs, 1.0 / sset.weights, r, "hs_")
    rows += _snapshot_rows(sset, basis, r, res, sq, cert.r0)
    if coeffs is not None:
        rows += _pointwise_rows(cert, r, res, coeffs)
    return rows


# -- the rank relation and the verdict ---------------------------------------

def rank_relation(cert):
    """The POD ranks of the certifier's data and of their image under its map,
    counted at the basis's drop tolerance.  passed: the image rank is at most
    the source rank p.  decided: by Eckart-Young-Mirsky (Golub & Van Loan 2.4)
    the image eigenvalues past p sum to at most pod_x_mapped's formula side
    at level p, sum_{k>p} lambda_k ||L phi_k||^2; with the codomain floor added
    it is within the image's drop threshold, so none of them is counted.
    tail (the bound plus the floor) and threshold (drop_tol lambda_1 of the
    image) record how far the decision was from going the other way."""
    basis, p = cert.basis, cert.basis.rank
    lam = image_spectrum(cert.lmap, cert.sset)
    rank = numerical_rank(lam, basis.drop_tol)
    tail = float(basis.eigenvalues[p:] @ _sq(cert.images[:, p:]) + _floor(cert.energy_y))
    threshold = float(basis.drop_tol * lam[0])
    return {
        "rank_source": p,
        "rank_image": rank,
        "passed": rank <= p,
        "decided": tail <= threshold,
        "tail": tail,
        "threshold": threshold,
    }


def verdict(passed, relation=None):
    """Whether a report passes: every row's passed flag holds and, when a
    rank relation is given and decided, the relation holds too."""
    return all(passed) and (relation is None or not relation["decided"] or relation["passed"])


# -- per-snapshot results ----------------------------------------------------

def _worst_index(passed, key, noise):
    """Worst row: failures first, then the lowest index whose key is within
    its round-off noise of the largest key, so that keys tied at round-off
    pick the same row whatever the last bits."""
    candidates = np.flatnonzero(~passed)
    if candidates.size == 0:
        candidates = np.arange(passed.size)
    keys = key[candidates]
    tied = keys + np.broadcast_to(noise, key.shape)[candidates] >= keys.max()
    return int(candidates[np.argmax(tied)])


def _rel_noise(floor, lhs, rhs):
    """Round-off of rel_diff(lhs, rhs) when floor bounds that of lhs - rhs:
    floor over the larger magnitude (infinite where both are 0)."""
    denom = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.divide(floor, denom, out=np.full(denom.shape, np.inf), where=denom > 0.0)


def _range_rows(sset, basis, r, sq):
    """range_exact and snap_sigma_bound over every snapshot, from the squared
    pod_x residuals sq; each row names its worst snapshot in info["ell"]."""
    lam = basis.eigenvalues
    lhs = np.sqrt(sq)
    tail = basis.right_full[:, r:]
    rhs = np.sqrt(np.einsum("ij,ij,j->i", tail, tail, lam[r:]))
    floor = _floor(np.sqrt(lam[0] / sset.weights))
    abs_diff, rel_diff = _compare(lhs, rhs)
    passed = (rel_diff <= EXACT_RTOL) | (abs_diff <= floor)
    i = _worst_index(passed, rel_diff, _rel_noise(floor, lhs, rhs))
    exact = _report(
        "identity", "range_exact", r, lhs[i], rhs[i], EXACT_RTOL, floor[i], info={"ell": i},
    )
    exact.passed = bool(passed[i])  # here the floor bounds the difference
    sigma_next = float(np.sqrt(lam[r])) if r < lam.size else 0.0
    cap = sigma_next / np.sqrt(sset.weights)
    j = _worst_index(lhs <= cap + floor, lhs - cap, floor)  # as the snap_* rows rank
    bound = _report(
        "bound", "snap_sigma_bound", r, lhs[j], cap[j], None, floor[j],
        info={"ell": j, "sigma_next": sigma_next},
    )
    return [exact, bound]


def snapshot_guarantee_threshold(sset, basis):
    """Smallest r at which every coefficient vector is captured well enough.

    The per-snapshot bounds are guaranteed once
    max_ell || g_ell - P_r g_ell ||_S <= 1, where g_ell reproduces snapshot
    ell and P_r projects onto the leading right vectors.  Returns None when
    no computable r satisfies the criterion (possible whenever the rank falls
    short of the snapshot count: the leftover coefficient mass sits in the
    kernel of the data operator and no computed mode sees it).
    """
    worst = np.full(basis.rank, -np.inf)
    for blk in column_blocks(basis.rank, sset.count):  # snapshot blocks
        captured = np.cumsum(basis.right_full[blk, : basis.rank] ** 2, axis=1)
        worst = np.maximum(worst, np.max(1.0 / sset.weights[blk, None] - captured, axis=0))
    hits = np.flatnonzero(worst <= 1.0)
    return int(hits[0]) + 1 if hits.size else None


def _snapshot_rows(sset, basis, r, res, sq, r0):
    """snap_* rows: the worst snapshot's ||T w_ell||^2 (from sq) against T's
    tail, sigma_{r+1}^2 for pod_x; claimed only from the guarantee threshold
    r0 upward, below it a row passes with the raw outcome in info["holds"]."""
    lam = basis.eigenvalues
    guaranteed = r0 is not None and r >= r0
    reports = []
    for t in (res[k] for k in ("pod_x", "proj_y", "pod_x_mapped", "pullback_x") if k in res):
        cap = t.formula if t.label != "pod_x" else float(lam[r]) if r < lam.size else 0.0
        # snapshot ell is K e_ell / g_ell, of energy at most E / g_ell
        floor = t.floor(1.0 / np.min(sset.weights))
        i = _worst_index(sq[t.label] <= cap + floor, sq[t.label], floor)
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
    return reports


# -- pointwise bounds --------------------------------------------------------

def _pointwise_rows(cert, r, res, coeffs):
    """pw_* rows for the elements K c, c the columns of coeffs, element by
    element in ids order; pw_composite_y reads pod_x_mapped's apply,
    Y - V_r (U_r^T X).  info carries the looser Cauchy-Schwarz bound."""
    sset, basis = cert.sset, cert.basis
    ids = {"proj_y": "pw_proj_y"}
    if "pullback_x" in res:  # an invertible map
        ids.update(pod_x_mapped="pw_composite_y", pullback_x="pw_composite_x")
    res = {label: res[label] for label in ids if label in res}
    gC = sset.weights[:, None] * coeffs
    amp = np.abs(basis.right_full[:, r:].T @ gC)
    mass = np.einsum("ij,ij->j", coeffs, gC)  # ||c||_S^2: ||K c||^2 <= E ||c||_S^2
    sig = np.sqrt(basis.eigenvalues[r:])
    norms = _residual_norms(cert, res, sset.data @ gC)[0]
    reports = []
    for i in range(coeffs.shape[1]):
        for label, t in res.items():
            lhs = float(np.sqrt(norms[label][i]))
            rhs = np.sum(sig * amp[:, i] * np.sqrt(t.mode_sq))
            cs_rhs = float(np.linalg.norm(amp[:, i]) * np.sqrt(t.formula))
            floor = t.floor(mass[i], squared=False)
            reports.append(_report(
                "bound", ids[label], r, lhs, rhs, None, floor,
                info={"cs_rhs": cs_rhs, "cs_passed": lhs <= cs_rhs + floor},
            ))
    return reports


# -- sweeps and serialization ------------------------------------------------

def sweep(cert, r_list):
    """The data identities at each truncation level, in _residuals order."""
    reports = []
    for r in r_list:
        res = _residuals(cert, r)
        reports += _identities(res, _residual_norms(cert, res, cert.sset.data)[0],
                               cert.sset.weights, r)
    return reports


def write_report_csv(reports, path):
    lines = [",".join(CSV_COLUMNS)]
    for rep in reports:
        values = [rep.identity_id, str(rep.r)]
        values += [CSV_FMT % getattr(rep, key) for key in CSV_COLUMNS[2:6]]
        lines.append(",".join(values + [str(bool(rep.passed)).lower()]))
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def write_report_json(reports, path, extra=None):
    """The verdict, the row count "rows" that read_report checks, the rows and extra."""
    checks = [vars(rep) for rep in reports]
    extra = extra or {}
    payload = {"all_passed": verdict((rep.passed for rep in reports), extra.get("rank_relation")),
               "rows": len(checks), "checks": checks, **extra}
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return path


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
    """Load a report written by write_report: (rows, relation).

    rows are ErrorReport records of the CSV_COLUMNS, with the default kind,
    tol and info, which table does not render.  relation is a JSON report's
    "rank_relation", None without one and for a CSV report.  An unreadable
    path is MissingDataFile; a name report_format rejects, invalid JSON, a
    report without rows (so that an empty or truncated report never reads as
    a pass), a JSON report whose "rows" is not its number of "checks", a
    bad row in either format and a rank_relation without boolean "decided"
    and "passed" are MalformedManifest.
    """
    relation = None
    if report_format(path) == "json":
        report = _read_json(path)
        if not isinstance(report, dict) or not report.get("checks"):
            raise MalformedManifest(f'{path}: no "checks" rows')
        raws, relation = report["checks"], report.get("rank_relation")
        count = report.get("rows")
        if type(count) is not int or count != len(raws):  # true is not 1 row
            raise MalformedManifest(f'{path}: {len(raws)} "checks" rows, "rows" says {count!r}')
        if relation is not None and not (isinstance(relation, dict) and all(
            isinstance(relation.get(key), bool) for key in ("decided", "passed")
        )):
            raise MalformedManifest(f'{path}: "rank_relation" needs boolean decided and passed')
    else:
        import csv  # here, so that a JSON table does not load it

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
        rows = [
            ErrorReport(
                raw["identity_id"], int(raw["r"]), *(float(raw[key]) for key in CSV_COLUMNS[2:6]),
                raw["passed"] in ("true", True),
            )
            for raw in raws
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedManifest(f"{path}: bad report row ({exc})") from None
    return rows, relation
