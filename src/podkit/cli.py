"""Command-line front end.

Subcommands and the only flags each accepts (podkit -h says what each
does); any other flag, abbreviation or bad choice is a UsageError, exit 2:

generate-fhn        --output --nodes
generate-synthetic  --output --nodes --seed
pod                 --input --output --r --tol
verify              --input --output --r --projector --map --tol --seed
sweep               --input --output --r --projector --map --tol
table               --input

A report (verify and sweep --output, table --input) is JSON when its name
ends in .json and CSV when it ends in .csv; any other name is an input error.

Exit codes: 0 when everything passed, 2 for bad inputs, 3 for numerical
failures, 4 when checks ran but at least one failed.  Failures print a
one-line JSON object {"error": class, "message": text} on standard error.

Tolerances resolve as flag > PODKIT_TOL environment variable > built-in
default.  For pod the tolerance is the eigenvalue drop threshold; for verify
and sweep it is the identity tolerance.

--map takes a map spec, inline JSON or a path to a JSON file; the grammar is
documented once, in podkit.linear_map.build_map_from_spec.  --projector ritz
uses the spec's "ritz_form" and otherwise the codomain Gram matrix
(error_lab.certifier picks the projector).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .errors import (
    IndexOutOfRange,
    MalformedManifest,
    PodkitError,
    ProvenanceMismatch,
    RankExceeded,
    UsageError,
)
from .error_lab import (
    IDENTITY_RTOL,
    battery_level,
    certifier,
    read_report,
    report_format,
    report_rows,
    sweep as run_sweep,
    write_report,
)
from .fhn_gen import FhnConfig, embedding_set, make_fhn_instance
from .linear_map import build_map_from_spec, rank_relation_check
from .pod_engine import (
    DEFAULT_DROP_TOL,
    compute_pod,
    image_spectrum,
    save_basis,
    spectrum_gapped,
)
from .snapshot_io import _atomic_write, load, save

EXIT_CHECKS_FAILED = 4
TOL_ENV_VAR = "PODKIT_TOL"
POINTWISE_PER_LEVEL = 5

# --projector value -> codomain projector family; composite-xy conjugates
# the mode projection into the codomain and needs an invertible map
_FAMILY_FOR_FLAG = {"orthogonal": "orthogonal", "ritz": "ritz", "composite-xy": "pushforward"}
PROJECTOR_CHOICES = tuple(_FAMILY_FOR_FLAG)


# -- shared argument plumbing ------------------------------------------------

def _resolve_tol(flag_value, default):
    """Tolerance precedence: explicit flag, then PODKIT_TOL, then default."""
    if flag_value is not None:
        return float(flag_value)
    env = os.environ.get(TOL_ENV_VAR)
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise MalformedManifest(
                f"{TOL_ENV_VAR} must be a float, got {env!r}"
            ) from None
    return default


def _parse_r_values(text):
    values = []
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            r = int(piece)
        except ValueError:
            raise IndexOutOfRange(
                f"truncation levels must be integers, got {piece!r}"
            ) from None
        if r < 1:
            raise IndexOutOfRange(f"truncation level must be >= 1, got {r}")
        if r in values:
            raise IndexOutOfRange(f"truncation level {r} is listed twice")
        values.append(r)
    if not values:
        raise IndexOutOfRange(f"empty truncation list {text!r}")
    return values


def _requested_r_values(text, rank):
    """The levels --r lists, or by default 1, rank / 2 and rank."""
    if rank < 1:
        raise RankExceeded("the decomposition has rank 0; nothing to verify")
    if text is None:
        return sorted({1, math.ceil(rank / 2), rank})
    values = _parse_r_values(text)
    for r in values:
        if r > rank:
            raise RankExceeded(f"requested r = {r} exceeds rank {rank}")
    return values


# -- battery -----------------------------------------------------------------

def run_battery(sset, basis, lmap, family, form, r_values, tol, seed):
    """Identity and bound checks for verify; returns (reports, extra).

    Per level: the data-error identity, the worst-snapshot exact residual
    formula and singular-value cap, the per-snapshot bound family, and with
    a map the mapped/projected/pulled-back identities, the operator-level
    identities, and a handful of seeded pointwise bounds.  The rank relation
    between the two decompositions is reported once in extra.
    """
    rng = np.random.default_rng(0 if seed is None else seed)
    extra = {"r_values": list(r_values), "tol": tol, "family": family}
    cert = certifier(sset, basis, lmap, family, form)
    if lmap is None:
        return [rep for r in r_values for rep in battery_level(cert, r, tol)], extra

    reports = []
    for r in r_values:
        coeffs = rng.standard_normal((POINTWISE_PER_LEVEL, sset.count)).T
        reports.extend(battery_level(cert, r, tol, coeffs))

    basis_y = image_spectrum(lmap, sset, basis.drop_tol)
    relation = dict(rank_relation_check(basis, basis_y, lmap))
    # A rank comparison is only asserted when both spectra are gapped at
    # their cut; otherwise the counts measure noise floors and the row
    # is informational.
    relation["decided"] = spectrum_gapped(basis) and spectrum_gapped(basis_y)
    extra["rank_relation"] = relation
    return reports, extra


# -- rendering ---------------------------------------------------------------

_TABLE_COLUMNS = ("identity_id", "r", "actual", "formula", "rel_diff", "passed")


def _render_rows(rows):
    table = [_TABLE_COLUMNS]
    for row in rows:
        table.append(
            (
                str(row["identity_id"]),
                str(row["r"]),
                "%.6e" % row["actual"],
                "%.6e" % row["formula"],
                "%.3e" % row["rel_diff"],
                "pass" if row["passed"] else "FAIL",
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(_TABLE_COLUMNS))]
    lines = []
    for k, line in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- subcommands -------------------------------------------------------------

def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise MalformedManifest(f"--{name} is required for this command")
    return value


def _finish_bundle(manifest_path, sset, nodes, map_spec):
    """Write the bundle's map spec next to its manifest and report both."""
    map_path = os.path.splitext(manifest_path)[0] + "_map.json"
    _atomic_write(map_path, json.dumps(map_spec, indent=2) + "\n")
    print(f"wrote {manifest_path}")
    print(f"wrote {map_path}")
    print(f"snapshots: {sset.count}, state dim: {sset.space_dim}, nodes: {nodes}")
    return 0


def cmd_generate_fhn(args):
    nodes = 100 if args.nodes is None else args.nodes
    out = _require(args, "output")
    sset = make_fhn_instance(FhnConfig(nodes=nodes))["set"]
    spec = {"derivative_1d": {"nodes": nodes, "scheme": "forward"}}
    gram = {"block_diag": [{"fem_mass": nodes}] * 2}  # make_product_space's Gram
    return _finish_bundle(save(sset, out, gram_spec=gram), sset, nodes, spec)


def cmd_generate_synthetic(args):
    nodes = 33 if args.nodes is None else args.nodes
    out = _require(args, "output")
    sset = embedding_set(nodes, seed=args.seed)
    spec = {"embedding": {"from": "mass", "to": "stiffness+mass"}}
    manifest_path = save(sset, out, gram_spec={"fem_mass": nodes})
    return _finish_bundle(manifest_path, sset, nodes, spec)


def _truncate_basis(basis, r):
    """The basis cut to its leading r modes (r checked by _requested_r_values)."""
    return dataclasses.replace(
        basis, sigma=basis.sigma[:r].copy(), modes=basis.modes[:, :r].copy(),
        right_vectors=basis.right_vectors[:, :r].copy(), rank=r,
    )


def cmd_pod(args):
    sset = load(_require(args, "input"))
    out = _require(args, "output")
    drop = _resolve_tol(args.tol, DEFAULT_DROP_TOL)
    basis = compute_pod(sset, drop_tol=drop)
    computed_rank = basis.rank
    if args.r is not None:
        values = _requested_r_values(args.r, computed_rank)
        if len(values) != 1:
            raise IndexOutOfRange("pod takes a single --r value")
        basis = _truncate_basis(basis, values[0])
    save_basis(basis, out)
    lead = ", ".join("%.6e" % s for s in basis.sigma[:8])
    print(f"wrote {out}")
    print(f"rank: {computed_rank} (drop tolerance {drop:g}), kept: {basis.rank}")
    print(f"leading singular values: {lead}")
    return 0


def _certify_inputs(args):
    """verify's and sweep's bundle, its POD, map, projector family, form,
    levels and tolerance; a bad report name fails before any work."""
    if args.output is not None:
        report_format(args.output)
    sset = load(_require(args, "input"))
    tol = _resolve_tol(args.tol, IDENTITY_RTOL)
    basis = compute_pod(sset)
    lmap = form = None
    if args.map is not None:
        lmap, form = build_map_from_spec(args.map, sset)
        if args.projector == "composite-xy" and not lmap.invertible:
            raise ProvenanceMismatch("--projector composite-xy needs an invertible map")
    elif args.projector != "orthogonal":
        raise ProvenanceMismatch(f"--projector {args.projector} needs --map")
    family = _FAMILY_FOR_FLAG[args.projector]
    return sset, basis, lmap, family, form, _requested_r_values(args.r, basis.rank), tol


def cmd_verify(args):
    sset, basis, lmap, family, form, r_values, tol = _certify_inputs(args)

    reports, extra = run_battery(
        sset, basis, lmap, family, form, r_values, tol, args.seed
    )
    all_passed = all(rep.passed for rep in reports)
    rr = extra.get("rank_relation")
    if rr is not None and rr["decided"]:
        all_passed = all_passed and rr["passed"]

    if args.output is not None:
        write_report(reports, args.output, extra)
        print(f"wrote {args.output}")

    failures = [rep for rep in reports if not rep.passed]
    print(
        f"rank: {basis.rank}, levels: {r_values}, checks: {len(reports)}, "
        f"failed: {len(failures)}"
    )
    if rr is not None:
        if rr["decided"]:
            status = "ok" if rr["passed"] else "FAIL"
        else:
            status = "not decided at this drop tolerance (informational)"
        print(
            f"rank relation: source {rr['rank_source']}, "
            f"image {rr['rank_image']}, {status}"
        )
    if failures:
        print(_render_rows(report_rows(failures)))
    print("all checks passed" if all_passed else "CHECKS FAILED")
    return 0 if all_passed else EXIT_CHECKS_FAILED


def cmd_sweep(args):
    out = _require(args, "output")
    if args.map is None:
        raise MalformedManifest("sweep needs --map")
    if args.r is None:
        raise IndexOutOfRange("sweep needs --r")
    sset, basis, lmap, family, form, r_values, tol = _certify_inputs(args)

    reports = run_sweep(certifier(sset, basis, lmap, family, form), r_values, tol)
    write_report(reports, out, {"family": family, "tol": tol})
    print(f"wrote {out}")
    print(_render_rows(report_rows(reports)))
    all_passed = all(rep.passed for rep in reports)
    print("all checks passed" if all_passed else "CHECKS FAILED")
    return 0 if all_passed else EXIT_CHECKS_FAILED


def cmd_table(args):
    rows = read_report(_require(args, "input"))
    print(_render_rows(rows))
    all_passed = all(row["passed"] for row in rows)
    print("all checks passed" if all_passed else "CHECKS FAILED")
    return 0 if all_passed else EXIT_CHECKS_FAILED


# -- parser ------------------------------------------------------------------

_FLAGS = {
    "input": dict(help="snapshot manifest or report to read"),
    "output": dict(help="file to write"),
    "r": dict(help="truncation level (comma list for verify and sweep)"),
    "projector": dict(choices=PROJECTOR_CHOICES, default="orthogonal", help="projector family"),
    "map": dict(help="map spec: inline JSON or a JSON file path"),
    "tol": dict(type=float, help="tolerance override"),
    "seed": dict(type=int, help="random seed"),
    "nodes": dict(type=int, help="finite element node count"),
}

_COMMANDS = (
    ("generate-fhn", cmd_generate_fhn, ("output", "nodes"),
     "solve the reaction-diffusion system and write a snapshot bundle"),
    ("generate-synthetic", cmd_generate_synthetic, ("output", "nodes", "seed"),
     "write a smooth synthetic FEM snapshot bundle"),
    ("pod", cmd_pod, ("input", "output", "r", "tol"),
     "decompose a snapshot bundle into a basis bundle"),
    ("verify", cmd_verify, ("input", "output", "r", "projector", "map", "tol", "seed"),
     "run the identity and bound battery"),
    ("sweep", cmd_sweep, ("input", "output", "r", "projector", "map", "tol"),
     "tabulate the data-error identities over truncation levels"),
    ("table", cmd_table, ("input",), "render a saved report as an aligned table"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reported like every other failure; -h still exits 0
        raise UsageError(message)


def build_parser():
    """One subparser per command, declaring only the flags its cmd_* reads;
    abbreviated flags are refused, so every flag has one spelling."""
    parser = _Parser(
        prog="podkit",
        description="Weighted proper orthogonal decomposition with certified "
        "projection error identities and bounds.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument("--" + flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PodkitError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
