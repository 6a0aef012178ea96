"""Command-line front end.

Subcommands and the only flags each accepts (podkit -h says what each
does); any other flag, abbreviation or bad choice is a UsageError, exit 2:

generate-fhn        --output --nodes
generate-synthetic  --output --nodes --seed
pod                 --input --output --r --tol
verify              --input --output --r --projector --map --seed
sweep               --input --output --r --projector --map
table               --input

A report (sweep --output, table --input) is JSON when its name ends in .json
and CSV when it ends in .csv; any other name is an input error, as is a CSV
verify report, which cannot carry the rank relation its verdict reads.

Exit codes: 0 when everything passed, 2 for bad inputs, 3 for numerical
failures, 4 when checks ran but error_lab.verdict failed them (a row, or a
decided rank relation).  Failures print a one-line JSON object
{"error": class, "message": text} on standard error.

--tol is pod's eigenvalue drop threshold; verify and sweep take none, so every
identity row passes within error_lab.IDENTITY_RTOL or its floor.

generate-fhn starts one helper process, a fresh interpreter that formats
the data CSV while the solve runs (snapshot_io.CsvStream); the CSV's
temporary file is made first, so an unwritable --output fails before the
solve.

--seed fixes verify's pointwise directions: level r's pw_* rows bound the
elements K c of POINTWISE_PER_LEVEL coefficient vectors c that depend on
(seed, r) alone (pointwise_coefficients), so a level's rows are the same
whichever other levels run.  They differ from the pw_* rows of reports
written when every level drew from one numpy.random stream.

Importing this module imports numpy and every podkit module, but no
scipy, numpy.random, subprocess or csv module, and not OpenSSL's _hashlib:
the digests are CPython's built-in BLAKE2b (_blake2) and SHAKE256 (_sha3).
pod, verify, sweep and a JSON table load none of those five; table on a CSV
report loads csv, and an explicit "ritz_form" loads scipy (the ellipticity
bisection's dpbtrf), which itself loads the other four.  generate-synthetic
loads numpy.random for its data, and generate-fhn subprocess for its CSV
helper and scipy for its solve's LAPACK kernels.

--map takes a map spec, inline JSON or a path to a JSON file; the grammar is
documented once, in podkit.linear_map.build_map_from_spec.  --projector ritz
uses the spec's "ritz_form"; without one it projects in the codomain inner
product, where it is the orthogonal family (error_lab.certifier picks the
projector).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

import numpy as np
from _sha3 import shake_256

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
    PROJECTOR_FAMILIES,
    battery_level,
    certifier,
    check_level,
    rank_relation,
    read_report,
    report_format,
    sweep as run_sweep,
    verdict,
    write_report,
)
from .fhn_gen import FhnConfig, embedding_set, make_fhn_instance
from .linear_map import build_map_from_spec
from .pod_engine import DEFAULT_DROP_TOL, compute_pod, save_basis
from .snapshot_io import CsvStream, _atomic_write, data_csv_path, load, save

EXIT_CHECKS_FAILED = 4
POINTWISE_PER_LEVEL = 5


# -- shared argument plumbing ------------------------------------------------

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
        if r in values:
            raise IndexOutOfRange(f"truncation level {r} is listed twice")
        values.append(r)
    if not values:
        raise IndexOutOfRange(f"empty truncation list {text!r}")
    return values


def _requested_r_values(text, basis):
    """The levels --r lists, each held to error_lab.check_level before any
    level's work, or by default 1, rank / 2 and rank."""
    rank = basis.rank
    if rank < 1:
        raise RankExceeded("the decomposition has rank 0; nothing to verify")
    if text is None:
        return sorted({1, math.ceil(rank / 2), rank})
    values = _parse_r_values(text)
    for r in values:
        check_level(basis, r)
    return values


# -- battery -----------------------------------------------------------------

def pointwise_coefficients(seed, r, count):
    """The POINTWISE_PER_LEVEL coefficient vectors of level r, as the columns
    of a (count, POINTWISE_PER_LEVEL) array of standard normals that depend
    on (seed, r, count) alone, so a level's pw_* rows are the same whichever
    other levels run.  Each uniform is the top 53 bits of an 8-byte word of
    shake_256("seed:r"); Box-Muller pairs the first half of them (radii)
    with the second (angles).  No numpy.random module is loaded."""
    n = POINTWISE_PER_LEVEL * count
    half = (n + 1) // 2
    stream = shake_256(f"{seed}:{r}".encode()).digest(16 * half)
    u = (np.frombuffer(stream, dtype="<u8") >> 11) * 2.0**-53  # on [0, 1)
    radius = np.sqrt(-2.0 * np.log1p(-u[:half]))
    angle = 2.0 * np.pi * u[half:]
    normals = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
    return normals[:n].reshape(POINTWISE_PER_LEVEL, count).T


def run_battery(cert, r_values, seed):
    """Identity and bound checks for verify; returns (reports, extra).

    Per level: the data-error identity, the worst-snapshot exact residual
    formula and singular-value cap, the per-snapshot bound family, and with
    a map the mapped/projected/pulled-back identities, the operator-level
    identities, and a handful of seeded pointwise bounds.  With a map, the
    rank relation is reported once in extra.
    """
    seed = 0 if seed is None else seed
    extra = {"r_values": list(r_values), "tol": IDENTITY_RTOL, "family": cert.family}
    if cert.lmap is None:
        return [rep for r in r_values for rep in battery_level(cert, r)], extra

    reports = []
    for r in r_values:
        reports.extend(battery_level(cert, r, pointwise_coefficients(seed, r, cert.sset.count)))
    extra["rank_relation"] = rank_relation(cert)
    return reports, extra


# -- rendering ---------------------------------------------------------------

_TABLE_COLUMNS = ("identity_id", "r", "actual", "formula", "rel_diff", "passed")


def _render_rows(reports):
    table = [_TABLE_COLUMNS]
    for rep in reports:
        table.append(
            (
                str(rep.identity_id),
                str(rep.r),
                "%.6e" % rep.actual,
                "%.6e" % rep.formula,
                "%.3e" % rep.rel_diff,
                "pass" if rep.passed else "FAIL",
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(_TABLE_COLUMNS))]
    lines = []
    for k, line in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _conclude(passed, relation=None):
    """Print the verdict of the rows' passed flags and the rank relation, and
    return the exit code."""
    ok = verdict(passed, relation)
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else EXIT_CHECKS_FAILED


# -- subcommands -------------------------------------------------------------

def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise MalformedManifest(f"--{name} is required for this command")
    return value


def cmd_generate(args):
    """generate-fhn and generate-synthetic: save the generator's snapshot set
    under its gram spec and write its map spec beside the manifest."""
    out = _require(args, "output")
    if args.command == "generate-fhn":
        nodes = 100 if args.nodes is None else args.nodes
        # the data CSV's temporary file exists before the solve, and its
        # helper process formats the snapshots while later steps are solved
        with CsvStream(data_csv_path(out)) as stream:
            sset, gram_spec, map_spec = make_fhn_instance(FhnConfig(nodes=nodes), stream)
            manifest_path = save(sset, out, gram_spec, stream)
    else:
        nodes = 33 if args.nodes is None else args.nodes
        sset, gram_spec, map_spec = embedding_set(nodes, seed=args.seed)
        manifest_path = save(sset, out, gram_spec)
    map_path = os.path.splitext(manifest_path)[0] + "_map.json"
    _atomic_write(map_path, json.dumps(map_spec, indent=2) + "\n")
    print(f"wrote {manifest_path}")
    print(f"wrote {map_path}")
    print(f"snapshots: {sset.count}, state dim: {sset.space_dim}, nodes: {nodes}")
    return 0


def cmd_pod(args):
    sset = load(_require(args, "input"))
    out = _require(args, "output")
    drop = DEFAULT_DROP_TOL if args.tol is None else args.tol
    basis = compute_pod(sset, drop_tol=drop)
    computed_rank = basis.rank
    if args.r is not None:
        values = _requested_r_values(args.r, basis)
        if len(values) != 1:
            raise IndexOutOfRange("pod takes a single --r value")
        basis = dataclasses.replace(basis, rank=values[0])
    save_basis(basis, out)
    lead = ", ".join("%.6e" % s for s in basis.sigma[:8])
    print(f"wrote {out}")
    print(f"rank: {computed_rank} (drop tolerance {drop:g}), kept: {basis.rank}")
    print(f"leading singular values: {lead}")
    return 0


def _certify_inputs(args):
    """verify's and sweep's certifier (bundle, POD, map, projector family
    and form) and levels; a bad report name fails before any work."""
    if args.output is not None:
        if report_format(args.output) == "csv" and args.command == "verify":
            raise MalformedManifest(f"{args.output}: a verify report is JSON, not CSV")
    sset = load(_require(args, "input"))
    basis = compute_pod(sset)
    lmap = form = None
    if args.map is not None:
        lmap, form = build_map_from_spec(args.map, sset)
        if args.projector == "composite-xy" and lmap.inverse is None:
            raise ProvenanceMismatch("--projector composite-xy needs an invertible map")
    elif args.projector != "orthogonal":
        raise ProvenanceMismatch(f"--projector {args.projector} needs --map")
    r_values = _requested_r_values(args.r, basis)
    return certifier(sset, basis, lmap, args.projector, form), r_values


def cmd_verify(args):
    cert, r_values = _certify_inputs(args)
    reports, extra = run_battery(cert, r_values, args.seed)
    if args.output is not None:
        write_report(reports, args.output, extra)
        print(f"wrote {args.output}")

    failures = [rep for rep in reports if not rep.passed]
    print(
        f"rank: {cert.basis.rank}, levels: {r_values}, checks: {len(reports)}, "
        f"failed: {len(failures)}"
    )
    rr = extra.get("rank_relation")
    if rr is not None:
        if rr["decided"]:
            status = "ok" if rr["passed"] else "FAIL"
        else:
            status = (
                f"not decided: tail bound {rr['tail']:.2e} above drop threshold "
                f"{rr['threshold']:.2e} (informational)"
            )
        print(
            f"rank relation: source {rr['rank_source']}, "
            f"image {rr['rank_image']}, {status}"
        )
    if failures:
        print(_render_rows(failures))
    return _conclude((rep.passed for rep in reports), rr)


def cmd_sweep(args):
    out = _require(args, "output")
    if args.map is None:
        raise MalformedManifest("sweep needs --map")
    if args.r is None:
        raise IndexOutOfRange("sweep needs --r")
    cert, r_values = _certify_inputs(args)
    reports = run_sweep(cert, r_values)
    write_report(reports, out, {"family": cert.family, "tol": IDENTITY_RTOL})
    print(f"wrote {out}")
    print(_render_rows(reports))
    return _conclude(rep.passed for rep in reports)


def cmd_table(args):
    reports, relation = read_report(_require(args, "input"))
    print(_render_rows(reports))
    return _conclude((rep.passed for rep in reports), relation)


# -- parser ------------------------------------------------------------------

def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"a seed is a non-negative integer, got {seed}")
    return seed


_FLAGS = {
    "input": dict(help="snapshot manifest or report to read"),
    "output": dict(help="file to write"),
    "r": dict(help="truncation level (comma list for verify and sweep)"),
    "projector": dict(choices=PROJECTOR_FAMILIES, default="orthogonal", help="projector family"),
    "map": dict(help="map spec: inline JSON or a JSON file path"),
    "tol": dict(type=float, help="eigenvalue drop tolerance"),
    "seed": dict(type=_seed, help="random seed, a non-negative integer"),
    "nodes": dict(type=int, help="finite element node count"),
}

_COMMANDS = (
    ("generate-fhn", cmd_generate, ("output", "nodes"),
     "solve the reaction-diffusion system and write a snapshot bundle"),
    ("generate-synthetic", cmd_generate, ("output", "nodes", "seed"),
     "write a smooth synthetic FEM snapshot bundle"),
    ("pod", cmd_pod, ("input", "output", "r", "tol"),
     "decompose a snapshot bundle into a basis bundle"),
    ("verify", cmd_verify, ("input", "output", "r", "projector", "map", "seed"),
     "run the identity and bound battery"),
    ("sweep", cmd_sweep, ("input", "output", "r", "projector", "map"),
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
    """Run one command; its exit code.  With no argv, main is the process
    entry (python -m podkit.cli, the podkit script): it reads sys.argv and
    first freezes the objects the imports made, numpy's among them, so that
    no collection, the one at exit included, scans them again."""
    if argv is None:
        gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PodkitError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
