#!/usr/bin/env python3
"""Benchmark of the podkit command-line pipeline, end to end and per module.

Run from the root of a podkit checkout:

    python3 perfbench/run.py --workload fhn_certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload has an untimed set-up (timed on its own as ``setup_s``) that
writes a snapshot bundle, followed by a timed sequence of real
``python -m podkit.cli`` processes, one at a time, with BLAS and OpenMP
pinned to one thread.  The sequence repeats until ``--seconds`` are used (at
least twice, so outputs can be compared between repeats) and every
end-to-end metric is the median over repeats.

With ``--trace 1`` the sequence alternates between untraced processes and
processes started through ``perfbench/trace_launch.py``, which wraps every
module-level podkit function in a span; the per-module metrics come from
those spans and ``trace.overhead_frac`` from the wall-time difference.

Every run checks the outputs: bundle shapes, the rank ``pod`` prints, report
row counts, exit codes that agree with the reports, and byte-identical output
files across repeats and between traced and untraced processes.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units come
from ``BENCHMARK.json``.  ``perfbench/METRICS.md`` says what each metric is
and which workload should move it.
"""

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_SEQUENCES = 2
# A run starts no sequence that would end after RUN_LIMIT_S and kills a
# command after CHILD_LIMIT_S (ten times the slowest command's usual time),
# so that it ends within three minutes even when a command hangs.
RUN_LIMIT_S = 100.0
CHILD_LIMIT_S = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One benchmark input: set-up commands, timed steps and expected outputs.

    Arguments are templates: ``{seed}`` is the workload seed, ``{bundle}``
    the set-up directory relative to a sequence directory, and ``{levels}``
    the list 1..rank with the rank ``pod`` printed in the same sequence.
    """

    setup: tuple
    steps: tuple
    bundle: str
    shape: tuple
    rank: int | None = None
    rows: tuple = ()


FHN_INPUT = ("--input", "{bundle}/fhn.json", "--map", "{bundle}/fhn_map.json")
EMBED_INPUT = ("--input", "{bundle}/embed.json", "--map", "{bundle}/embed_map.json")

WORKLOADS = {
    # All work in fhn_gen (SDIRK Newton with dense LU) and the CSV writer.
    "fhn_generate": Workload(
        setup=(),
        steps=(("generate", ("generate-fhn", "--output", "fhn.json")),),
        bundle="fhn.json",
        shape=(200, 2000),
    ),
    # The README flagship pipeline at verify's default levels 1, 11, 22.
    "fhn_certify": Workload(
        setup=(("generate-fhn", "--output", "fhn.json"),),
        steps=(
            ("pod", ("pod", "--input", "{bundle}/fhn.json", "--output", "basis.json")),
            ("verify", ("verify",) + FHN_INPUT + ("--seed", "{seed}", "--output", "verify.json")),
            ("sweep", ("sweep",) + FHN_INPUT + ("--r", "4,12", "--output", "sweep.csv")),
        ),
        bundle="fhn.json",
        shape=(200, 2000),
        rank=22,
        rows=(("verify", 45), ("sweep", 6)),
    ),
    # A 1000-node FEM embedding with few snapshots and an invertible map.
    "embed_certify": Workload(
        setup=(
            ("generate-synthetic", "--nodes", "1000", "--seed", "{seed}", "--output", "embed.json"),
        ),
        steps=(
            ("pod", ("pod", "--input", "{bundle}/embed.json", "--output", "basis.json")),
            (
                "verify",
                ("verify",) + EMBED_INPUT
                + ("--projector", "composite-xy", "--seed", "{seed}", "--output", "verify.json"),
            ),
            (
                "sweep",
                ("sweep",) + EMBED_INPUT
                + ("--projector", "ritz", "--r", "{levels}", "--output", "sweep.csv"),
            ),
        ),
        bundle="embed.json",
        shape=(1000, 40),
        rank=8,
        rows=(("verify", 84), ("sweep", 32)),
    ),
}

ENV_PROBE = """
import json, os, sys
import numpy, scipy, podkit
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_config": blas.get("openblas configuration"),
}))
"""


# -- child processes ---------------------------------------------------------

@dataclass
class Child:
    label: str
    code: int
    wall_s: float
    rss_mb: float
    stdout: str


def child_env():
    env = dict(os.environ)
    env.pop("PODKIT_TOL", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(label, argv, cwd, log_dir):
    """Run one process to completion; wall time and peak RSS from wait4."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path = log_dir / (label + ".out")
    with open(out_path, "wb") as out, open(log_dir / (label + ".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        label=label,
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
    )


def podkit_argv(args, spans=None, run_id=None):
    if spans is None:
        return [sys.executable, "-m", "podkit.cli", *args]
    return [sys.executable, str(HERE / "trace_launch.py"), str(spans), run_id, "--", *args]


# -- output checks -----------------------------------------------------------

def check_bundle(directory, manifest_name, shape):
    """Problems with a snapshot bundle: manifest dims and data CSV shape."""
    try:
        manifest = json.loads((directory / manifest_name).read_text())
        data = (directory / manifest["data"]).read_bytes()
    except (OSError, ValueError, KeyError) as exc:
        return [f"{manifest_name}: unreadable bundle ({exc})"]
    lines = data.rstrip(b"\n").split(b"\n")
    found = (len(lines), lines[0].count(b",") + 1)
    if (manifest.get("dim"), manifest.get("count")) != shape or found != shape:
        return [f"{manifest_name}: manifest {manifest.get('dim')}x{manifest.get('count')}, "
                f"data {found[0]}x{found[1]}, expected {shape[0]}x{shape[1]}"]
    return []


def report_counts(path):
    """(rows, failed rows, decided rank relation failed) of a verify or sweep report."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return len(rows), sum(row["passed"] != "true" for row in rows), False
    payload = json.loads(path.read_text())
    rows = payload["checks"]
    relation = payload.get("rank_relation") or {}
    relation_failed = bool(relation.get("decided")) and not relation.get("passed")
    return len(rows), sum(not row["passed"] for row in rows), relation_failed


def check_step(wl, label, child, seq_dir, expected_rows):
    """Problems with one step's outputs, and its report rows and failed rows."""
    problems = []
    rows = failed_rows = 0
    if label == "generate":
        if child.code != 0:
            problems.append(f"generate exited {child.code}")
        problems += check_bundle(seq_dir, wl.bundle, wl.shape)
    elif label == "pod":
        rank = printed_rank(child)
        if child.code != 0 or rank != wl.rank:
            problems.append(f"pod exited {child.code} with rank {rank}, expected {wl.rank}")
    else:
        path = seq_dir / ("verify.json" if label == "verify" else "sweep.csv")
        try:
            rows, failed_rows, relation_failed = report_counts(path)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{label}: unreadable report ({exc}), exit {child.code}"], 0, 0
        if rows != expected_rows:
            problems.append(f"{label}: {rows} report rows, expected {expected_rows}")
        # Exit 4 exactly when a row (or a decided rank relation) failed.
        want_code = 4 if failed_rows or relation_failed else 0
        if child.code != want_code:
            problems.append(f"{label}: exit {child.code} with {failed_rows} failed rows")
    return problems, rows, failed_rows


def printed_rank(child):
    match = re.search(r"^rank: (\d+)", child.stdout, re.M)
    return int(match.group(1)) if match else None


def digest_tree(directory):
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


# -- sequences ---------------------------------------------------------------

@dataclass
class Sequence:
    children: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failed_ops: int = 0
    failed_rows: int = 0
    report_rows: int = 0
    digests: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def wall_s(self):
        return sum(child.wall_s for child in self.children)


def run_sequence(wl, seed, tag, traced):
    """The timed commands of a workload, each a fresh process, in order."""
    seq_dir = WORK / tag
    seq_dir.mkdir(parents=True)
    expected_rows = dict(wl.rows)
    context = {"seed": seed, "bundle": "../setup0", "levels": ""}
    seq = Sequence()
    for label, template in wl.steps:
        args = [part.format(**context) for part in template]
        spans = WORK / "spans" / f"{tag}-{label}.json" if traced else None
        if spans is not None:
            spans.parent.mkdir(exist_ok=True)
            seq.spans.append(spans)
        child = run_child(label, podkit_argv(args, spans, tag), seq_dir, WORK / "logs" / tag)
        seq.children.append(child)
        problems, rows, failed_rows = check_step(wl, label, child, seq_dir, expected_rows.get(label))
        seq.problems += [f"{tag}: {p}" for p in problems]
        seq.failed_ops += int(child.code != 0 or bool(problems))
        seq.report_rows += rows
        seq.failed_rows += failed_rows
        if label == "pod":
            rank = printed_rank(child) or 1
            context["levels"] = ",".join(str(r) for r in range(1, rank + 1))
    seq.digests = digest_tree(seq_dir)
    return seq


def run_setup(wl, seed, index):
    """One set-up: the environment probe plus the bundle-writing commands."""
    setup_dir = WORK / f"setup{index}"
    setup_dir.mkdir(parents=True)
    logs = WORK / "logs" / f"setup{index}"
    children = [run_child("env", [sys.executable, "-c", ENV_PROBE], setup_dir, logs)]
    for k, template in enumerate(wl.setup):
        args = [part.format(seed=seed) for part in template]
        children.append(run_child(f"{args[0]}{k}", podkit_argv(args), setup_dir, logs))
    problems = [f"setup{index}: {c.label} exited {c.code}" for c in children if c.code != 0]
    if wl.setup:
        problems += [f"setup{index}: {p}" for p in check_bundle(setup_dir, wl.bundle, wl.shape)]
    env = {}
    if children[0].code == 0:
        env = json.loads(children[0].stdout.strip().splitlines()[-1])
    return children, problems, env, digest_tree(setup_dir)


# -- per-layer metrics -------------------------------------------------------

def span_totals(span_files):
    """Inclusive time, calls and module self time from traced processes.

    Inclusive time counts only the outermost span of a name, so recursion is
    not counted twice.  A module's self time is the duration of its spans
    minus the time of their direct child spans.
    """
    incl, calls, self_ns, counters = Counter(), Counter(), Counter(), Counter()
    import_s = 0.0
    svd_in_pod_ns = 0
    for path in span_files:
        data = json.loads(Path(path).read_text())
        import_s += data["import_s"]
        counters.update(data["counters"])
        names = data["names"]
        spans = {sid: (parent, names[ni], end - start) for sid, parent, ni, start, end in data["spans"]}
        child_ns = Counter()
        for parent, _, dur in spans.values():
            child_ns[parent] += dur
        for sid, (parent, name, dur) in spans.items():
            calls[name] += 1
            self_ns[name.split(".")[0]] += dur - child_ns[sid]
            ancestors = set()
            while parent >= 0:
                parent, ancestor, _ = spans[parent]
                ancestors.add(ancestor)
            if name not in ancestors:
                incl[name] += dur
            if name == "pod_engine.svd" and "pod_engine.compute_pod" in ancestors:
                svd_in_pod_ns += dur
    return incl, calls, self_ns, counters, import_s, svd_in_pod_ns


def layer_metrics(seq, names):
    incl, calls, self_ns, counters, import_s, svd_in_pod_ns = span_totals(seq.spans)
    special = {
        "cli.import_s": import_s,
        "pod_engine.compute_pod.post_s": (incl["pod_engine.compute_pod"] - svd_in_pod_ns) / 1e9,
        "error_lab.write_report.s": (
            incl["error_lab.write_report_csv"] + incl["error_lab.write_report_json"]
        ) / 1e9,
        "error_lab.reports": seq.report_rows,
        "error_lab.reports_failed": seq.failed_rows,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        elif name in counters:
            values[name] = counters[name]
        elif name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            values[name] = self_ns[name[: -len(".self_s")]] / 1e9
        elif name.endswith(".s"):
            values[name] = incl[name[: -len(".s")]] / 1e9
    return values


# -- one workload ------------------------------------------------------------

def run_workload(name, wl, seed, seconds, trace, spec):
    """Set up, repeat the timed sequence, check outputs; returns the result."""
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    run_start = time.perf_counter()
    problems = []
    attempted = failed = 0

    setups = []
    for index in range(1 if trace else SETUP_REPEATS):
        children, setup_problems, env, digests = run_setup(wl, seed, index)
        setups.append((sum(c.wall_s for c in children), digests))
        problems += setup_problems
        attempted += len(wl.setup)
        failed += min(len(setup_problems), len(wl.setup))
        if setup_problems:
            break
    if any(digests != setups[0][1] for _, digests in setups):
        problems.append("set-up bundles differ between repeats")

    untraced, traced = [], []
    if not problems:
        measure_start = time.perf_counter()
        while True:
            plan = (False, True) if trace else (False,)
            for is_traced in plan:
                group = traced if is_traced else untraced
                tag = f"{'traced' if is_traced else 'plain'}{len(group)}"
                seq = run_sequence(wl, seed, tag, is_traced)
                group.append(seq)
                problems += seq.problems
                attempted += len(seq.children)
                failed += seq.failed_ops
                if seq.digests != untraced[0].digests:
                    problems.append(f"{tag}: output files differ from plain0")
            rounds = len(untraced)
            elapsed = time.perf_counter() - measure_start
            per_round = elapsed / rounds
            if seq.problems or time.perf_counter() - run_start + per_round > RUN_LIMIT_S:
                break
            if rounds >= (1 if trace else MIN_SEQUENCES) and elapsed + per_round > seconds:
                break

    env["nproc"] = os.cpu_count()
    env["threads"] = {var: "1" for var in THREAD_VARS}
    env["seed"] = seed
    env["workload"] = name
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {}
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if traced and all(path.is_file() for seq in traced for path in seq.spans):
            per_seq = [layer_metrics(seq, names) for seq in traced]
            plain_wall = statistics.median([seq.wall_s for seq in untraced])
            traced_wall = statistics.median([seq.wall_s for seq in traced])
            for metric in names:
                if metric == "trace.overhead_frac":
                    value = (traced_wall - plain_wall) / plain_wall
                else:
                    value = statistics.median([values[metric] for values in per_seq])
                metrics[metric] = {"value": value, "unit": units[metric]}
    elif untraced:
        walls = [seq.wall_s for seq in untraced]
        values = {
            "setup_s": statistics.median([wall for wall, _ in setups]),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median([max(c.rss_mb for c in seq.children) for seq in untraced]),
        }
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        # The per-command times and the failed-row count exist only on some
        # workloads, so they are printed here rather than in the result.
        print(f"{name} setup_s {values['setup_s']:.4f} s (median of {len(setups)} set-ups)")
        print(f"{name} wall_s {values['wall_s']:.4f} s (median of {len(walls)} sequences, "
              f"min {min(walls):.4f}, max {max(walls):.4f})")
        for label, _ in wl.steps:
            times = [c.wall_s for seq in untraced for c in seq.children if c.label == label]
            print(f"{name} {label}_s {statistics.median(times):.4f} s (median of {len(times)})")
        print(f"{name} peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        if wl.rows:
            print(f"{name} checks_failed {untraced[0].failed_rows} count")

    for problem in problems:
        print("CHECK FAILED: " + problem)
    shutil.rmtree(WORK, ignore_errors=True)
    complete = len(metrics) == len(spec["per_layer" if trace else "end_to_end"])
    return {
        "correct": not problems and complete,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "podkit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no podkit sources under {ROOT}; run from a podkit checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    results = {name: run_workload(name, WORKLOADS[name], args.seed, seconds, args.trace, spec)
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        for name, res in results.items():
            print(f"{name} " + json.dumps(res))
        result = {
            "correct": all(res["correct"] for res in results.values()),
            "attempted": sum(res["attempted"] for res in results.values()),
            "failed": sum(res["failed"] for res in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, res in results.items() for metric, value in res["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
