"""The package ships only what its command line runs.

cli.main runs in process under the standard library's trace module
(function counting) over every subcommand, each projector family and each
map spec kind, on tiny bundles.  Every top-level function of src/podkit
must be called.  A function no command reaches belongs in tests/oracles.py,
beside the other references, or nowhere.
"""

import ast
import gc
import json
import trace
from pathlib import Path

import numpy as np

import podkit
from podkit.cli import main

SRC = Path(podkit.__file__).resolve().parent


def top_level_functions():
    """{(module stem, name)} of every def at the top of a podkit module."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= {
            (path.stem, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)
        }
    return found


def cli_runs(tmp):
    """argv lists covering every subcommand, family and map spec kind."""
    synth, fhn = str(tmp / "s.json"), str(tmp / "fhn.json")
    n = 17
    matrix = tmp / "m.csv"
    np.savetxt(matrix, np.eye(n) + 0.1 * np.diag(np.ones(n - 1), 1), delimiter=",")
    maps = {
        "identity": {"identity": n},
        "diag": {"diag": list(np.linspace(1.0, 2.0, n))},
        "matrix": {"matrix": str(matrix), "invertible": True},
        "derivative": {"derivative_1d": {"nodes": n, "scheme": "centered"}},
        "embedding": synth.replace(".json", "_map.json"),
    }
    runs = [
        ["generate-fhn", "--nodes", "4", "--output", fhn],
        ["generate-synthetic", "--nodes", str(n), "--output", synth],
        ["pod", "--input", synth, "--output", str(tmp / "b.json"), "--r", "3"],
        ["verify", "--input", synth, "--r", "1,2", "--seed", "1",
         "--output", str(tmp / "plain.json")],
        ["verify", "--input", fhn, "--map", fhn.replace(".json", "_map.json"), "--r", "1"],
    ]
    for kind, spec in maps.items():
        spec = spec if isinstance(spec, str) else json.dumps(spec)
        runs.append([
            "verify", "--input", synth, "--map", spec, "--r", "2",
            "--output", str(tmp / f"{kind}.json"),
        ])
    # ritz with a form of its own reaches the ellipticity and the Ritz system
    ritz_map = json.dumps({
        "embedding": {"from": "mass", "to": "stiffness+mass"}, "ritz_form": {"fem_stiffness": n},
    })
    for family in ("orthogonal", "ritz", "composite-xy"):
        spec = ritz_map if family == "ritz" else maps["embedding"]
        runs.append([
            "sweep", "--input", synth, "--map", spec, "--projector", family,
            "--r", "1,3", "--output", str(tmp / f"{family}.csv"),
        ])
        runs.append([
            "verify", "--input", synth, "--map", spec, "--projector", family,
            "--output", str(tmp / f"{family}.json"),
        ])
    runs += [
        ["table", "--input", str(tmp / "ritz.csv")],
        ["table", "--input", str(tmp / "ritz.json")],
    ]
    return runs


def test_every_top_level_function_is_reached_from_the_cli(tmp_path, capsys):
    tracer = trace.Trace(count=0, trace=0, countfuncs=1)
    # trace names a method's class by gc.get_referrers, which scans every
    # tracked object once per new code object; frozen objects are not
    # scanned, which makes the run about six times faster
    gc.freeze()
    try:
        codes = [tracer.runfunc(main, argv) for argv in cli_runs(tmp_path)]
    finally:
        gc.unfreeze()
    capsys.readouterr()
    assert codes == [0] * len(codes)
    called = {
        (Path(filename).stem, name)
        for filename, _, name in tracer.results().calledfuncs
        if Path(filename).resolve().parent == SRC
    }
    unreached = {f"{module}.{name}" for module, name in top_level_functions() - called}
    assert not unreached, "\n".join(sorted(unreached))


def test_the_package_imports_nothing():
    # podkit/__init__.py holds its docstring and __version__; callers import
    # the submodules, so no re-export list can drift from them
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    docstring, version = tree.body
    assert isinstance(docstring.value, ast.Constant)
    assert [target.id for target in version.targets] == ["__version__"]


def test_no_module_imports_a_name_it_never_uses():
    # every module's import must bind a name that its code reads
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unused += [
                    f"{path.stem}.py:{node.lineno}: {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert not unused, "\n".join(unused)
