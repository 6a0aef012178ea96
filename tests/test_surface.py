"""The package ships only what its command line runs.

cli.main runs in process under a sys.settrace hook that records the code
object of every new frame, over every subcommand, each projector family
and each map spec kind, on tiny bundles, and one usage error.  Every
top-level function of src/podkit and every method defined in a class body
there must be called.  A function no command reaches belongs in
tests/oracles.py, beside the other references, or nowhere.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np

import podkit
from podkit.cli import main

SRC = Path(podkit.__file__).resolve().parent


def defined_functions():
    """{(module stem, first line): "module.name"} of every def at the top of
    a podkit module, and as "module.Class.name" of every def in a class body
    there.  A decorated def's first line is its first decorator's, as in its
    code object's co_firstlineno."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            is_class = isinstance(node, ast.ClassDef)
            for d in node.body if is_class else [node]:
                if isinstance(d, ast.FunctionDef):
                    first = min([d.lineno] + [dec.lineno for dec in d.decorator_list])
                    found[path.stem, first] = ".".join(
                        [path.stem] + [node.name] * is_class + [d.name]
                    )
    return found


def cli_runs(tmp):
    """argv lists covering every subcommand, family and map spec kind."""
    synth, fhn = str(tmp / "s.json"), str(tmp / "fhn.json")
    n = 17
    matrix = tmp / "m.csv"
    np.savetxt(matrix, np.eye(n) + 0.1 * np.diag(np.ones(n - 1), 1), delimiter=",")
    form = tmp / "form.csv"  # every diagonal nonzero: a full band
    np.savetxt(form, np.eye(n) + np.full((n, n), 0.01), delimiter=",")
    ritz_csv = json.dumps({
        "embedding": {"from": "mass", "to": "stiffness+mass"}, "ritz_form": str(form),
    })
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
    # a dense CSV form takes the Ritz ellipticity's dense eigensolve
    runs.append([
        "verify", "--input", synth, "--map", ritz_csv, "--projector", "ritz", "--r", "2",
    ])
    runs += [
        ["table", "--input", str(tmp / "ritz.csv")],
        ["table", "--input", str(tmp / "ritz.json")],
        ["table", "--input", str(tmp / "ritz.json"), "--tol", "1"],  # a usage error
    ]
    return runs


def test_every_function_and_method_is_reached_from_the_cli(tmp_path, capsys):
    called = set()

    def record(frame, event, arg):  # called at each new frame; None traces no line of it
        called.add(frame.f_code)

    runs = cli_runs(tmp_path)
    outer = sys.gettrace()
    sys.settrace(record)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.settrace(outer)
    capsys.readouterr()
    assert codes == [0] * (len(runs) - 1) + [2]
    reached = {
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in called
        if Path(code.co_filename).resolve().parent == SRC
    }
    unreached = sorted(name for key, name in defined_functions().items() if key not in reached)
    assert not unreached, "\n".join(unreached)


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
