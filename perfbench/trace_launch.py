"""Run one podkit command with a span around every module-level function.

Usage:

    python perfbench/trace_launch.py SPANS_JSON RUN_ID -- <podkit cli arguments>

The launcher times ``import podkit.cli``, then replaces every function bound
at module level in a podkit module with a timing wrapper.  That covers the
functions a module defines, the podkit functions it imports from another
module (``cli.compute_pod``, ``error_lab.project_X``: one wrapper per function,
named after the defining module, so every binding records the same span), and
the scipy kernels it binds (``pod_engine.svd``, ``fhn_gen.lu_factor``: named
after the binding module, because that module's code calls them).  It then
calls ``podkit.cli.main`` with the arguments after ``--`` and exits with its
return code.

Spans stay in memory and are written once, at exit, to SPANS_JSON:
``{"run_id", "import_s", "exit_code", "names", "spans", "counters"}`` where
each span is ``[id, parent_id, name_index, start_ns, end_ns]`` and parent_id
is -1 at the root.  The counters are work counts computed at the same
boundaries from argument sizes and file sizes (see ``COUNTER_HOOKS``).
Nothing in ``src/`` changes, and outputs must match an untraced run byte for
byte; ``perfbench/run.py`` checks that.
"""

import functools
import inspect
import json
import os
import sys
import time

PODKIT_MODULES = (
    "podkit.cli",
    "podkit.error_lab",
    "podkit.fem",
    "podkit.fhn_gen",
    "podkit.gram_space",
    "podkit.linear_map",
    "podkit.pod_engine",
    "podkit.projector",
    "podkit.snapshot_io",
)


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.spans = []
        self.stack = [-1]
        self.next_id = 0
        self.counters = {
            "gram_space.inner.gram_bytes": 0,
            "snapshot_io.bytes_read": 0,
            "snapshot_io.bytes_written": 0,
        }

    def wrap(self, name, func, hook=None):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        index = self._name_index[name]
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, index, start, end))
                if hook is not None:
                    hook(self.counters, args[0])

        return traced


def _count_gram_bytes(counters, space):
    counters["gram_space.inner.gram_bytes"] += int(space.gram.nbytes)


def _count_read(counters, path):
    if os.path.exists(path):
        counters["snapshot_io.bytes_read"] += os.path.getsize(path)


def _count_written(counters, path):
    if os.path.exists(path):
        counters["snapshot_io.bytes_written"] += os.path.getsize(path)


# Computed work counters, keyed by span name and fed the call's first
# argument, which podkit always passes positionally: bytes of the Gram matrix
# each inner product reads, and sizes of the files snapshot_io reads and
# writes (every podkit file write goes through snapshot_io._atomic_write).
COUNTER_HOOKS = {
    "gram_space.inner": _count_gram_bytes,
    "snapshot_io.load": _count_read,
    "snapshot_io.read_matrix_csv": _count_read,
    "snapshot_io._atomic_write": _count_written,
}


def _span_name(module_name, binding, obj):
    """Span name for a module-level binding, or None when it is not traced."""
    if not callable(obj) or inspect.isclass(obj):
        return None
    defined_in = getattr(obj, "__module__", None) or ""
    if inspect.isfunction(obj) and defined_in.startswith("podkit"):
        return defined_in.rsplit(".", 1)[-1] + "." + obj.__name__
    if defined_in.startswith("scipy"):
        return module_name.rsplit(".", 1)[-1] + "." + binding
    return None


def instrument(tracer):
    """Rebind every traced function in every podkit module to its wrapper."""
    wrappers = {}
    for module_name in PODKIT_MODULES:
        module = sys.modules[module_name]
        for binding, obj in list(vars(module).items()):
            name = _span_name(module_name, binding, obj)
            if name is None:
                continue
            # podkit functions share one wrapper across bindings; scipy
            # kernels get one per binding module.
            key = (id(obj), name)
            if key not in wrappers:
                wrappers[key] = tracer.wrap(name, obj, COUNTER_HOOKS.get(name))
            setattr(module, binding, wrappers[key])


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]

    start = time.perf_counter()
    import podkit.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    instrument(tracer)
    exit_code = 1
    try:
        exit_code = podkit.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "run_id": run_id,
                    "import_s": import_s,
                    "exit_code": exit_code,
                    "names": tracer.names,
                    "spans": tracer.spans,
                    "counters": tracer.counters,
                },
                fh,
                separators=(",", ":"),
            )
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
