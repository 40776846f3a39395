"""Spans around calls into dissimjl, recorded from outside the package.

``Tracer.install`` replaces every public function that a dissimjl module
defines with a recording wrapper, in every dissimjl module namespace that
binds it: ``pipeline.decompose``, ``power.decompose`` and
``dissimjl.decompose`` are separate bindings of one function and all of
them report as ``core.decompose``.  Nothing under ``src/`` changes;
``uninstall`` puts the original bindings back.

Each call records one span: name (``<module>.<function>``), op id, span id,
parent span id, start, end and self time (duration minus the time covered
by its child spans).  A few stages also record their peak traced
allocation, and the CLI readers and writers the bytes of the file they
touched.

Run as a script, it traces one CLI invocation in this process and writes
its spans as JSON:

    python3 perfbench/tracer.py SPANS.json <dissimjl cli arguments...>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

LAYERS = (
    "core", "pqspace", "power", "projection", "evaluate", "pipeline", "cli", "datagen",
)
# stages whose peak traced allocation is recorded (tracemalloc runs only
# inside them, so the rest of the op is not slowed by allocation tracking)
PEAK_ALLOC = frozenset({
    "core.decompose",
    "evaluate.validate_pq_bound",
    "projection.reconstruct",
    "evaluate.relative_error_stats",
})
# stages whose first argument is the path of the file they read or write
FILE_BYTES = frozenset({"cli.read_matrix", "cli.write_matrix"})


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the op under way."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = "setup"
        self._stack: list[list] = []  # [span, time covered by children]
        self._patched: list[tuple] = []
        self._next_id = 0

    def install(self) -> None:
        modules = [importlib.import_module("dissimjl")] + [
            importlib.import_module(f"dissimjl.{name}") for name in LAYERS
        ]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("dissimjl."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def take(self) -> list[dict]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        track_alloc = name in PEAK_ALLOC
        file_bytes = name in FILE_BYTES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0]["id"] if self._stack else None
            span = {"name": name, "op": self.op, "id": self._next_id, "parent": parent}
            self._next_id += 1
            entry = [span, 0.0]
            self._stack.append(entry)
            alloc = track_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if file_bytes and isinstance(args[0], str) and os.path.isfile(args[0]):
                    span["bytes"] = os.path.getsize(args[0])
                return result
            finally:
                end = time.perf_counter()
                if alloc:
                    span["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                duration = end - start
                span.update(start=start, end=end, self=duration - entry[1])
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append(span)

        return traced


def _trace_cli(spans_path: str, argv: list[str]) -> int:
    import dissimjl.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = "cli"
    try:
        return dissimjl.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1], sys.argv[2:]))
