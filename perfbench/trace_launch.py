"""Run one hlnet command with a span at every module boundary of the package.

    python3 trace_launch.py SPANS_PATH SPAWN_NS HLNET_ARG...

Every binding, in one ``hlnet`` module, of a public function defined in
another ``hlnet`` module is replaced by a wrapper that records a span: the
function's name as ``<layer>.<function>``, start and end on the monotonic
clock, the span that was open when it was called, whether it raised, and
a few counts of the work it did.  The bindings are found by identity, so a
call that moves between modules is still traced.  Calls within one module
are not wrapped.  ``hlnet.cli.main`` is wrapped as the root span.

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started
this process; the clock is shared by all processes, so the time from it to
the entry of ``main`` is the process start-up.  Spans stay in memory and
are written to SPANS_PATH as one JSON document when ``main`` returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from pathlib import Path


def layer_modules() -> dict:
    """Import every module of the hlnet package except ``__main__``."""
    import hlnet

    return {
        info.name: importlib.import_module(f"hlnet.{info.name}")
        for info in pkgutil.iter_modules(hlnet.__path__)
        if info.name != "__main__"
    }


class Tracer:
    def __init__(self, complete_token: str) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._complete = complete_token

    def wrap(self, fn, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
                "start_ns": time.monotonic_ns(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span["end_ns"] = time.monotonic_ns()
                self._open.pop()
                span["ok"] = ok
            span["counts"] = self._counts(name, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _counts(self, name: str, bound: inspect.BoundArguments, result) -> dict:
        layer = name.split(".", 1)[0]
        counts = {}
        for param, metric in (("destination", "bytes_written"), ("source", "bytes_read")):
            target = bound.arguments.get(param)
            if isinstance(target, (str, os.PathLike)):
                counts[f"{layer}.{metric}"] = os.path.getsize(target)
        if name == "recipes.materialize":
            counts["recipes.materialize.vertices"] = result.vertex_count
        elif name == "construction.build_component_cut":
            counts["construction.cut_edges"] = len(result)
        elif name == "formulas.run_property_suite":
            counts["formulas.suite_cases"] = sum(check.cases for check in result)
        elif layer == "oracles" and hasattr(result, "status"):
            key = "complete" if result.status == self._complete else "incomplete"
            counts[f"oracles.{key}"] = 1
        return counts


def install(tracer: Tracer, modules: dict) -> list[str]:
    """Wrap cross-module bindings of public functions; return them as 'where -> what'."""
    installed = []
    for layer, module in modules.items():
        for fname, fn in list(vars(module).items()):
            if fname.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            wrapper = None
            for other in modules.values():
                if other is module:
                    continue
                for binding, value in list(vars(other).items()):
                    if value is fn:
                        wrapper = wrapper or tracer.wrap(fn, f"{layer}.{fname}")
                        setattr(other, binding, wrapper)
                        installed.append(f"{other.__name__}.{binding} -> {layer}.{fname}")
    return installed


def main() -> int:
    spans_path, spawn_ns, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    modules = layer_modules()
    tracer = Tracer(modules["oracles"].COMPLETE)
    bindings = install(tracer, modules)
    cli_main = tracer.wrap(modules["cli"].main, "cli.main")
    entry_ns = time.monotonic_ns()
    try:
        return cli_main(argv)
    finally:
        spans_path.write_text(
            json.dumps(
                {
                    "startup_s": (entry_ns - spawn_ns) / 1e9,
                    "bindings": bindings,
                    "spans": tracer.spans,
                }
            )
        )


if __name__ == "__main__":
    sys.exit(main())
