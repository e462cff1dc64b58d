"""The benchmark's per-layer call counts stay measurable.

perfbench's tracer times a function by wrapping each binding of it in
another hlnet module, so a function that no other module imports has no
per-layer metrics.  This keeps every function that BENCHMARK.json counts
bound where the tracer looks, whatever the benchmark's own self-test does.
"""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import hlnet

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_every_counted_function_is_bound_by_another_layer():
    modules = {
        info.name: importlib.import_module(f"hlnet.{info.name}")
        for info in pkgutil.iter_modules(hlnet.__path__)
        if info.name != "__main__"
    }
    # cli.main is wrapped directly as the entry point, not through a binding
    counted = [
        metric["name"].split(".")[:2]
        for metric in SPEC["per_layer"]
        if metric["name"].endswith(".calls") and metric["name"] != "cli.main.calls"
    ]
    assert counted
    unbound = []
    for layer, name in counted:
        module = modules[layer]
        fn = getattr(module, name, None)
        bound = (
            inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and any(
                value is fn
                for other in modules.values()
                if other is not module
                for value in vars(other).values()
            )
        )
        if not bound:
            unbound.append(f"{layer}.{name}")
    assert not unbound, f"no other hlnet module binds {', '.join(unbound)}"
