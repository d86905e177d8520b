"""Every function the benchmark's per-layer tracer wraps still exists.

`bench/layers.py` wraps public graphonlab functions by module and name.
A target that was renamed or deleted only prints `trace: no X to wrap`
there, and the metrics of its layer then read 0 without failing. This
loads the wrap list from the benchmark without running anything and
resolves each target the way the tracer does.

The tracer replaces a module function by rebinding the module attributes
that hold it, so a call through a module-level dict, list or tuple built
at import keeps the unwrapped function and is never traced; no graphonlab
module may hold a wrapped function that way.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import graphonlab

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def wrap_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(modname, attr) for modname, attr, _, _ in layers.WRAPS] + [("rng", "run_chunked")]


def test_every_bench_wrap_target_resolves():
    targets = wrap_targets()
    missing = []
    for modname, attr in targets:
        module = importlib.import_module(f"graphonlab.{modname}")
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or inspect.getattr_static(owner, fname, None) is None:
            missing.append(f"{modname}.{attr}")
    assert len(targets) > 1 and missing == []


def _contents(value) -> list:
    """Everything a dict, list or tuple holds, nested ones included."""
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    elif not isinstance(value, (list, tuple)):
        return []
    return [x for item in value for x in [item, *_contents(item)]]


def test_no_wrapped_function_sits_in_a_module_level_container():
    wrapped = {}
    for modname, attr in wrap_targets():
        module = importlib.import_module(f"graphonlab.{modname}")
        owner_name, _, fname = attr.rpartition(".")
        target = getattr(getattr(module, owner_name) if owner_name else module, fname)
        wrapped[getattr(target, "__func__", target)] = f"{modname}.{attr}"
    held = []
    for info in pkgutil.iter_modules(graphonlab.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"graphonlab.{info.name}")
        for name, value in vars(module).items():
            for item in _contents(value):
                func = getattr(item, "__func__", item)
                if callable(func) and func in wrapped:
                    held.append(f"{info.name}.{name} holds {wrapped[func]}")
    assert held == []
