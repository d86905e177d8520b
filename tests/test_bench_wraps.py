"""Every function the benchmark's per-layer tracer wraps still exists.

`bench/layers.py` wraps public graphonlab functions by module and name.
A target that was renamed or deleted only prints `trace: no X to wrap`
there, and the metrics of its layer then read 0 without failing. This
loads the wrap list from the benchmark without running anything and
resolves each target the way the tracer does.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

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
