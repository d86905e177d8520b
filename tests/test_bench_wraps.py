"""Every function the benchmark's per-layer tracer wraps still exists.

`bench/layers.py` wraps public graphonlab functions by module and name.
A target that was renamed or deleted only prints `trace: no X to wrap`
there, and the metrics of its layer then read 0 without failing. This
loads the wrap list from the benchmark without running anything and
resolves each target the way the tracer does.

The tracer replaces a module function by rebinding the module attributes
that hold it, so a call through a module-level dict, list or tuple built
at import keeps the unwrapped function and is never traced; no graphonlab
module may hold a wrapped function that way. It also reads the graphs it
sees: a directed host is what has `rows`, and counts are keyed by hash.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import graphonlab
from graphonlab.bipartite import BipartiteGraph
from graphonlab.directed import DirectedGraph, quadruple_from_quintuple, tournament_kernel
from graphonlab.graphs import LabelledGraph

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def wrap_targets() -> list[tuple[str, str]]:
    return [(modname, attr) for modname, attr, _, _ in bench_layers().WRAPS] + [("rng", "run_chunked")]


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


def test_hosts_are_what_the_tracer_takes_them_for():
    """The tracer tells a directed host from a directed kernel by
    hasattr(host, "rows"), and keys a count by hash((kind, pattern,
    host)): a DirectedGraph has rows and neither kernel class does, and
    equal patterns and hosts of each kind hash alike."""
    layers = bench_layers()
    f = DirectedGraph.from_edges(2, [(1, 2)])
    host = DirectedGraph.from_edges(70, [(1, 70), (70, 70)])
    kernels = [tournament_kernel(), quadruple_from_quintuple(tournament_kernel(), Fraction(1, 3))]
    assert layers._directed_layer((f, host)) == "directed.count"
    assert [layers._directed_layer((f, w)) for w in kernels] == ["directed.contract"] * 2
    assert layers._directed_terms((f, host), {}, None) is None
    key = layers._count_key("t")
    for make in [lambda: (LabelledGraph.complete(3), LabelledGraph.from_edges(70, [(1, 70)])),
                 lambda: (DirectedGraph.from_edges(2, [(1, 2)]), DirectedGraph.from_edges(70, [(70, 1)])),
                 lambda: (BipartiteGraph.complete(1, 2), BipartiteGraph.from_edges(3, 70, [(3, 70)]))]:
        assert key(make(), {}, None) == key(make(), {}, None)
