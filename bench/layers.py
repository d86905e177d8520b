"""Traced runner and per-layer metrics.

Run as a script, this module is one traced graphonlab invocation:

    python -X importtime bench/layers.py --spans FILE --cmd ID -- density -F ...

It imports graphonlab from PYTHONPATH, wraps the public functions behind
the per-layer metrics (replacing the attribute in every graphonlab module
that imported it, aliases included), runs `python -m graphonlab` in the
same process and appends its spans to FILE as JSON lines when the command
ends. A span is (cmd, id, name, start, end, parent, counts); spans opened
in run_chunked's worker threads have the enclosing run_chunked as parent.

Imported, it launches such children (`traced_run`) and turns the span file
into the metrics named in BENCHMARK.json (`aggregate`). Time metrics
(`*_s`) are inclusive: the time inside the outermost span of their kind.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from pathlib import Path

SPAN_FIELDS = ("cmd", "id", "name", "start", "end", "parent", "n")


# ------------------------------------------------------------------ recording


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, cmd: int) -> None:
        self.cmd = cmd
        self.spans: list[tuple] = []
        self.local = threading.local()
        self.ids = itertools.count(1)  # next() is atomic under the interpreter lock

    def stack(self) -> list[int]:
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def call(self, name: str, fn, args, kwargs, counts=None, parent: int | None = None):
        stack = self.stack()
        sid = next(self.ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        n = None
        try:
            result = fn(*args, **kwargs)
            n = counts(args, kwargs, result) if counts else None
            return result
        finally:
            stack.pop()
            self.spans.append((self.cmd, sid, name, start, time.perf_counter(), parent, n))

    def write(self, path: Path) -> None:
        with open(path, "a", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def _size(arg) -> int:
    return os.path.getsize(arg) if isinstance(arg, (str, os.PathLike)) else len(arg)


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _count_key(kind: str):
    # (kind, pattern, host) seen before in the same command: recomputed work
    return lambda a, k, r: {"key": hash((kind, a[0], a[1]))}


def _directed_layer(args) -> str:
    """directed_t and directed_t_ind serve finite hosts (counting) and
    kernels (contraction); the host type decides which layer ran."""
    return "directed.count" if hasattr(args[1], "rows") else "directed.contract"


def _directed_terms(args, _kwargs, _result):
    f, host = args[0], args[1]
    if hasattr(host, "rows"):
        return None
    return {"terms": (host.m if hasattr(host, "loop_flags") else 2 * host.m) ** f.n}


# (module, attribute, span name or name(args), counts(args, kwargs, result) -> dict)
WRAPS = [
    ("exact", "fraction_to_decimal", "exact.decimal", None),
    ("graphs", "read_graph", "graphs.parse", lambda a, k, r: {"bytes": _size(a[0])}),
    ("graphs", "LabelledGraph.from_text", "graphs.parse", lambda a, k, r: {"bytes": len(a[1])}),
    ("graphs", "LabelledGraph.to_text", "graphs.serialize", lambda a, k, r: {"bytes": len(r)}),
    ("graphs", "canonicalize", "graphs.canon", None),
    ("graphs", "enumerate_unlabelled", "graphs.enum", lambda a, k, r: {"classes": len(r.graphs)}),
    ("graphs", "LabelledGraph.from_edges", "graphs.build", None),
    ("graphs", "graph_from_bool_matrix", "graphs.build", None),
    ("graphs", "graph_from_pair_bits", "graphs.build", None),
    ("densities", "t", "densities.count", _count_key("t")),
    ("densities", "t_inj", "densities.count", _count_key("t_inj")),
    ("densities", "t_ind", "densities.count", _count_key("t_ind")),
    ("densities", "tau_plus", "densities.embed", None),
    ("densities", "tau_vector", "densities.embed", None),
    ("densities", "mc_containment_hits", "densities.mc",
     lambda a, k, r: {"draws": _arg(a, k, 2, "count")}),
    ("graphon", "mc_density_product_sum", "densities.mc",
     lambda a, k, r: {"draws": _arg(a, k, 2, "count")}),
    ("graphon", "sample_w_random", "graphon.sample",
     lambda a, k, r: {"pairs": a[1] * (a[1] - 1) // 2}),
    ("graphon", "exact_density", "graphon.contract",
     lambda a, k, r: {"terms": a[1].m ** a[0].n}),
    ("graphon", "read_step_graphon", "graphon.parse", None),
    ("graphon", "StepGraphon.from_text", "graphon.parse", None),
    ("graphon", "cut_norm", "graphon.cutnorm", lambda a, k, r: {"subsets": 2 ** a[0].m}),
    ("graphon", "cut_distance_upper", "graphon.cut", None),
    ("exchangeable", "GraphSource.pair_bits_batch", "exchangeable.prefix_sample",
     lambda a, k, r: {"draws": _arg(a, k, 2, "count")}),
    ("exchangeable", "prefix_law_exact", "exchangeable.prefix_exact",
     lambda a, k, r: {"terms": a[0].m ** a[1] * 2 ** (a[1] * (a[1] - 1) // 2)}),
    ("exchangeable", "PrefixLaw.exact", "exchangeable.prefix",
     lambda a, k, r: {"support": len(r.support())}),
    ("exchangeable", "PrefixLaw.empirical", "exchangeable.prefix",
     lambda a, k, r: {"support": len(r.support())}),
    ("exchangeable", "isomorphism_class", "exchangeable.class",
     lambda a, k, r: {"relabellings": math.factorial(a[0].n), "key": hash(a[0])}),
    ("exchangeable", "exchangeability_test", "exchangeable.test",
     lambda a, k, r: {"classes": r.classes_tested}),
    ("exchangeable", "extremality_test", "exchangeable.test", None),
    ("exchangeable", "martingale_trace", "exchangeable.trace", None),
    ("bipartite", "BipartiteGraph.from_text", "bipartite.parse", None),
    ("bipartite", "BipartiteKernel.from_text", "bipartite.parse", None),
    ("bipartite", "bip_t", "bipartite.count", None),
    ("bipartite", "bip_t_inj", "bipartite.count", None),
    ("bipartite", "bip_t_ind", "bipartite.count", None),
    ("bipartite", "bip_exact_density", "bipartite.contract",
     lambda a, k, r: {"terms": a[1].m1 ** a[0].n1 * a[1].m2 ** a[0].n2}),
    ("bipartite", "bip_exact_ind_density", "bipartite.contract",
     lambda a, k, r: {"terms": a[1].m1 ** a[0].n1 * a[1].m2 ** a[0].n2}),
    ("bipartite", "sample_bip_w_random", "bipartite.sample", None),
    ("bipartite", "BipartiteGraph.to_text", "bipartite.serialize", None),
    ("directed", "DirectedGraph.from_text", "directed.parse", None),
    ("directed", "DirectedKernelQuintuple.from_text", "directed.parse", None),
    ("directed", "directed_t", _directed_layer, _directed_terms),
    ("directed", "directed_t_inj", _directed_layer, _directed_terms),
    ("directed", "directed_t_ind", _directed_layer, _directed_terms),
    ("directed", "sample_directed", "directed.sample", None),
    ("directed", "DirectedGraph.to_text", "directed.serialize", None),
]


def install(tracer: Tracer, package: str) -> list[str]:
    """Wrap every target in WRAPS and run_chunked; returns the targets not found."""
    missing = []
    for modname, attr, span, counts in WRAPS + [("rng", "run_chunked", "rng.run_chunked", None)]:
        try:
            module = importlib.import_module(f"{package}.{modname}")
        except ImportError:
            module = None
        owner_name, _, fname = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = inspect.getattr_static(owner, fname, None) if owner is not None else None
        if raw is None:
            missing.append(f"{modname}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, fname, classmethod(_wrapper(tracer, span, raw.__func__, counts)))
        elif owner_name:  # instance method
            setattr(owner, fname, _wrapper(tracer, span, raw, counts))
        else:  # module function: every module that imported it, aliases included
            modules = [m for name, m in list(sys.modules.items())
                       if name == package or name.startswith(package + ".")]
            wrapped = (_chunked_wrapper if fname == "run_chunked" else _wrapper)(tracer, span, raw, counts)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, name, wrapped)
    return missing


def _wrapper(tracer: Tracer, span, func, counts):
    def wrapped(*args, **kwargs):
        name = span(args) if callable(span) else span
        return tracer.call(name, func, args, kwargs, counts)

    wrapped.__wrapped__ = func
    return wrapped


def _chunked_wrapper(tracer: Tracer, span: str, raw, _counts):
    """run_chunked gets a span, and each chunk a child span opened in the
    worker thread with the run_chunked span as its parent; a chunk's wait
    is the time from run_chunked's start to its own."""
    sig = inspect.signature(raw)
    first = next(iter(sig.parameters))

    def wrapped(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        fn = bound.arguments[first]

        def run():
            sid, opened = tracer.stack()[-1], time.perf_counter()

            def chunk(*cargs, **ckw):
                waited = time.perf_counter() - opened
                return tracer.call("rng.chunk", fn, cargs, ckw,
                                   lambda a, k, r: {"wait": waited}, parent=sid)

            bound.arguments[first] = chunk
            return raw(*bound.args, **bound.kwargs)

        threads = bound.arguments.get("threads") or 1
        return tracer.call(span, run, (), {}, lambda a, k, r: {"threads": threads})

    return wrapped


def traced_main(argv: list[str]) -> int:
    """Child entry: layers.py --spans FILE --cmd ID -- graphonlab args."""
    import runpy

    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    tracer = Tracer(int(opts["--cmd"]))
    sys.path[0] = os.getcwd()  # as under `python -m`: the bench dir shadows nothing
    start = time.perf_counter()
    import graphonlab.cli  # noqa: F401  (the package imports every module)
    tracer.spans.append((tracer.cmd, 0, "cli.import", start, time.perf_counter(), None, None))
    for target in install(tracer, "graphonlab"):
        print(f"trace: no {target} to wrap", file=sys.stderr)
    sys.argv = ["graphonlab", *argv[sep + 1:]]
    code = 0
    try:
        tracer.call("cli.main", runpy.run_module, ("graphonlab",),
                    {"run_name": "__main__", "alter_sys": True})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.write(Path(opts["--spans"]))
    return code


# ------------------------------------------------------------------ launching


def traced_run(cmd: int, argv: list[str], cwd: Path, spans: Path):
    import proc

    child = [sys.executable, "-X", "importtime", str(Path(__file__).resolve()),
             "--spans", str(spans), "--cmd", str(cmd), "--", *argv]
    return proc.run(child, cwd, proc.program_env())


# ---------------------------------------------------------------- aggregation

# time metric -> span names whose outermost spans it sums
TIME_METRICS = {
    "exact.decimal_s": {"exact.decimal"},
    "graphs.parse_s": {"graphs.parse"},
    "graphs.serialize_s": {"graphs.serialize"},
    "graphs.canon_s": {"graphs.canon"},
    "graphs.enum_s": {"graphs.enum"},
    "graphs.build_s": {"graphs.build"},
    "densities.count_s": {"densities.count"},
    "densities.embed_s": {"densities.embed"},
    "densities.mc_s": {"densities.mc"},
    "rng.wall_s": {"rng.run_chunked"},
    "rng.chunk_busy_s": {"rng.chunk"},
    "graphon.sample_s": {"graphon.sample"},
    "graphon.contract_s": {"graphon.contract"},
    "graphon.parse_s": {"graphon.parse"},
    "graphon.cut_s": {"graphon.cut", "graphon.cutnorm"},
    "exchangeable.prefix_sample_s": {"exchangeable.prefix_sample"},
    "exchangeable.prefix_exact_s": {"exchangeable.prefix_exact"},
    "exchangeable.class_s": {"exchangeable.class"},
    "exchangeable.test_s": {"exchangeable.test"},
    "exchangeable.trace_s": {"exchangeable.trace"},
    **{f"{kind}.{layer}_s": {f"{kind}.{layer}"}
       for kind in ("bipartite", "directed")
       for layer in ("parse", "count", "contract", "sample", "serialize")},
}

# metric -> (numerator, denominator) over the summed counters
RATIOS = {
    "densities.count_unique_ratio": ("densities.count#unique", "densities.count#calls"),
    "densities.mc_draws_per_s": ("densities.mc#draws", "densities.mc_s"),
    "rng.parallel_efficiency": ("rng.chunk_busy_s", "rng.capacity_s"),
    "exchangeable.class_unique_ratio": ("exchangeable.class#unique", "exchangeable.class#calls"),
}

# metric -> summed counter
COUNTS = {
    "exact.decimal_calls": "exact.decimal#calls",
    "graphs.parse_calls": "graphs.parse#calls",
    "graphs.parse_bytes": "graphs.parse#bytes",
    "graphs.serialize_bytes": "graphs.serialize#bytes",
    "graphs.canon_calls": "graphs.canon#calls",
    "graphs.enum_classes": "graphs.enum#classes",
    "densities.count_calls": "densities.count#calls",
    "densities.mc_chunks": "densities.mc#calls",
    "densities.mc_draws": "densities.mc#draws",
    "rng.chunks": "rng.chunk#calls",
    "graphon.sample_calls": "graphon.sample#calls",
    "graphon.sample_pairs": "graphon.sample#pairs",
    "graphon.contract_calls": "graphon.contract#calls",
    "graphon.contract_terms": "graphon.contract#terms",
    "graphon.cutnorm_calls": "graphon.cutnorm#calls",
    "graphon.cutnorm_subsets": "graphon.cutnorm#subsets",
    "exchangeable.prefix_draws": "exchangeable.prefix_sample#draws",
    "exchangeable.prefix_exact_calls": "exchangeable.prefix_exact#calls",
    "exchangeable.prefix_exact_terms": "exchangeable.prefix_exact#terms",
    "exchangeable.support_size": "exchangeable.prefix#support",
    "exchangeable.class_calls": "exchangeable.class#calls",
    "exchangeable.class_relabellings": "exchangeable.class#relabellings",
    "exchangeable.classes_tested": "exchangeable.test#classes",
    "bipartite.count_calls": "bipartite.count#calls",
    "bipartite.contract_terms": "bipartite.contract#terms",
    "directed.count_calls": "directed.count#calls",
    "directed.contract_terms": "directed.contract#terms",
}


def scipy_import_s(stderr: str) -> float:
    """Seconds spent importing scipy, from `-X importtime` lines: the
    cumulative time of each scipy module not imported by another one.
    The lines come children first; indentation gives the nesting."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    total = 0
    for i, (depth, name, cumulative) in enumerate(entries):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        parent = next((e[1] for e in entries[i + 1:] if e[0] < depth), "")
        if parent != "scipy" and not parent.startswith("scipy."):
            total += cumulative
    return total / 1e6


def _command_totals(spans: list[dict], totals: dict[str, float]) -> None:
    """Add one command's spans to the running counters."""
    by_id = {s["id"]: s for s in spans}
    above: dict[int, frozenset] = {}
    child_s: dict[int, float] = {}
    children: dict[int, int] = {}
    keys: dict[str, set] = {}
    metrics_of: dict[str, list[str]] = {}
    for metric, names in TIME_METRICS.items():
        for name in names:
            metrics_of.setdefault(name, []).append(metric)
    for s in sorted(spans, key=lambda s: s["id"]):
        name, dur, parent = s["name"], s["end"] - s["start"], s["parent"]
        above[s["id"]] = frozenset() if parent is None else above[parent] | {by_id[parent]["name"]}
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + dur
            children[parent] = children.get(parent, 0) + 1
        totals[f"{name}#calls"] = totals.get(f"{name}#calls", 0) + 1
        for key, value in (s["n"] or {}).items():
            if key == "key":
                keys.setdefault(name, set()).add(value)
            else:
                totals[f"{name}#{key}"] = totals.get(f"{name}#{key}", 0) + value
        for metric in metrics_of.get(name, ()):
            if not above[s["id"]] & TIME_METRICS[metric]:
                totals[metric] = totals.get(metric, 0) + dur
    for s in spans:
        dur = s["end"] - s["start"]
        if s["name"] == "cli.import":
            totals["cli.import_s"] = totals.get("cli.import_s", 0) + dur
        elif s["name"] == "cli.main":
            totals["cli.self_s"] = totals.get("cli.self_s", 0) + dur - child_s.get(s["id"], 0.0)
        elif s["name"] == "rng.run_chunked":
            threads = s["n"]["threads"] if children.get(s["id"], 0) > 1 else 1
            totals["rng.capacity_s"] = totals.get("rng.capacity_s", 0) + threads * dur
        elif s["name"] == "rng.chunk":
            totals["rng.queue_wait_s"] = totals.get("rng.queue_wait_s", 0) + s["n"]["wait"]
    for name, seen in keys.items():
        totals[f"{name}#unique"] = totals.get(f"{name}#unique", 0) + len(seen)


def aggregate(path: Path, runs) -> dict[str, float]:
    """Per-layer metrics summed over the traced commands of one pass;
    runs[i] is the finished child of command i (its stderr holds the
    import times)."""
    by_cmd: dict[int, list[dict]] = {}
    if path.exists():
        for line in path.read_text().splitlines():
            span = json.loads(line)
            by_cmd.setdefault(span["cmd"], []).append(span)
    totals: dict[str, float] = {"cli.scipy_import_s": sum(scipy_import_s(r.stderr) for r in runs)}
    for spans in by_cmd.values():
        _command_totals(spans, totals)
    out = {m: totals.get(m, 0.0) for m in TIME_METRICS}
    out.update({m: totals.get(c, 0) for m, c in COUNTS.items()})
    out.update({m: totals.get(a, 0) / totals[b] if totals.get(b) else 0.0 for m, (a, b) in RATIOS.items()})
    for m in ("cli.import_s", "cli.scipy_import_s", "cli.self_s", "rng.queue_wait_s"):
        out[m] = totals.get(m, 0.0)
    return out


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
