"""The package's public surface: the names `graphonlab` exports, where each
lives, and that a star import binds them all.

`graphonlab/__init__.py` resolves its names lazily, so the checks run in a
fresh child, where no submodule has been imported yet.
"""
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graphonlab

from cli_child import child_env

# graphonlab.__all__ as the package has exported it since its import lists
# were written out eagerly: every public name and the nine submodules
# (all but cli and __main__).
PUBLIC = [
    "BipartiteGraph", "BipartiteKernel", "BlockMap", "BoundCheck", "CapacityError",
    "CorrespondenceResult", "DensityEstimate", "DensityVector", "DirectedGraph",
    "DirectedKernelQuadruplePlusP", "DirectedKernelQuintuple", "ExchangeabilityVerdict",
    "ExtremalityVerdict", "GeneralGraphon", "GraphEnumeration", "GraphSource", "GraphonLabError",
    "InputError", "InvariantError", "LabelledGraph", "PatternPair", "PrefixLaw", "SignedStepKernel",
    "StepGraphon", "TauPlus", "UnlabelledGraph", "bip_exact_density", "bip_exact_ind_density",
    "bip_graph_as_kernel", "bip_sampling_bound_check", "bip_t", "bip_t_ind", "bip_t_inj",
    "bipartite", "boys_girls", "canonicalize", "correspondence_check", "cut_distance_upper",
    "cut_norm", "densities", "directed", "directed_t", "directed_t_ind", "directed_t_inj",
    "disjoint_union", "disjoint_union_density", "enumerate_unlabelled", "errors", "exact",
    "exact_density", "exact_ind_density", "exchangeability_test", "exchangeable",
    "extremality_test", "graph_as_graphon", "graphon", "graphs", "hoeffding_halfwidth",
    "ind_from_inj", "induced_pattern", "inj_from_ind", "is_isomorphic", "kernel_difference",
    "loop_sequence_law", "martingale_trace", "mc_density", "mc_t", "metric_d",
    "prefix_law_empirical", "prefix_law_exact", "pushforward", "quadruple_from_quintuple",
    "random_relabel", "restrict_prefix", "rng", "sample_bip_w_random", "sample_directed",
    "sample_w_random", "sample_with_replacement", "sample_without_replacement",
    "sampling_bound_check", "stream", "supergraphs", "t", "t_ind", "t_inj", "tau_plus",
    "tau_vector", "tournament_kernel", "validate_quintuple",
]

# A fresh child: what `import graphonlab` loads, then the names a star
# import binds, and each name that is not its home module's object (a
# submodule is its own home; any other name's home is the module that
# defines it).
CHILD = r'''
import importlib
import json
import sys

import pytest

import graphonlab

eager = sorted(m for m in sys.modules if m.startswith("graphonlab."))
star = {}
exec("from graphonlab import *", star)
bound = sorted(n for n in star if not n.startswith("__"))
astray = []
for name in bound:
    value = star[name]
    home = f"graphonlab.{name}" if f"graphonlab.{name}" in sys.modules else value.__module__
    module = importlib.import_module(home)
    if value is not (module if home == f"graphonlab.{name}" else getattr(module, name)):
        astray.append(name)
print(json.dumps({"eager": eager, "bound": bound, "astray": astray}))
'''


def child() -> dict:
    res = subprocess.run([sys.executable, "-c", CHILD], env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_all_is_the_pinned_list():
    assert graphonlab.__all__ == PUBLIC


def test_dir_lists_every_public_name_and_no_private_one():
    listed = dir(graphonlab)
    assert listed == sorted(listed) and set(PUBLIC) <= set(listed)
    # beyond those, only submodules imported since (cli, here) and dunders
    extra = [n for n in listed if n not in PUBLIC and f"graphonlab.{n}" not in sys.modules]
    assert all(n.startswith("__") for n in extra) and "__version__" in extra, extra


def test_star_import_binds_every_name_from_its_home():
    got = child()
    assert got["eager"] == []  # `import graphonlab` imports no submodule
    assert got["bound"] == PUBLIC
    assert got["astray"] == []


def test_each_name_is_its_home_module_object():
    for name in PUBLIC:
        value = getattr(graphonlab, name)
        home = sys.modules.get(f"graphonlab.{name}")
        assert value is (home if home is not None else getattr(sys.modules[value.__module__], name)), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graphonlab.no_such_name  # noqa: B018


# names numpy 2.0 added that bit and word code might reach for
NUMPY_2_NAMES = re.compile(
    r"bitwise_count|np\.bool\b|np\.bitwise_invert|np\.bitwise_left_shift|np\.astype\(|np\.concat\(")


def test_no_module_needs_numpy_2():
    """pyproject promises numpy >= 1.24, which the CI numpy-floor job
    installs; np.bitwise_count, np.bool, np.bitwise_invert,
    np.bitwise_left_shift, np.astype and np.concat came only in numpy 2.0."""
    src = Path(graphonlab.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if NUMPY_2_NAMES.search(p.read_text())] == []


def _owners(needle: str) -> set[str]:
    """module.function of the innermost function around each line of the
    package that holds `needle` (`<module>` outside any function)."""
    owners = set()
    for path in sorted(Path(graphonlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        funcs = [f for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef)]
        for at, line in enumerate(text.splitlines(), 1):
            if needle in line:
                inner = min((f for f in funcs if f.lineno <= at <= f.end_lineno), key=lambda f: f.end_lineno - f.lineno,
                            default=None)
                owners.add(f"{path.stem}.{inner.name if inner else '<module>'}")
    return owners


def test_rows_are_a_view_behind_the_words():
    """A host is its WORD table, and bitmask ints are a view behind it:
    `.to_bytes(` occurs only in graphs.word_table (the rows a direct
    constructor is given) and `int.from_bytes(` only in graphs.word_ints
    (the lazy `rows`). No function of densities, nor the bipartite and
    directed _density and _bip_count, reads the `.rows` of anything but
    the pattern f."""
    assert _owners(".to_bytes(") == {"graphs.word_table"}
    assert _owners("int.from_bytes(") == {"graphs.word_ints"}
    src = Path(graphonlab.__file__).parent
    funcs = {f"{path.stem}.{f.name}": f for path in sorted(src.glob("*.py"))
             for f in ast.walk(ast.parse(path.read_text())) if isinstance(f, ast.FunctionDef)}
    counters = [f for name, f in funcs.items() if name.startswith("densities.") or name in
                {"bipartite._density", "bipartite._bip_count", "directed._density"}]
    read = {ast.unparse(node.value) for f in counters for node in ast.walk(f)
            if isinstance(node, ast.Attribute) and node.attr == "rows"}
    assert len(counters) > 20 and read == {"f"}


def test_one_writer_packs_every_sampled_graph():
    """graphs.strip_words is the one place where a sampled graph's bits
    become words: the three one-graph samplers write through it, none of
    them builds colex index arrays by `np.tril_indices(`, and no sampler
    (a function named sample_*) calls `pack_bits(` or
    `graph_from_bool_matrix(`, which go through an n1 x n2 bool matrix."""
    one_graph = {"graphon.sample_w_random", "bipartite.sample_bip_w_random", "directed.sample_directed"}
    samplers = _owners("def sample_")
    assert one_graph < samplers and "directed.sample_directed_pair_codes" in samplers
    assert _owners("strip_words(") == one_graph | {"graphs.strip_words"}
    assert not _owners("np.tril_indices(") & one_graph
    assert not (_owners("pack_bits(") | _owners("graph_from_bool_matrix(")) & samplers


def test_one_path_skips_draws():
    """rng.skip is the one place that jumps a generator ahead, so the
    guard on a buffered 32-bit value, which advance would drop, is kept
    once: `.advance(` occurs in no other function of the package."""
    assert _owners(".advance(") == {"rng.skip"}


# A fresh child runs one command through cli.main and lists which of the
# watched modules (its first argument, comma-separated) are loaded.
LOADED = r"""
import json
import sys

from graphonlab.cli import main

watched = sys.argv[1].split(",")
code = main(sys.argv[2:])
print(json.dumps([code, [m for m in watched if m in sys.modules]]))
"""


def _run_watching(cwd, argv, watched):
    """The exit code of one command in a fresh child, and the watched
    modules it loaded; the report goes to out.csv."""
    (cwd / "two.txt").write_text("2\n1/3 2/3\n1/2 1/5\n1/5 3/4\n")
    (cwd / "owt.txt").write_text("2\n1/3 2/3\n3/4 1/5\n1/5 1/2\n")
    (cwd / "src.txt").write_text("wrandom two.txt\n")
    (cwd / "pairs.txt").write_text("1-2 | 3-4\n")
    (cwd / "k3.txt").write_text("3 3\n1 2\n1 3\n2 3\n")
    (cwd / "edge.txt").write_text("2 1\n1 2\n")
    (cwd / "bipk.txt").write_text("2 1\n1/3 2/3\n1\n1/3\n1/2\n")
    (cwd / "tourn.txt").write_text("1\n1\nW00\n0\nW01\n1/2\nW10\n1/2\nW11\n0\nw\n0\n")
    res = subprocess.run([sys.executable, "-c", LOADED, ",".join(watched), *argv, "-o", "out.csv"], cwd=cwd,
                         env=child_env(), capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert (cwd / "out.csv").read_text().strip()
    return code, loaded


@pytest.mark.parametrize("argv", [["test-exchangeable", "-src", "src.txt", "-k", "4"],
                                  ["density", "-F", "edge.txt", "-G", "k3.txt"]], ids=["exact-law", "host-density"])
def test_commands_that_never_draw_load_no_numpy_random(tmp_path, argv):
    """Exact test-exchangeable and a host density draw nothing, so they
    leave numpy.random, and the secrets and hashlib it loads, unloaded.
    numpy releases that import numpy.random with numpy itself (1.24 does)
    pass trivially."""
    control = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
                             env=child_env(), capture_output=True, text=True, timeout=60)
    assert control.returncode == 0, control.stderr
    code, loaded = _run_watching(tmp_path, argv, ["numpy.random"])
    assert code == 0
    assert not loaded or control.stdout.split() == ["True"]


@pytest.mark.parametrize("argv", [
    ["sample", "-W", "two.txt", "-n", "40"],
    ["sample", "--kind", "bipartite", "-W", "bipk.txt", "-n", "9", "--n2", "7"],
    ["sample", "--kind", "directed", "-W", "tourn.txt", "-n", "12"],
    ["test-exchangeable", "-src", "src.txt", "-k", "4", "--samples", "3000"],
    ["test-extreme", "-src", "src.txt", "--pairs", "pairs.txt", "--samples", "3000"],
    ["cutdist", "-W", "two.txt", "-W2", "owt.txt"],
], ids=["sample", "sample-bipartite", "sample-directed", "empirical-law", "extreme", "cutdist"])
def test_sampler_commands_load_no_contraction_engine(tmp_path, argv):
    """Commands that only draw, or only score cut norms, never count or
    contract, so graphonlab.densities, the contraction engine, stays
    unloaded; each child would otherwise compile it for nothing."""
    assert _run_watching(tmp_path, argv, ["graphonlab.densities", "graphonlab.graphon"]) == (0, ["graphonlab.graphon"])
