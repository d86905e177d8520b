"""The package's public surface: the names `graphonlab` exports, where each
lives, and that a star import binds them all.

`graphonlab/__init__.py` resolves its names lazily, so the checks run in a
fresh child, where no submodule has been imported yet.
"""
import ast
import json
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


def test_no_module_needs_numpy_2():
    """pyproject promises numpy >= 1.24, which the CI numpy-floor job
    installs; np.bitwise_count came only in numpy 2.0."""
    src = Path(graphonlab.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "bitwise_count" in p.read_text()] == []


def test_rows_become_bytes_in_one_function():
    """graphs.row_words is the one packer from bitmask rows to numpy, so
    the row format is written once: `.to_bytes(` occurs in no other
    function of the package."""
    owners = set()
    for path in sorted(Path(graphonlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        funcs = [f for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef)]
        for at, line in enumerate(text.splitlines(), 1):
            if ".to_bytes(" in line:  # the innermost function holding the line
                inner = min((f for f in funcs if f.lineno <= at <= f.end_lineno), key=lambda f: f.end_lineno - f.lineno,
                            default=None)
                owners.add(f"{path.stem}.{inner.name if inner else '<module>'}")
    assert owners == {"graphs.row_words"}


# A fresh child runs one command through cli.main and says whether
# numpy.random is loaded.
DRAWLESS = r'''
import json
import sys

from graphonlab.cli import main

code = main(sys.argv[1:])
print(json.dumps([code, "numpy.random" in sys.modules]))
'''


@pytest.mark.parametrize("argv", [["test-exchangeable", "-src", "src.txt", "-k", "4"],
                                  ["density", "-F", "edge.txt", "-G", "k3.txt"]], ids=["exact-law", "host-density"])
def test_commands_that_never_draw_load_no_numpy_random(tmp_path, argv):
    """Exact test-exchangeable and a host density draw nothing, so they
    leave numpy.random, and the secrets and hashlib it loads, unloaded.
    numpy releases that import numpy.random with numpy itself (1.24 does)
    pass trivially."""
    (tmp_path / "half.txt").write_text("1\n1\n1/2\n")
    (tmp_path / "src.txt").write_text("wrandom half.txt\n")
    (tmp_path / "k3.txt").write_text("3 3\n1 2\n1 3\n2 3\n")
    (tmp_path / "edge.txt").write_text("2 1\n1 2\n")
    control = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
                             env=child_env(), capture_output=True, text=True, timeout=60)
    assert control.returncode == 0, control.stderr
    res = subprocess.run([sys.executable, "-c", DRAWLESS, *argv, "-o", "out.csv"], cwd=tmp_path, env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert code == 0 and (tmp_path / "out.csv").read_text().strip()
    assert not loaded or control.stdout.split() == ["True"]
