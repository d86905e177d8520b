"""Start-up guard: the package and every command run in an interpreter
that cannot import scipy, and none loads scipy where it could.

One child process puts a `sys.meta_path` finder in front of the import
system that refuses `scipy` and all its submodules, then imports
`graphonlab` and runs each command through `cli.main` on tiny inputs.
Another runs the same commands where scipy is importable and lists the
scipy modules left in `sys.modules`. This module imports neither scipy
nor hypothesis at module level, so it also runs where only numpy and
pytest are installed.

Each command imports only the modules it runs: fresh children run one
command (or one kind's commands) each and list what `sys.modules` then
holds.

A command run through `cli.entry` starts no BLAS worker pool unless the
user set a BLAS thread count: children count the OS threads left at exit.
"""
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from graphonlab.cli import BLAS_THREADS
from graphonlab.graphon import StepGraphon, boys_girls, write_step_graphon
from graphonlab.graphs import LabelledGraph, write_graph

from cli_child import child_env, exit_fault

CHILD = r'''
import contextlib
import io
import json
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None


refuse = sys.argv[2] == "refuse"
if refuse:
    sys.meta_path.insert(0, RefuseScipy())
import graphonlab  # noqa: E402
from graphonlab.cli import main  # noqa: E402

results = {}
for name, argv in json.loads(sys.argv[1]).items():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    results[name] = [code, err.getvalue()]
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
control = ""
if refuse:
    try:
        import scipy  # noqa: F401
    except ImportError as exc:
        control = str(exc)
print(json.dumps({"results": results, "scipy_modules": loaded, "control": control,
                  "modules": sorted(sys.modules)}))
'''

# name -> argv; each report goes to <name>.out
COMMANDS = {
    "help": ["--help"],
    "sample": ["sample", "-W", "bg.txt", "-n", "12", "--seed", "1"],
    "density-exact": ["density", "-F", "edge.txt", "-F", "p3.txt", "-G", "k3.txt"],
    "density-mc": ["density", "-F", "edge.txt", "-G", "k3.txt", "--mc", "500", "--seed", "2"],
    "density-kernel-mc": ["density", "-F", "p3.txt", "-W", "bg.txt", "--mc", "500"],
    "converge": ["converge", "-G", "k3.txt", "-G", "p3.txt", "--ref-graphon", "bg.txt"],
    "cutdist": ["cutdist", "-W", "bg.txt", "-W2", "gb.txt"],
    "test-extreme": ["test-extreme", "-src", "src.txt", "--pairs", "pairs.txt",
                     "--samples", "2000", "--seed", "3"],
    "trace-martingale": ["trace-martingale", "-src", "src.txt", "-F", "edge.txt",
                         "--grid", "2,4,8", "--seed", "4"],
    "test-exchangeable-exact": ["test-exchangeable", "-src", "src.txt", "-k", "3"],
    "test-exchangeable-empirical": ["test-exchangeable", "-src", "src.txt", "-k", "3",
                                    "--samples", "500"],
    "density-bipartite": ["density", "--kind", "bipartite", "-F", "k22.txt", "-G", "bip.txt"],
    "density-bipartite-kernel": ["density", "--kind", "bipartite", "-F", "k22.txt", "-W", "bipk.txt"],
    "density-directed": ["density", "--kind", "directed", "-F", "arc.txt", "-G", "dir.txt"],
    "density-directed-kernel": ["density", "--kind", "directed", "-F", "arc.txt", "-W", "tourn.txt"],
    "sample-bipartite": ["sample", "--kind", "bipartite", "-W", "bipk.txt", "-n", "5", "--n2", "4"],
    "sample-directed": ["sample", "--kind", "directed", "-W", "tourn.txt", "-n", "6", "--seed", "5"],
}
# the bipartite and directed commands: their kinds' kernels, counts and samplers need no graphon
VARIANTS = [name for name, argv in COMMANDS.items() if "--kind" in argv]


def argv_of(name: str) -> list[str]:
    argv = COMMANDS[name]
    return argv if name == "help" else [*argv, "-o", f"{name}.out"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    write_graph(LabelledGraph.complete(2), d / "edge.txt")
    write_graph(LabelledGraph.complete(3), d / "k3.txt")
    write_graph(LabelledGraph.path(3), d / "p3.txt")
    write_step_graphon(boys_girls(0.5, 0.2, 0.4, 0.6), d / "bg.txt")
    write_step_graphon(boys_girls(0.5, 0.6, 0.4, 0.2), d / "gb.txt")
    write_step_graphon(StepGraphon.constant(Fraction(1, 2)), d / "half.txt")
    (d / "src.txt").write_text("wrandom half.txt\n")
    (d / "pairs.txt").write_text("1-2 | 3-4\n")
    (d / "k22.txt").write_text("2 2 4\n1 1\n1 2\n2 1\n2 2\n")
    (d / "bip.txt").write_text("3 4 5\n1 1\n1 2\n2 3\n3 4\n3 1\n")
    (d / "bipk.txt").write_text("2 1\n1/3 2/3\n1\n1/3\n1/2\n")
    (d / "arc.txt").write_text("2 1\n1 2\n")
    (d / "dir.txt").write_text("4 6\n1 2\n2 3\n3 1\n4 4\n1 4\n2 2\n")
    (d / "tourn.txt").write_text("1\n1\nW00\n0\nW01\n1/2\nW10\n1/2\nW11\n0\nw\n0\n")
    return d


def run_child(workdir, mode: str, names=tuple(COMMANDS)) -> dict:
    """The named commands (default: every command) in one child; mode
    "refuse" installs the finder, "allow" does not."""
    runs = {name: argv_of(name) for name in names}
    res = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs), mode], cwd=workdir,
                         env=child_env(), capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, f"child failed (import graphonlab?):\n{res.stderr}"
    return json.loads(res.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def without_scipy(workdir):
    """Exit code and stderr of each command, run in one child that refuses scipy."""
    return run_child(workdir, "refuse")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_runs_without_scipy(workdir, without_scipy, name):
    code, err = without_scipy["results"][name]
    args = argv_of(name)
    fault = exit_fault(args, subprocess.CompletedProcess(args, code, "", err), workdir / f"{name}.out")
    assert not fault, fault


def test_finder_refuses_scipy(without_scipy):
    # the control: the same child could not have imported scipy had a command tried
    assert without_scipy["control"] == "import of scipy refused", without_scipy["control"]
    assert without_scipy["scipy_modules"] == []


def test_no_command_loads_scipy(workdir):
    pytest.importorskip("scipy")
    child = run_child(workdir, "allow")
    assert all(code in (0, 1) for code, _ in child["results"].values()), child["results"]
    assert child["scipy_modules"] == [], child["scipy_modules"]


def modules_after(workdir, name: str) -> set[str]:
    """Modules loaded in a fresh child after it ran one command."""
    child = run_child(workdir, "allow", [name])
    code, err = child["results"][name]
    assert code == 0, err
    return set(child["modules"])


def test_help_loads_no_numpy(workdir):
    loaded = modules_after(workdir, "help")
    assert sorted(m for m in loaded if m.split(".")[0] == "numpy") == []


def test_simple_host_density_loads_only_what_it_runs(workdir):
    loaded = modules_after(workdir, "density-exact")
    unused = ["graphonlab.bipartite", "graphonlab.directed", "graphonlab.exchangeable",
              "graphonlab.graphon", "concurrent.futures"]
    assert [m for m in unused if m in loaded] == []
    assert {"graphonlab.densities", "graphonlab.graphs"} <= loaded


def test_variant_commands_load_no_graphon(workdir):
    """The bipartite and directed kinds draw through rng and check their
    kernels through exact: none of their commands loads graphonlab.graphon."""
    child = run_child(workdir, "allow", VARIANTS)
    assert all(code == 0 for code, _ in child["results"].values()), child["results"]
    assert "graphonlab.graphon" not in child["modules"]


def test_cutdist_loads_no_graphs(workdir):
    # step kernels and their cut norms need no graph
    assert "graphonlab.graphs" not in modules_after(workdir, "cutdist")


def test_help_and_single_chunk_commands_load_no_traceback(workdir, without_scipy):
    """Only the internal-fault branch of cli.main imports traceback; a chunk
    pool (concurrent.futures, through logging) would too, so every command
    here runs one chunk. numpy releases that import traceback with numpy
    itself pass the commands that load numpy trivially."""
    control = subprocess.run([sys.executable, "-c", "import sys, numpy; print('traceback' in sys.modules)"],
                             env=child_env(), capture_output=True, text=True, timeout=60)
    assert control.returncode == 0, control.stderr
    assert "traceback" not in modules_after(workdir, "help")
    assert "traceback" not in without_scipy["modules"] or control.stdout.split() == ["True"]


def test_reading_edge_lists_loads_no_numpy_ma(workdir):
    # numpy releases that import numpy.ma with numpy itself (1.24 does) pass trivially
    control = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                             env=child_env(), capture_output=True, text=True, timeout=60)
    assert control.returncode == 0, control.stderr
    loaded = modules_after(workdir, "density-exact")
    assert "numpy.ma" not in loaded or control.stdout.split() == ["True"]


# Runs `graphonlab ARGS` through cli.entry, then reports the OS threads left at exit.
THREADS_CHILD = r'''
import atexit
import os
import sys
import time

from graphonlab.cli import entry


def report():
    for _ in range(50):  # a joined worker can take a moment to leave the task list
        count = len(os.listdir("/proc/self/task"))
        if count == 1:
            break
        time.sleep(0.01)
    print(f"threads at exit: {count}", file=sys.stderr)


atexit.register(report)
entry()
'''


def threads_at_exit(workdir, blas_env: dict[str, str]) -> int:
    """OS threads a `density --mc` child run through cli.entry holds at exit,
    started with these BLAS thread variables and no other."""
    env = {k: v for k, v in child_env().items() if k not in BLAS_THREADS} | blas_env
    argv = ["density", "-F", "edge.txt", "-G", "k3.txt", "--mc", "70000", "--seed", "2", "--threads", "2"]
    res = subprocess.run([sys.executable, "-c", THREADS_CHILD, *argv], cwd=workdir, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return int(res.stderr.split("threads at exit: ")[-1])


needs_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads")


@needs_tasks
def test_a_cli_run_starts_no_blas_pool(workdir):
    """--threads is the CLI's one pool: its three chunks ran on two workers,
    which are joined, and numpy's BLAS started no worker of its own."""
    assert threads_at_exit(workdir, {}) == 1


@needs_tasks
def test_a_blas_thread_count_the_user_set_is_kept(workdir):
    # the control of the test above: this numpy does start a BLAS pool, as large as asked
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a BLAS pool of two needs two CPUs")
    assert threads_at_exit(workdir, {"OPENBLAS_NUM_THREADS": "2"}) == 2
