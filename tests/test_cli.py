from fractions import Fraction

import pytest

from graphonlab.bipartite import BipartiteGraph, BipartiteKernel
from graphonlab import cli, exchangeable, graphs
from graphonlab.cli import main
from graphonlab.directed import DirectedGraph, DirectedKernelQuintuple, tournament_kernel
from graphonlab.errors import InputError
from graphonlab.exact import fraction_to_decimal
from graphonlab.exchangeable import GraphSource
from graphonlab.graphon import StepGraphon, boys_girls, write_step_graphon
from graphonlab.graphs import HOST_CAP, LabelledGraph, write_graph

from cli_child import exit_fault, run_cli
from oracles import brute_kernel_sum


@pytest.fixture
def workdir(tmp_path):
    write_graph(LabelledGraph.complete(2), tmp_path / "edge.txt")
    write_graph(LabelledGraph.complete(3), tmp_path / "k3.txt")
    write_graph(LabelledGraph.path(3), tmp_path / "p3.txt")
    write_graph(LabelledGraph.empty(9), tmp_path / "big.txt")
    write_step_graphon(boys_girls(0.5, 0.2, 0.4, 0.6), tmp_path / "bg.txt")
    write_step_graphon(StepGraphon.constant(Fraction(1, 5)), tmp_path / "w02.txt")
    write_step_graphon(StepGraphon.constant(Fraction(4, 5)), tmp_path / "w08.txt")
    write_step_graphon(StepGraphon.constant(Fraction(1, 2)), tmp_path / "w05.txt")
    (tmp_path / "src_mix.txt").write_text("mixture\n0.5 w02.txt\n0.5 w08.txt\n")
    (tmp_path / "src_det.txt").write_text("wrandom w05.txt\n")
    (tmp_path / "pairs.txt").write_text("1-2 | 3-4\n")
    (tmp_path / "bip.txt").write_text(BipartiteGraph.from_edges(2, 2, [(1, 1), (2, 2)]).to_text())
    (tmp_path / "bipk.txt").write_text(BipartiteKernel.constant(Fraction(1, 2)).to_text())
    (tmp_path / "crossedge.txt").write_text(BipartiteGraph.from_edges(1, 1, [(1, 1)]).to_text())
    (tmp_path / "tourn.txt").write_text(tournament_kernel().to_text())
    (tmp_path / "diredge.txt").write_text(DirectedGraph.from_edges(2, [(1, 2)]).to_text())
    return tmp_path


def run_main(args, cwd, capsys):
    import os

    old = os.getcwd()
    os.chdir(cwd)
    try:
        code = main([str(a) for a in args])
    finally:
        os.chdir(old)
    return code, capsys.readouterr().out


class TestDensityCommand:
    def test_exact_row(self, workdir, capsys):
        code, out = run_main(["density", "-F", "edge.txt", "-G", "k3.txt"], workdir, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("pattern_id,host_id,t,t_inj,t_ind")
        assert lines[1] == (
            "edge,k3,0.666666666667,1.000000000000,1.000000000000,0.666666666667,bound_ok"
        )

    def test_kernel_host(self, workdir, capsys):
        code, out = run_main(["density", "-F", "edge.txt", "-W", "bg.txt"], workdir, capsys)
        assert code == 0
        assert "0.450000000000" in out

    def test_capacity_exit(self, workdir, capsys):
        code, _ = run_main(["density", "-F", "big.txt", "-G", "k3.txt"], workdir, capsys)
        assert code == 3

    def test_malformed_file_exit(self, workdir, capsys):
        (workdir / "bad.txt").write_text("2 1\nnot numbers\n")
        code, _ = run_main(["density", "-F", "bad.txt", "-G", "k3.txt"], workdir, capsys)
        assert code == 2

    def test_missing_file_exit(self, workdir, capsys):
        code, _ = run_main(["density", "-F", "nope.txt", "-G", "k3.txt"], workdir, capsys)
        assert code == 2

    def test_needs_host_or_kernel(self, workdir, capsys):
        code, _ = run_main(["density", "-F", "edge.txt"], workdir, capsys)
        assert code == 2

    def test_bipartite_kind(self, workdir, capsys):
        code, out = run_main(
            ["density", "--kind", "bipartite", "-F", "crossedge.txt", "-G", "bip.txt"],
            workdir, capsys,
        )
        assert code == 0
        assert "crossedge,bip,0.500000000000" in out

    def test_directed_kind_kernel(self, workdir, capsys):
        code, out = run_main(
            ["density", "--kind", "directed", "-F", "diredge.txt", "-W", "tourn.txt"],
            workdir, capsys,
        )
        assert code == 0
        assert "diredge,tourn,0.500000000000" in out

    @pytest.mark.parametrize("extra", [[], ["--mc", "1000"]])
    def test_kernel_induced_cell_needs_no_prefix_law(self, workdir, capsys, extra):
        # 2^7 assignment terms; the whole prefix law of P7 would need 2^7 * 2^21
        write_graph(LabelledGraph.path(7), workdir / "p7.txt")
        code, out = run_main(["density", "-F", "p7.txt", "-W", "bg.txt", *extra], workdir, capsys)
        assert code == 0
        w = boys_girls(0.5, 0.2, 0.4, 0.6)
        induced = brute_kernel_sum(LabelledGraph.path(7), w.mu, w.w, induced=True)
        assert out.splitlines()[1].split(",")[4] == fraction_to_decimal(induced)

    def test_mc_rejects_other_kinds(self, workdir, capsys):
        code, _ = run_main(
            ["density", "--kind", "directed", "-F", "diredge.txt", "-W", "tourn.txt", "--mc", "10"],
            workdir, capsys,
        )
        assert code == 2


class TestExitCodes:
    TOURNAMENT = tournament_kernel().to_text()

    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("bad_bip.txt", "2 x 1\n1 1\n",
             ["density", "--kind", "bipartite", "-F", "bad_bip.txt", "-G", "bip.txt"]),
            ("bad_bipk.txt", "1 one\n1\n1\n0.5\n",
             ["density", "--kind", "bipartite", "-F", "crossedge.txt", "-W", "bad_bipk.txt"]),
            ("bad_dir.txt", "2 1\n1 x\n",
             ["density", "--kind", "directed", "-F", "bad_dir.txt", "-G", "diredge.txt"]),
            ("bad_m.txt", "one" + TOURNAMENT[1:],
             ["density", "--kind", "directed", "-F", "diredge.txt", "-W", "bad_m.txt"]),
            ("bad_flags.txt", TOURNAMENT[:-2] + "x\n",
             ["density", "--kind", "directed", "-F", "diredge.txt", "-W", "bad_flags.txt"]),
            ("bad_pairs.txt", "1-x | 3-4\n",
             ["test-extreme", "-src", "src_det.txt", "--pairs", "bad_pairs.txt", "--samples", "10"]),
            ("bad_wrandom.txt", "wrandom w05.txt extra\n",
             ["test-exchangeable", "-src", "bad_wrandom.txt", "-k", "2"]),
            ("bad_mixture.txt", "mixture extra tokens\n1 w05.txt\n",
             ["test-exchangeable", "-src", "bad_mixture.txt", "-k", "2"]),
            ("short_mixture.txt", "mixture\n0.45 w02.txt\n0.45 w08.txt\n",  # weights sum to 9/10
             ["test-exchangeable", "-src", "short_mixture.txt", "-k", "2"]),
        ],
    )
    def test_malformed_input_exits_2(self, workdir, capsys, name, text, argv):
        (workdir / name).write_text(text)
        code, _ = run_main(argv, workdir, capsys)
        assert code == 2

    @pytest.mark.parametrize("kind, text", [  # per kernel format: a row missing, a row extra, m <= 0
        ("simple", "2\n0.5 0.5\n0.2 0.6\n"),
        ("simple", "2\n0.5 0.5\n0.2 0.6\n0.6 0.4\n0.6 0.4\n"),
        ("simple", "0\n1\n"),
        ("simple", "-1\n"),
        ("simple", "-1\n1\n1\n"),
        ("bipartite", "2 2\n1/2 1/2\n1/2 1/2\n0.2 0.3\n"),
        ("bipartite", "1 2\n1\n1/2 1/2\n0.2 0.3\n0.2 0.3\n"),
        ("bipartite", "0 2\n1/2 1/2\n"),
        ("bipartite", "-1 2\n"),
        ("bipartite", "1 0\n1\n1\n0.5\n"),
        ("bipartite", "1 -1\n1\n1\n0.5\n"),
        ("directed", "1\n1\nW00\n0\nW01\nW10\n0.5\nW11\n0\nw\n0\n"),
        ("directed", "1\n1\nW00\n0\nW01\n0.5\n0.5\nW10\n0.5\nW11\n0\nw\n0\n"),
        ("directed", "0\n1\n"),
        ("directed", "-1\n"),
    ])
    def test_kernel_rows_and_block_counts_are_input_errors(self, workdir, capsys, kind, text):
        """An input error (exit 2), never a failed unpacking (exit 4)."""
        cls, pattern = {"simple": (StepGraphon, "edge.txt"), "bipartite": (BipartiteKernel, "crossedge.txt"),
                        "directed": (DirectedKernelQuintuple, "diredge.txt")}[kind]
        with pytest.raises(InputError):
            cls.from_text(text)
        (workdir / "bad_kernel.txt").write_text(text)
        code, _ = run_main(["density", "--kind", kind, "-F", pattern, "-W", "bad_kernel.txt"], workdir, capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--mc"])
    def test_negative_count_exits_2(self, workdir, flag):
        with pytest.raises(SystemExit) as stop:
            main(["density", "-F", str(workdir / "edge.txt"), "-G", str(workdir / "k3.txt"),
                  "--mc", "10", flag, "-1"])
        assert stop.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["density", "-F", "edge.txt", "-G", "k3.txt", "--mc", "0"],
        ["density", "-F", "edge.txt", "-W", "bg.txt", "--samples", "0"],
        ["test-exchangeable", "-src", "src_det.txt", "-k", "2", "--samples", "0"],
    ])
    def test_zero_sample_count_exits_2(self, workdir, capsys, argv):
        # zero samples is not a request for the exact report
        with pytest.raises(SystemExit) as stop:
            run_main(argv, workdir, capsys)
        assert stop.value.code == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("env, extra", [("", ["--threads", "0"]), ("two", []), ("0", []), ("-3", [])])
    def test_bad_thread_count_exits_2(self, workdir, capsys, monkeypatch, env, extra):
        monkeypatch.setenv("GRAPHONLAB_THREADS", env)
        for argv in (  # every seeded command, chunked or not
            ["density", "-F", "edge.txt", "-G", "k3.txt", "--mc", "10"],
            ["sample", "-W", "w05.txt", "-n", "5"],
            ["test-exchangeable", "-src", "src_det.txt", "-k", "3"],
            ["test-extreme", "-src", "src_det.txt", "--pairs", "pairs.txt", "--samples", "10"],
            ["trace-martingale", "-src", "src_det.txt", "-F", "edge.txt", "--grid", "5,10"],
        ):
            code, _ = run_main([*argv, *extra], workdir, capsys)
            assert code == 2, argv[0]

    @pytest.mark.parametrize("name, argv", [
        ("edge.txt", ["density", "-F", "BAD", "-G", "k3.txt"]),  # graph
        ("bg.txt", ["density", "-F", "edge.txt", "-W", "BAD"]),  # step kernel
        ("bip.txt", ["density", "--kind", "bipartite", "-F", "crossedge.txt", "-G", "BAD"]),
        ("bipk.txt", ["density", "--kind", "bipartite", "-F", "crossedge.txt", "-W", "BAD"]),
        ("diredge.txt", ["density", "--kind", "directed", "-F", "BAD", "-G", "diredge.txt"]),
        ("tourn.txt", ["density", "--kind", "directed", "-F", "diredge.txt", "-W", "BAD"]),
        ("src_det.txt", ["test-exchangeable", "-src", "BAD", "-k", "2"]),  # source
        ("pairs.txt", ["test-extreme", "-src", "src_det.txt", "--pairs", "BAD", "--samples", "10"]),
    ])
    def test_non_ascii_input_exits_2(self, workdir, capsys, name, argv):
        # one 0xff byte at the end of a line of a valid file of each kind
        data = (workdir / name).read_bytes()
        (workdir / "bad.txt").write_bytes(data.replace(b"\n", b"\xff\n", 1))
        argv = [a.replace("BAD", "bad.txt") for a in argv]
        code = main([str(workdir / a) if a.endswith(".txt") else a for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert "input error: cannot read" in err and "bad.txt" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, code", [
        (["-k", "4", "--samples", "1000000", "--alpha", "2"], 2),
        (["-k", "4", "--alpha", "0"], 2),  # exact mode
        (["-k", "8", "--samples", "1000000"], 3),
        (["-k", "17", "--samples", "10"], 3),
        (["-k", "4", "--samples", "1000"], 4),  # controls: valid arguments reach a spy, which faults
        (["-k", "4"], 4),
    ])
    def test_test_exchangeable_validates_before_any_law(self, workdir, capsys, monkeypatch,
                                                        argv, code):
        built = []

        def no_law(*_args, **_kwargs):
            built.append(True)
            raise AssertionError("a prefix law was built before the arguments were checked")

        # the two calls that draw or sum a law: the empirical law draws its prefixes through pair_bits_batch
        monkeypatch.setattr(GraphSource, "pair_bits_batch", no_law)
        monkeypatch.setattr(exchangeable, "prefix_law_exact", no_law)
        got, _ = run_main(["test-exchangeable", "-src", "src_det.txt", *argv], workdir, capsys)
        assert got == code
        assert bool(built) == (code == 4)

    @pytest.mark.parametrize("target", ["missing/out.csv", ""])  # no such directory; a directory
    @pytest.mark.parametrize("argv", [
        ["density", "-F", "edge.txt", "-G", "k3.txt"],
        ["test-exchangeable", "-src", "src_det.txt", "-k", "3"],  # a verdict: 1 means rejected
    ])
    def test_unwritable_output_exits_2(self, workdir, capsys, argv, target):
        out = str(workdir / target)
        code = main([str(workdir / a) if a.endswith(".txt") else a for a in argv] + ["-o", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: cannot write {out}: ") and "Traceback" not in err

    def test_internal_fault_exits_4(self, workdir, capsys, monkeypatch):
        def broken(_args):
            raise ValueError("not an input problem")

        monkeypatch.setattr(cli, "cmd_cutdist", broken)
        code = main(["cutdist", "-W", str(workdir / "w02.txt"), "-W2", str(workdir / "w08.txt")])
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" in err and "internal error: not an input problem" in err


class TestHostCap:
    """Host and sample sizes beyond HOST_CAP exit 3 before anything of that
    size is allocated, naming the requested size next to the cap."""

    HUGE = 10_000_000_000_000

    @pytest.mark.parametrize("kind, header", [
        ("simple", f"{HUGE} 0"),
        ("directed", f"{HUGE} 0"),
        ("bipartite", f"3 {HUGE} 0"),
    ])
    def test_huge_host_file_exits_3(self, workdir, capsys, kind, header):
        (workdir / "huge.txt").write_text(header + "\n")
        pattern = {"simple": "edge.txt", "directed": "diredge.txt", "bipartite": "crossedge.txt"}[kind]
        code = main(["density", "--kind", kind, "-F", str(workdir / pattern), "-G", str(workdir / "huge.txt")])
        err = capsys.readouterr().err
        assert code == 3
        assert f"capped at {HOST_CAP} vertices per part, got {self.HUGE}" in err

    @pytest.mark.parametrize("kind, kernel, sizes", [
        ("simple", "bg.txt", ["-n", str(HUGE)]),
        ("directed", "tourn.txt", ["-n", str(HOST_CAP + 1)]),
        ("bipartite", "bipk.txt", ["-n", "3", "--n2", str(HUGE)]),
    ])
    def test_huge_sample_exits_3(self, workdir, capsys, kind, kernel, sizes):
        code = main(["sample", "--kind", kind, "-W", str(workdir / kernel), *sizes])
        err = capsys.readouterr().err
        assert code == 3
        assert f"capped at {HOST_CAP} vertices per part, got {sizes[-1]}" in err

    def test_huge_martingale_grid_exits_3(self, workdir, capsys):
        """The last grid size is sampled as one host, so it is capped too."""
        code = main(["trace-martingale", "-src", str(workdir / "src_det.txt"), "-F", str(workdir / "k3.txt"),
                     "--grid", f"3,{self.HUGE}"])
        err = capsys.readouterr().err
        assert code == 3
        assert f"host graphs capped at {HOST_CAP} vertices per part, got {self.HUGE}" in err


class TestSampleCommand:
    def test_simple_sample_roundtrips(self, workdir, capsys):
        code, out = run_main(["sample", "-W", "bg.txt", "-n", "8", "--seed", "3"], workdir, capsys)
        assert code == 0
        g = LabelledGraph.from_text(out)
        assert g.n == 8

    def test_bipartite_needs_n2(self, workdir, capsys):
        code, _ = run_main(["sample", "--kind", "bipartite", "-W", "bipk.txt", "-n", "3"], workdir, capsys)
        assert code == 2

    @pytest.mark.parametrize("kind, kernel", [("simple", "bg.txt"), ("directed", "tourn.txt")])
    def test_n2_without_bipartite_exits_2(self, workdir, capsys, kind, kernel):
        code, _ = run_main(["sample", "--kind", kind, "-W", kernel, "-n", "5", "--n2", "7"], workdir, capsys)
        assert code == 2

    def test_directed_sample(self, workdir, capsys):
        code, out = run_main(
            ["sample", "--kind", "directed", "-W", "tourn.txt", "-n", "4", "--seed", "1"],
            workdir, capsys,
        )
        assert code == 0
        g = DirectedGraph.from_text(out)
        assert len(g.edges()) == 6 and not g.loops()


class TestConvergeCommand:
    def test_zero_distance_to_self(self, workdir, capsys):
        code, out = run_main(
            ["converge", "-G", "k3.txt", "--ref", "k3.txt"], workdir, capsys
        )
        assert code == 0
        assert "k3,0.000000000000" in out

    def test_reference_graphon(self, workdir, capsys):
        code, out = run_main(
            ["converge", "-G", "edge.txt", "-G", "k3.txt", "--ref-graphon", "w05.txt"],
            workdir, capsys,
        )
        assert code == 0
        assert out.splitlines()[1] == "graph_id,d"
        assert len(out.splitlines()) == 4

    def test_both_references_exit_2(self, workdir, capsys):
        code, _ = run_main(["converge", "-G", "k3.txt", "--ref", "edge.txt", "--ref-graphon", "w05.txt"],
                           workdir, capsys)
        assert code == 2


class TestVerdictCommands:
    def test_extreme_mixture_rejected(self, workdir, capsys):
        code, out = run_main(
            ["test-extreme", "-src", "src_mix.txt", "--pairs", "pairs.txt",
             "--samples", "60000", "--seed", "2"],
            workdir, capsys,
        )
        assert code == 1
        assert "VERDICT non-extreme" in out

    def test_extreme_deterministic_consistent(self, workdir, capsys):
        code, out = run_main(
            ["test-extreme", "-src", "src_det.txt", "--pairs", "pairs.txt",
             "--samples", "60000", "--seed", "2"],
            workdir, capsys,
        )
        assert code == 0
        assert "VERDICT extreme-consistent" in out

    def test_exchangeable_exact_mode(self, workdir, capsys):
        code, out = run_main(
            ["test-exchangeable", "-src", "src_det.txt", "-k", "3"], workdir, capsys
        )
        assert code == 0
        assert "VERDICT consistent" in out

    def test_exchangeable_empirical_mode(self, workdir, capsys):
        code, out = run_main(
            ["test-exchangeable", "-src", "src_mix.txt", "-k", "2", "--samples", "20000",
             "--seed", "5"],
            workdir, capsys,
        )
        assert code == 0
        assert "VERDICT consistent" in out

    @pytest.mark.parametrize("src", ["src_det.txt", "src_mix.txt"])
    def test_exchangeable_one_vertex_prefix(self, workdir, capsys, src):
        # a 1-vertex prefix has no pairs: one class, the single vertex
        code, out = run_main(
            ["test-exchangeable", "-src", src, "-k", "1", "--samples", "500"], workdir, capsys
        )
        assert code == 0
        assert out.splitlines() == [
            "class_code,cells,count,probability", "0,1,500,1.000000000000", "VERDICT consistent p_min=",
        ]

    def test_exchangeable_builds_graphs_only_per_class(self, workdir, capsys, monkeypatch):
        # the law and its classes stay pair codes: one graph per class, one more for a detail
        (workdir / "sparse_a.txt").write_text("1\n1\n3/100\n")
        (workdir / "sparse_b.txt").write_text("1\n1\n8/100\n")
        (workdir / "sparse.txt").write_text("mixture\n1/2 sparse_a.txt\n1/2 sparse_b.txt\n")
        calls = []
        # the class scan builds in graphs; the sampler and a verdict's detail in exchangeable
        for module in (graphs, exchangeable):
            for name in ("graph_from_pair_bits", "pair_bits_of"):
                spy = (lambda fn: lambda *a: calls.append(fn.__name__) or fn(*a))(getattr(module, name))
                monkeypatch.setattr(module, name, spy)
        code, out = run_main(["test-exchangeable", "-src", "sparse.txt", "-k", "6",
                              "--samples", "4000", "--seed", "0"], workdir, capsys)
        classes = len(out.splitlines()) - 2
        assert code in (0, 1) and classes > 1
        assert 0 < calls.count("graph_from_pair_bits") <= classes + 1
        assert calls.count("pair_bits_of") <= classes

    @pytest.mark.parametrize("argv", [
        ["test-exchangeable", "-k", "3", "--samples", "3000", "--seed", "3"],
        ["trace-martingale", "-F", "edge.txt", "--grid", "5,20,80", "--seed", "3"],
    ])
    def test_one_line_mixture_reports_like_wrandom(self, workdir, capsys, argv):
        (workdir / "src_one.txt").write_text("mixture\n1 w05.txt\n")
        outs = [run_main([argv[0], "-src", src, *argv[1:]], workdir, capsys)
                for src in ("src_det.txt", "src_one.txt")]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("alpha", ["0", "1", "-1", "1.5", "nan"])
    @pytest.mark.parametrize("argv", [
        ["test-extreme", "-src", "src_det.txt", "--pairs", "pairs.txt", "--samples", "100"],
        ["test-exchangeable", "-src", "src_det.txt", "-k", "3"],
        ["test-exchangeable", "-src", "src_det.txt", "-k", "3", "--samples", "100"],
    ])
    def test_alpha_outside_unit_interval_exits_2(self, workdir, capsys, argv, alpha):
        code = main([str(workdir / a) if a.endswith(".txt") else a for a in argv] + ["--alpha", alpha])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"input error: alpha must lie in (0, 1), got {float(alpha)}" in captured.err

    def test_bad_source_kind(self, workdir, capsys):
        (workdir / "bad_src.txt").write_text("nonsense w05.txt\n")
        code, _ = run_main(
            ["test-exchangeable", "-src", "bad_src.txt", "-k", "2"], workdir, capsys
        )
        assert code == 2


class TestCutdistCommand:
    def test_constants(self, workdir, capsys):
        code, out = run_main(["cutdist", "-W", "w02.txt", "-W2", "w08.txt"], workdir, capsys)
        assert code == 0
        assert out.strip() == "METRIC cutdist_upper=0.600000000000"

    def test_same_kernel(self, workdir, capsys):
        code, out = run_main(["cutdist", "-W", "bg.txt", "-W2", "bg.txt"], workdir, capsys)
        assert code == 0
        assert "cutdist_upper=0.000000000000" in out


class TestTraceCommand:
    def test_trace_outputs_grid(self, workdir, capsys):
        code, out = run_main(
            ["trace-martingale", "-src", "src_det.txt", "-F", "edge.txt",
             "--grid", "10,40,160", "--seed", "4"],
            workdir, capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,t_ind"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["10", "40", "160"]


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "-F", "edge.txt", "-G", "k3.txt", "--mc", "50000", "--seed", "7"],
            ["sample", "-W", "bg.txt", "-n", "40", "--seed", "7"],
            ["test-extreme", "-src", "src_mix.txt", "--pairs", "pairs.txt",
             "--samples", "50000", "--seed", "7"],
            ["test-exchangeable", "-src", "src_det.txt", "-k", "2", "--samples", "30000",
             "--seed", "7"],
            ["trace-martingale", "-src", "src_det.txt", "-F", "edge.txt",
             "--grid", "5,20,80", "--seed", "7"],
        ],
    )
    def test_byte_identical_across_threads(self, workdir, argv):
        outs = []
        for threads, name in ((1, "a.out"), (4, "b.out")):
            args = list(argv) + ["-o", name]
            if argv[0] != "sample":
                args += ["--threads", str(threads)]
            res = run_cli(args, workdir)
            fault = exit_fault(args, res, workdir / name)
            assert not fault, fault
            outs.append((workdir / name).read_bytes())
        assert outs[0] == outs[1]


def test_fraction_to_decimal_rounding():
    assert fraction_to_decimal(Fraction(2, 3)) == "0.666666666667"
    assert fraction_to_decimal(Fraction(1)) == "1.000000000000"
    assert fraction_to_decimal(Fraction(1, 3), places=4) == "0.3333"
    assert fraction_to_decimal(Fraction(-1, 8), places=2) == "-0.13"
