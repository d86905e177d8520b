"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from graphonlab.bipartite import (
    BipartiteGraph,
    BipartiteKernel,
    bip_sampling_bound_check,
    sample_bip_w_random,
)
from graphonlab.densities import (
    disjoint_union_density,
    ind_from_inj,
    inj_from_ind,
    inj_count,
    falling,
    sampling_bound_check,
    t,
    t_ind,
    t_inj,
)
from graphonlab.directed import (
    DirectedKernelQuintuple,
    sample_directed,
    sample_directed_pair_codes,
    tournament_kernel,
    validate_quintuple,
)
from graphonlab.exchangeable import (
    GraphSource,
    PatternPair,
    correspondence_check,
    extremality_test,
    martingale_trace,
)
from graphonlab.graphon import (
    BlockMap,
    SignedStepKernel,
    StepGraphon,
    boys_girls,
    cut_distance_upper,
    cut_norm,
    exact_density,
    graph_as_graphon,
    pushforward,
    sample_w_random,
)
from graphonlab.graphs import LabelledGraph, enumerate_unlabelled
from graphonlab.rng import stream

from cli_child import exit_fault, run_cli
from conftest import all_labelled_graphs
from oracles import brute_cut_norm, brute_t, brute_t_ind, brute_t_inj

BG = boys_girls(0.5, 0.2, 0.4, 0.6)
HALF = StepGraphon.constant(Fraction(1, 2))
W3 = StepGraphon(
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    (
        (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)),
        (Fraction(2, 10), Fraction(5, 10), Fraction(7, 10)),
        (Fraction(3, 10), Fraction(7, 10), Fraction(9, 10)),
    ),
)
EDGE = LabelledGraph.complete(2)
P3 = LabelledGraph.path(3)
K3 = LabelledGraph.complete(3)

PATTERNS_3 = [g.canon for g in enumerate_unlabelled(3).graphs]
HOSTS_5 = [g.canon for g in enumerate_unlabelled(5).graphs]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {criterion} failed {tail}"


def test_criterion_01_density_oracle_equivalence():
    checked = 0
    ok = True
    for f in PATTERNS_3:
        for g in HOSTS_5:
            ok &= t(f, g) == brute_t(f, g)
            ok &= t_inj(f, g) == brute_t_inj(f, g)
            ok &= t_ind(f, g) == brute_t_ind(f, g)
            checked += 3
    report("01 density-oracle-equivalence", ok, f"{checked} exact comparisons")


def _random_hosts():
    sizes = [4, 5, 6, 6, 5, 4, 6, 5, 6, 6]
    return [sample_w_random(HALF, n, stream(100 + i)) for i, n in enumerate(sizes)]


def test_criterion_02_inclusion_exclusion_identities():
    ok = True
    checked = 0
    for host in _random_hosts():
        for k in (1, 2, 3, 4):
            patterns = all_labelled_graphs(k)
            ind_table = {f: t_ind(f, host) for f in patterns}
            inj_table = {f: t_inj(f, host) for f in patterns}
            for f in patterns:
                ok &= inj_from_ind(f, ind_table) == inj_table[f]
                ok &= ind_from_inj(f, inj_table) == ind_table[f]
                checked += 2
            # round trip ind -> inj -> ind is the identity
            rebuilt_inj = {f: inj_from_ind(f, ind_table) for f in patterns}
            for f in patterns:
                ok &= ind_from_inj(f, rebuilt_inj) == ind_table[f]
                checked += 1
    report("02 inclusion-exclusion-identities", ok, f"{checked} exact identities")


def test_criterion_03_sampling_bounds():
    ok = True
    checked = 0
    for f in PATTERNS_3:
        for g in HOSTS_5:
            ok &= sampling_bound_check(f, g).ok
            checked += 1
    bip_patterns = [
        BipartiteGraph.from_edges(n1, n2, edges)
        for n1, n2 in ((1, 1), (1, 2), (2, 1), (2, 2))
        for edges in itertools.chain.from_iterable(
            itertools.combinations(
                [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)], r
            )
            for r in range(n1 * n2 + 1)
        )
    ]
    bip_kernel = BipartiteKernel.constant(Fraction(1, 2))
    for i in range(10):
        host = sample_bip_w_random(bip_kernel, 2 + i % 3, 2 + (i + 1) % 3, stream(200 + i))
        for f in bip_patterns:
            ok &= bip_sampling_bound_check(f, host).ok
            checked += 1
    report("03 sampling-bounds", ok, f"{checked} bound checks, zero violations")


def test_criterion_04_multiplicativity():
    parts = HOSTS_5
    hosts = [K3, LabelledGraph.path(4), sample_w_random(HALF, 5, stream(300))]
    ok = True
    checked = 0
    for f1, f2 in itertools.combinations_with_replacement(parts, 2):
        if f1.n + f2.n > 6:
            continue
        for host in hosts:
            ok &= disjoint_union_density([f1, f2], host) == t(f1, host) * t(f2, host)
            checked += 1
    report("04 disjoint-union-multiplicativity", ok, f"{checked} exact products")


def test_criterion_05_graphon_consistency():
    ok = True
    checked = 0
    for g in HOSTS_5:
        kernel = graph_as_graphon(g)
        for f in PATTERNS_3:
            ok &= exact_density(f, kernel) == t(f, g)
            checked += 1
    report("05 graphon-consistency", ok, f"{checked} exact equalities")


def test_criterion_06_sampler_agreement():
    n, seeds = 800, 20
    halfwidth = 3 / (2 * math.sqrt(seeds))
    targets = {
        "edge": (EDGE, Fraction(9, 20)),
        "k3": (K3, exact_density(K3, BG)),
        "p3": (P3, exact_density(P3, BG)),
    }
    means = {}
    for name, (f, exact) in targets.items():
        vals = []
        for s in range(seeds):
            g = sample_w_random(BG, n, stream(400 + s))
            vals.append(inj_count(f, g) / falling(n, f.n))
        means[name] = sum(vals) / seeds
    ok = all(abs(means[name] - float(exact)) <= halfwidth for name, (_, exact) in targets.items())
    detail = ", ".join(
        f"{name}: {means[name]:.4f} vs {float(e):.4f}" for name, (_, e) in targets.items()
    )
    report("06 sampler-density-agreement", ok, detail)


def test_criterion_07_te_correspondence():
    ok = True
    for w in (BG, HALF, W3):
        for f in (EDGE, P3, K3):
            res = correspondence_check(w, f, 3)
            ok &= res.gap == 0
    report("07 te-correspondence", ok, "9 exact prefix-law identities")


def test_criterion_08_extremality_power_and_level():
    mix = GraphSource.mixture([
        (Fraction(1, 2), StepGraphon.constant(Fraction(1, 5))),
        (Fraction(1, 2), StepGraphon.constant(Fraction(4, 5))),
    ])
    det = GraphSource.w_random(HALF)
    pair = [PatternPair(((1, 2),), ((3, 4),))]
    runs, samples = 50, 100_000
    mix_rejects = sum(
        not extremality_test(mix, pair, samples, 0.01, seed=500 + s).extreme_consistent
        for s in range(runs)
    )
    det_rejects = sum(
        not extremality_test(det, pair, samples, 0.01, seed=600 + s).extreme_consistent
        for s in range(runs)
    )
    ok = mix_rejects >= 47 and det_rejects <= 3
    report(
        "08 extremality-power-and-level",
        ok,
        f"mixture rejected {mix_rejects}/50, deterministic rejected {det_rejects}/50",
    )


def test_criterion_09_pushforward_invariance():
    patterns = [g.canon for g in enumerate_unlabelled(4).graphs]
    cases = []
    for w in (W3, BG):
        perm = [0, 2, 1] if w.m == 3 else [1, 0]
        cases.append((w, pushforward(w, BlockMap.permutation(perm, w.mu)), "permutation"))
        half = w.mu[0] / 2
        cases.append((w, pushforward(w, BlockMap.split(w.mu, 0, [half, half])), "split"))
    ok = True
    checked = 0
    for w, pushed, _kind in cases:
        for f in patterns:
            ok &= exact_density(f, pushed) == exact_density(f, w)
            checked += 1
    for w in (W3, BG):
        perm = [0, 2, 1] if w.m == 3 else [1, 0]
        permuted = pushforward(w, BlockMap.permutation(perm, w.mu))
        ok &= cut_distance_upper(w, permuted) == 0
    report("09 pushforward-invariance", ok, f"{checked} densities unchanged, cut distance 0")


def test_criterion_10_cut_norm_oracle():
    rng = stream(700)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 7))
        raw = [Fraction(int(x), 8) for x in rng.integers(1, 9, size=m)]
        total = sum(raw)
        mu = tuple(x / total for x in raw)
        vals = tuple(
            tuple(Fraction(int(rng.integers(-8, 9)), 8) for _ in range(m)) for _ in range(m)
        )
        d = SignedStepKernel(mu, vals)
        ok &= cut_norm(d) == brute_cut_norm(list(d.mu), [list(r) for r in d.values])
    report("10 cut-norm-oracle", ok, "100 random kernels, exact agreement")


def test_criterion_11_tournament():
    kernel = tournament_kernel()
    ok = validate_quintuple(kernel).ok
    asym = DirectedKernelQuintuple((1,), ((0,),), ((1,),), ((0,),), ((0,),), (0,))
    ok &= not validate_quintuple(asym).ok
    g = sample_directed(kernel, 50, stream(800))
    ok &= g.loops() == []
    for u in range(1, 51):
        for v in range(u + 1, 51):
            ok &= g.has_edge(u, v) != g.has_edge(v, u)
    triples = 100_000
    loops, codes = sample_directed_pair_codes(kernel, 3, triples, stream(801))
    ok &= not loops.any()
    ok &= bool(np.isin(codes, (1, 2)).all())  # one edge per pair, no 2-cycles
    # containment of the labelled 3-cycle 1->2->3->1
    hits = (codes[:, 0] >= 2) & ((codes[:, 1] & 1) == 1) & (codes[:, 2] >= 2)
    freq = float(hits.mean())
    ok &= abs(freq - 0.125) <= 3 / (2 * math.sqrt(triples))
    report("11 tournament", ok, f"3-cycle frequency {freq:.4f} vs 0.125")


def test_criterion_12_reverse_martingale_trace():
    src = GraphSource.w_random(HALF)
    grid = [10, 40, 160]
    d_small, d_large = [], []
    for s in range(20):
        tr = [float(x) for x in martingale_trace(src, EDGE, grid, stream(900 + s))]
        d_small.append(abs(tr[1] - tr[0]))
        d_large.append(abs(tr[2] - tr[1]))
    med = lambda xs: sorted(xs)[len(xs) // 2]
    ok = med(d_small) > med(d_large)
    report(
        "12 reverse-martingale-trace",
        ok,
        f"median |x40-x10| = {med(d_small):.4f} > median |x160-x40| = {med(d_large):.4f}",
    )


def test_criterion_13_cli_reproducibility(tmp_path):
    from graphonlab.graphon import write_step_graphon
    from graphonlab.graphs import write_graph

    write_graph(EDGE, tmp_path / "edge.txt")
    write_graph(K3, tmp_path / "k3.txt")
    write_step_graphon(BG, tmp_path / "bg.txt")
    write_step_graphon(StepGraphon.constant(Fraction(1, 5)), tmp_path / "w02.txt")
    write_step_graphon(StepGraphon.constant(Fraction(4, 5)), tmp_path / "w08.txt")
    write_step_graphon(HALF, tmp_path / "w05.txt")
    (tmp_path / "src_mix.txt").write_text("mixture\n0.5 w02.txt\n0.5 w08.txt\n")
    (tmp_path / "src_det.txt").write_text("wrandom w05.txt\n")
    (tmp_path / "pairs.txt").write_text("1-2 | 3-4\n")
    commands = [
        ["density", "-F", "edge.txt", "-G", "k3.txt", "--mc", "40000", "--seed", "11"],
        ["sample", "-W", "bg.txt", "-n", "60", "--seed", "11"],
        ["test-extreme", "-src", "src_mix.txt", "--pairs", "pairs.txt",
         "--samples", "50000", "--seed", "11"],
        ["test-exchangeable", "-src", "src_det.txt", "-k", "2", "--samples", "30000",
         "--seed", "11"],
        ["trace-martingale", "-src", "src_det.txt", "-F", "edge.txt",
         "--grid", "5,20,80", "--seed", "11"],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        outs = []
        for threads in (1, 3):
            name = f"out_{idx}_{threads}.txt"
            args = argv + ["-o", name]
            if argv[0] != "sample":
                args += ["--threads", str(threads)]
            res = run_cli(args, tmp_path)
            fault = exit_fault(args, res, tmp_path / name)
            if fault:
                report("13 cli-reproducibility", False, fault)
            outs.append((tmp_path / name).read_bytes())
        ok &= outs[0] == outs[1]
    report("13 cli-reproducibility", ok, f"{len(commands)} commands byte-identical across threads")
