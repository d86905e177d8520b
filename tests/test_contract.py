"""The contraction engine and its planner.

contract is checked against the frontier search (host_count with no
plan, so it contracts nothing) and the brute-force oracles, for patterns
up to 6 vertices and hosts up to 12, on simple, bipartite and directed
hosts and kernels, and host_count, which contracts over the host vertices
of each domain, against the backtracker and the oracles on domains that
are not a whole part. Host weights are scaled so that the same counts
run once in float64, once in int64 and once in Python-int object arrays;
kernels with large denominators run in object arrays. plan is checked
against a planner that prices every order, and what the elimination steps
make against the plan's peak and cost.
"""
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphonlab import densities
from graphonlab.bipartite import BipartiteGraph, BipartiteKernel, _bip_count, bip_exact_ind_density, bip_t
from graphonlab.densities import PLAN_BUDGET, contract, host_count, mc_containment_hits, plan, t, t_ind, t_inj
from graphonlab.directed import DirectedGraph, DirectedKernelQuintuple, directed_t, directed_t_ind
from graphonlab.exchangeable import prefix_law_exact
from graphonlab.graphon import StepGraphon, exact_density, exact_ind_density
from graphonlab.graphs import LabelledGraph, column_words, pack_bits, pair_order, unpack_bits, word_ints
from graphonlab.rng import stream

from oracles import (brute_bip, brute_bip_kernel_sum, brute_containment_hits, brute_directed, brute_kernel_sum,
                     brute_masked_count, brute_plans, brute_t)
from test_engines import bipartite_graphs, directed_graphs, measures, simple_graphs

BIG = 10**12 + 39  # a prime: scaled products of a few such values leave int64


def scales(n: int, k: int) -> dict[str, int]:
    """Weight multipliers c that put the bound (n c)^k of a k-vertex count
    in an n-vertex host under 2^53 (float64), in [2^53, 2^63) (int64) and
    beyond 2^63 (object)."""
    c = 1
    while (n * c) ** k < 2**53:
        c *= 2
    assert 2**53 <= (n * c) ** k < 2**63
    return {"float64": 1, "int64": c, "object": 2**64}


def scaled_counts(weights, factors, k: int) -> set[int]:
    """contract's count at every scale, each divided back by c^k."""
    n = max(len(w) for w in weights)
    out = set()
    for c in scales(n, k).values():
        total = contract([np.asarray(w, dtype=np.int64).astype(object) * c for w in weights], factors)
        assert total.denominator == 1 and total.numerator % c**k == 0
        out.add(total.numerator // c**k)
    return out


def backtrack(*args) -> int:
    """host_count by the backtracker alone: with no plan nothing is contracted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(densities, "plan", lambda sizes, pairs: None)
        return host_count(*args)


def domain(mask: int) -> np.ndarray:
    """The vertices of a bitmask, as host_count's sorted index array."""
    return np.array([i for i in range(mask.bit_length()) if mask >> i & 1], dtype=np.intp)


def directed_host(g: DirectedGraph) -> dict:
    return {(0, 0): (g.words, column_words(g.words, g.n))}


def looped(g: DirectedGraph) -> int:
    return sum(1 << i for i in range(g.n) if g.has_loop(i + 1))


def bip_args(f: BipartiteGraph, g: BipartiteGraph) -> tuple:
    """host_count's pattern rows, parts, domains and host for a bipartite
    count: f as one symmetric pattern, part 1 first, and each part of g
    over its own columns."""
    k1, k = f.n1, f.n1 + f.n2
    a = np.zeros((k, k), dtype=bool)
    a[:k1, k1:] = unpack_bits(f.words, f.n2)
    cols = pack_bits(unpack_bits(g.words, g.n2).T)
    doms = [np.arange(g.n1)] * f.n1 + [np.arange(g.n2)] * f.n2
    host = {(0, 1): (g.words, g.words), (1, 0): (cols, cols)}
    return word_ints(pack_bits(a | a.T)), [0] * f.n1 + [1] * f.n2, doms, host


@given(simple_graphs(6), simple_graphs(12))
@settings(max_examples=60, deadline=None)
def test_simple_host(f, g):
    a = unpack_bits(g.words, g.n)
    factors = {(u - 1, v - 1): a for u, v in f.edges()}
    count = backtrack(f.rows, [0] * f.n, [np.arange(g.n)] * f.n, {(0, 0): (g.words, g.words.copy())}, False, False)
    assert scaled_counts([np.ones(g.n)] * f.n, factors, f.n) == {count}
    assert t(f, g) == Fraction(count, g.n ** f.n)


@given(simple_graphs(4), simple_graphs(6))
@settings(max_examples=40, deadline=None)
def test_simple_host_oracle(f, g):
    a = unpack_bits(g.words, g.n)
    count = contract([np.ones(g.n, dtype=bool)] * f.n, {(u - 1, v - 1): a for u, v in f.edges()})
    assert count / g.n ** f.n == brute_t(f, g)


@given(bipartite_graphs(3), bipartite_graphs(6))
@settings(max_examples=60, deadline=None)
def test_bipartite_host(f, g):
    a = unpack_bits(g.words, g.n2)
    factors = {(u - 1, f.n1 + v - 1): a for u, v in f.edges()}
    weights = [np.ones(g.n1)] * f.n1 + [np.ones(g.n2)] * f.n2
    count = _bip_count(f, g, False, False)
    assert scaled_counts(weights, factors, f.n1 + f.n2) == {count}
    assert bip_t(f, g) == Fraction(count, g.n1**f.n1 * g.n2**f.n2)
    if g.n1 + g.n2 <= 6:
        assert bip_t(f, g) == brute_bip(f, g)


@given(directed_graphs(6), directed_graphs(12))
@settings(max_examples=60, deadline=None)
def test_directed_host(f, g):
    """Each arc u -> v of f is its own factor, (u, v) or (v, u) as it
    comes; f's loops weight a vertex by the host's loop indicator."""
    a = unpack_bits(g.words, g.n)
    factors = {(u - 1, v - 1): a for u, v in f.edges() if u != v}
    weights = [np.diagonal(a) if f.has_loop(u + 1) else np.ones(g.n) for u in range(f.n)]
    loops, every = domain(looped(g)), np.arange(g.n)
    doms = [loops if f.has_loop(u + 1) else every for u in range(f.n)]
    count = backtrack(f.rows, [0] * f.n, doms, directed_host(g), False, False)
    assert scaled_counts(weights, factors, f.n) == {count}
    assert directed_t(f, g) == Fraction(count, g.n ** f.n)
    if f.n <= 3 and g.n <= 5:
        assert directed_t(f, g) == brute_directed(f, g)


@given(bipartite_graphs(3), bipartite_graphs(7))
@settings(max_examples=60, deadline=None)
def test_host_count_on_side_masks(f, g):
    """Each pattern vertex ranges over its own part of the host, each part
    read over its own columns."""
    args = bip_args(f, g)
    assert host_count(*args, False, False) == backtrack(*args, False, False) == _bip_count(f, g, False, False)


@given(directed_graphs(5), directed_graphs(10), st.data())
@settings(max_examples=80, deadline=None)
def test_host_count_on_looped_vertices(f, g, data):
    """A looped pattern vertex ranges over the host's looped vertices, any
    other over a drawn subset (possibly empty, possibly all)."""
    masks = [looped(g) if f.has_loop(u + 1) else data.draw(st.integers(0, (1 << g.n) - 1)) for u in range(f.n)]
    args = f.rows, [0] * f.n, [domain(m) for m in masks], directed_host(g)
    count = host_count(*args, False, False)
    assert count == backtrack(*args, False, False)
    if np.prod([m.bit_count() for m in masks]) <= 2000:
        assert count == brute_masked_count(f.rows, g.rows, masks)


@given(directed_graphs(4), directed_graphs(6), st.data())
@settings(max_examples=80, deadline=None)
def test_host_count_on_masks_against_the_oracle(f, g, data):
    """Hom, injective and induced counts with each pattern vertex ranging
    over a drawn subset, on a directed host (out- and in-rows) and on its
    symmetric closure (one table per pair)."""
    masks = [data.draw(st.integers(0, (1 << g.n) - 1)) for _ in range(f.n)]
    doms = [domain(m) for m in masks]
    hout, hin = directed_host(g)[0, 0]
    sym = hout | hin
    for host in [{(0, 0): (hout, hin)}, {(0, 0): (sym, sym)}]:
        for injective, induced in [(False, False), (True, False), (True, True)]:
            assert host_count(f.rows, [0] * f.n, doms, host, injective, induced) == brute_masked_count(
                f.rows, word_ints(host[0, 0][0]), masks, injective, induced)


def test_looped_domains_let_a_plan_fit():
    """An all-looped directed path on 400 vertices: full domains leave no
    plan, the host's 6 looped vertices do, and the count is the backtracker's."""
    rng = np.random.default_rng(7)
    n, looped = 400, [3, 50, 51, 120, 200, 399]
    a = rng.random((n, n)) < 0.5
    np.fill_diagonal(a, False)
    a[looped, looped] = True
    g = DirectedGraph.from_edges(n, [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(a))])
    f = DirectedGraph.from_edges(4, [(1, 2), (3, 2), (3, 4)] + [(u, u) for u in range(1, 5)])
    path = frozenset({(0, 1), (1, 2), (2, 3)})
    assert plan((n,) * 4, path) is None and plan((len(looped),) * 4, path) is not None
    args = f.rows, [0] * 4, [np.array(looped)] * 4, directed_host(g)
    count = backtrack(*args, False, False)
    assert count > 0
    assert host_count(*args, False, False) == count
    assert directed_t(f, g) == Fraction(count, n**4)


def _block_shapes(monkeypatch) -> list:
    """Record the shape of every factor host_count hands to contract."""
    shapes = []

    def spy(weights, factors):
        shapes.extend(a.shape for a in factors.values())
        return contract(weights, factors)

    monkeypatch.setattr(densities, "contract", spy)
    return shapes


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes Python and numpy allocated meanwhile."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lopsided_bipartite_host_blocks_are_its_sides(monkeypatch):
    """A two-leaf star into a 1 x 6000 host: each block is 1 x 6000, the count is
    the backtracker's, and no n^2 array of the 6001-vertex one-graph is made."""
    rng = np.random.default_rng(11)
    n2 = 6000
    g = BipartiteGraph.from_edges(1, n2, [(1, int(j) + 1) for j in np.flatnonzero(rng.random(n2) < 0.3)])
    f = BipartiteGraph.from_edges(1, 2, [(1, 1), (1, 2)])
    args = bip_args(f, g)
    shapes = _block_shapes(monkeypatch)
    count, peak = _traced_peak(host_count, *args, False, False)
    assert peak < (1 + n2) ** 2 // 32
    assert count == backtrack(*args, False, False) == bin(g.rows[0]).count("1") ** 2
    assert shapes == [(1, n2)] * 2
    assert bip_t(f, g) == Fraction(count, n2**2)


def test_few_loops_on_a_large_directed_host_give_small_blocks(monkeypatch):
    """An all-looped directed path on a sparse 4000-vertex host with 5
    looped vertices: every block is 5 x 5, the count is the backtracker's,
    and no n^2 array is made."""
    rng = np.random.default_rng(13)
    n, looped = 4000, [7, 900, 901, 2500, 3999]
    arcs = {(int(i), int(j)) for i, j in rng.integers(0, n, size=(4 * n, 2)) if i != j}
    arcs |= {(i, j) for i in looped for j in looped if i == j or rng.random() < 0.7}
    g = DirectedGraph.from_edges(n, [(i + 1, j + 1) for i, j in arcs])
    f = DirectedGraph.from_edges(4, [(1, 2), (3, 2), (3, 4), (4, 3)] + [(u, u) for u in range(1, 5)])
    args = f.rows, [0] * 4, [np.array(looped)] * 4, directed_host(g)
    shapes = _block_shapes(monkeypatch)
    count, peak = _traced_peak(host_count, *args, False, False)
    assert peak < n**2 // 32
    assert count == backtrack(*args, False, False) > 0
    assert shapes == [(5, 5)] * 3
    assert directed_t(f, g) == Fraction(count, n**4)


def test_directed_path_on_a_sparse_host_makes_no_n_by_n_matrix():
    """directed_t of a 3-vertex path on a sparse 10,000-vertex host: the
    in-rows come from the arcs, so the traced peak stays below half the
    n x n boolean matrix an unpacked transpose would take."""
    rng = np.random.default_rng(17)
    n = 10_000
    arcs = np.unique(rng.integers(0, n, size=(3 * n, 2)), axis=0)
    arcs = arcs[arcs[:, 0] != arcs[:, 1]]
    g = DirectedGraph.from_edges(n, (arcs + 1).tolist())
    f = DirectedGraph.from_edges(3, [(1, 2), (2, 3)])
    value, peak = _traced_peak(directed_t, f, g)
    assert peak < n**2 // 2
    through = np.bincount(arcs[:, 1], minlength=n) @ np.bincount(arcs[:, 0], minlength=n)
    assert value == Fraction(int(through), n**3)


def test_bipartite_star_on_a_sparse_host_makes_no_n1_by_n2_matrix():
    """bip_t of a two-leaf star on a sparse 10,000 x 10,000 host: the
    part-2 rows come from the edges, so the traced peak stays below half
    the n1 x n2 boolean matrix an unpacked transpose would take."""
    rng = np.random.default_rng(19)
    n1 = n2 = 10_000
    edges = np.unique(rng.integers(0, n1, size=(3 * n1, 2)), axis=0)
    g = BipartiteGraph.from_edges(n1, n2, (edges + 1).tolist())
    f = BipartiteGraph.from_edges(1, 2, [(1, 1), (1, 2)])
    value, peak = _traced_peak(bip_t, f, g)
    assert peak < n1 * n2 // 2
    degrees = np.bincount(edges[:, 0], minlength=n1)
    assert value == Fraction(int(degrees @ degrees), n1 * n2**2)


def _sparse_simple_host(seed: int) -> LabelledGraph:
    """About 30,000 uniform edges on 10,000 vertices."""
    rng = np.random.default_rng(seed)
    n = 10_000
    edges = np.unique(np.sort(rng.integers(0, n, size=(3 * n, 2)), axis=1), axis=0)
    return LabelledGraph.from_edges(n, (edges[edges[:, 0] != edges[:, 1]] + 1).tolist())


def test_mc_on_a_sparse_host_makes_no_n_by_n_matrix():
    """Monte Carlo edge hits on a sparse 10,000-vertex host: each sampled
    pair is looked up in the graph's packed words, n^2/8 bytes, so the
    traced peak stays below half the n x n boolean matrix (107 MB when
    the lookup read that matrix)."""
    g, f = _sparse_simple_host(23), LabelledGraph.complete(2)
    hits, peak = _traced_peak(mc_containment_hits, f, g, 100_000, stream(5))
    assert peak < g.n**2 // 2
    assert hits == brute_containment_hits(f, g, stream(5).integers(0, g.n, size=(100_000, 2))) > 0


def test_induced_triangles_on_a_sparse_host_build_no_complements():
    """t_ind(K3) on a sparse 10,000-vertex host: every pattern pair is an
    edge, so no table of complemented n-bit rows is built, and the traced
    peak stays under 20 MB (27 MB with the complements, 14 MB without)."""
    g, f = _sparse_simple_host(23), LabelledGraph.complete(3)
    value, peak = _traced_peak(t_ind, f, g)
    assert peak < 20 * 2**20
    assert value == t_inj(f, g) > 0


@st.composite
def step_graphons(draw, max_m, den):
    mu = draw(measures(max_m))
    m = len(mu)
    upper = {(a, b): Fraction(draw(st.integers(0, den)), den) for a in range(m) for b in range(a, m)}
    return StepGraphon(mu, tuple(tuple(upper[min(a, b), max(a, b)] for b in range(m)) for a in range(m)))


@given(simple_graphs(6), st.sampled_from([4, BIG]).flatmap(lambda den: step_graphons(3, den)))
@settings(max_examples=60, deadline=None)
def test_simple_kernel(f, w):
    assert exact_density(f, w) == brute_kernel_sum(f, w.mu, w.w)
    assert exact_ind_density(f, w) == brute_kernel_sum(f, w.mu, w.w, induced=True)


@given(bipartite_graphs(3), st.sampled_from([4, BIG]), st.data())
@settings(max_examples=60, deadline=None)
def test_bipartite_kernel(f, den, data):
    mu1, mu2 = data.draw(measures(3)), data.draw(measures(3))
    vals = [[Fraction(data.draw(st.integers(0, den)), den) for _ in mu2] for _ in mu1]
    w = BipartiteKernel(mu1, mu2, vals)
    assert bip_exact_ind_density(f, w) == brute_bip_kernel_sum(f, mu1, mu2, w.w, induced=True)
    assert contract([w.mu1] * f.n1 + [w.mu2] * f.n2,
                    {(u - 1, f.n1 + v - 1): w.w for u, v in f.edges()}) == brute_bip_kernel_sum(f, mu1, mu2, w.w)


def test_kernel_sum_beyond_the_budget_is_sliced():
    """An operand larger than PLAN_BUDGET leaves no plan; the sum is then
    taken over the values of one vertex, each a contraction that fits."""
    rng = np.random.default_rng(5)
    m = 400
    assert m * m > PLAN_BUDGET
    w0, w1 = rng.integers(0, 1000, m), rng.integers(0, 1000, m)
    f = rng.integers(0, 1000, (m, m))
    expected = sum(int(w0[a]) * int(f[a, b]) * int(w1[b]) for a in range(m) for b in range(m))
    assert plan((m, m), frozenset({(0, 1)})) is None
    assert contract([w0, w1], {(0, 1): f}) == expected


def test_k4_on_300_vertices_plans_the_backtracker():
    k4 = frozenset((i, j) for j in range(4) for i in range(j))
    assert plan((300,) * 4, k4) is None
    assert plan((60,) * 4, k4) is None
    assert plan((35,) * 4, k4) is not None


def test_c6_on_10_blocks_is_cubic():
    m = 10
    p = plan((m,) * 6, frozenset((i, (i + 1) % 6) for i in range(6)))
    assert p is not None and p.cost <= 6 * m**3 and p.peak <= m * m


def test_isolated_vertices_factor_out():
    m = 7
    path = frozenset({(0, 1), (1, 2)})
    alone = plan((m,) * 3, path)
    padded = plan((m,) * 5, path)
    assert padded.cost == alone.cost + 2 * m
    assert padded.peak == alone.peak
    g = LabelledGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    iso = LabelledGraph.from_edges(5, [(1, 2), (2, 3)])
    assert t(iso, g) == t(LabelledGraph.path(3), g)


def test_planned_order_is_cheaper_than_naive():
    """C4 on a 300-vertex host costs O(n^3), not the n^4 of enumeration."""
    p = plan((300,) * 4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    assert p is not None and p.cost < 3 * 300**3


@given(st.lists(st.sampled_from([0, 1, 2, 3, 7, 20, 60, 130, 400]), min_size=1, max_size=6), st.data())
@settings(max_examples=60, deadline=None)
def test_plan_is_the_cheapest_order_that_fits(sizes, data):
    """Against every order the oracle prices: plan is None exactly when no
    order fits PLAN_BUDGET, else no fitting order costs less, and its own
    order costs and holds what it says. Pairs may come in both directions,
    each its own factor."""
    sizes = tuple(sizes)
    pairs = frozenset(data.draw(st.sets(st.sampled_from(list(itertools.permutations(range(len(sizes)), 2))))
                                if len(sizes) > 1 else st.just(set())))
    fits, p = brute_plans(sizes, pairs, PLAN_BUDGET), plan(sizes, pairs)
    assert (p is None) == (not fits)
    if p is not None:
        assert fits[p.order] == (p.cost, p.peak)
        assert p.cost == min(cost for cost, _ in fits.values())


class CountedNumpy:
    """numpy, recording the cells of every array np.multiply and np.matmul
    return, and their multiply-adds."""

    def __init__(self):
        self.cells, self.work = [], 0

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, x, y, out=None):
        z = np.multiply(x, y, out=out)
        self.cells.append(z.size)
        self.work += z.size
        return z

    def matmul(self, x, y):
        z = np.matmul(x, y)
        self.cells.append(z.size)
        self.work += z.size * x.shape[-1]
        return z


@given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_contraction_stays_within_its_plan(sizes, kernel, data):
    """Every array the elimination steps make holds at most the plan's peak
    cells, and their multiply-adds add up to at most its cost: on random
    kernels (Fraction weights and values) and hosts (0/1 tables), with
    pairs in both directions."""
    k = len(sizes)
    pairs = data.draw(st.sets(st.sampled_from(list(itertools.permutations(range(k), 2)))) if k > 1 else st.just(set()))
    if kernel:
        value = st.integers(0, 4).map(lambda x: Fraction(x, 4))
        weights = [data.draw(st.lists(value, min_size=m, max_size=m)) for m in sizes]
        factors = {(u, v): data.draw(st.lists(st.lists(value, min_size=sizes[v], max_size=sizes[v]),
                                              min_size=sizes[u], max_size=sizes[u])) for u, v in pairs}
    else:
        rng = stream(data.draw(st.integers(0, 1000)))
        weights = [np.ones(m, dtype=bool) for m in sizes]
        factors = {(u, v): rng.random((sizes[u], sizes[v])) < 0.6 for u, v in pairs}
    counted, eliminate = CountedNumpy(), densities._eliminate

    def spy(v, right, mine, sizes):
        axes, arr = eliminate(v, right, mine, sizes)
        counted.cells.append(np.size(arr))
        counted.work += mine[0][1].size if len(mine) == 1 else 0
        return axes, arr

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(densities, "np", counted)
        patch.setattr(densities, "_eliminate", spy)
        contract(weights, factors)
    p = plan(tuple(sizes), frozenset(pairs))
    assert len(counted.cells) >= k
    assert max(counted.cells) <= p.peak and counted.work <= p.cost


@pytest.mark.parametrize("value", ["1/10", "3/10", "9/10"])
def test_an_exact_prefix_law_makes_one_plan(value):
    """Every class of a constant kernel's 6-prefix law sums one factor per
    pair, so all 156 share one plan, also where W or 1 - W scales to 1."""
    plan.cache_clear()
    law = prefix_law_exact(StepGraphon.constant(Fraction(value)), 6)
    assert len(law.classes) == 156
    assert plan.cache_info().misses == 1


def test_a_directed_containment_sum_plans_only_its_arcs(monkeypatch):
    """A pair without an arc sums all four pair laws, which is 1, so
    directed_t leaves it out: a 5-vertex path on a 20-state kernel plans
    its 4 arc pairs, not K_5's 10; directed_t_ind keeps every pair."""
    m, quarter = 20, Fraction(1, 4)
    law = ((quarter,) * m,) * m
    kernel = DirectedKernelQuintuple((Fraction(1, m),) * m, law, law, law, law, (0,) * m)
    path = DirectedGraph.from_edges(5, [(1, 2), (3, 2), (3, 4), (4, 5)])
    planned = []
    monkeypatch.setattr(densities, "plan", lambda sizes, pairs: planned.append(pairs) or plan(sizes, pairs))
    assert directed_t(path, kernel) == Fraction(1, 16)
    assert planned == [frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})]
    assert directed_t_ind(path, kernel) == quarter**10
    assert planned[1] == frozenset(pair_order(5))


def test_a_sum_over_an_empty_domain_is_zero():
    """All-ones weights and factors on 4 vertices, every pair set, domains
    of 0 to 2 cells: the sum is the number of assignments, 0 whenever a
    domain is empty."""
    for sizes in itertools.product(range(3), repeat=4):
        for chosen in range(1 << 6):
            pairs = [p for i, p in enumerate(pair_order(4)) if chosen >> i & 1]
            factors = {(u, v): np.ones((sizes[u], sizes[v]), dtype=bool) for u, v in pairs}
            assert contract([np.ones(m, dtype=bool) for m in sizes], factors) == math.prod(sizes)
