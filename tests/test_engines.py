"""The one finite-host counter and the one block-assignment sum, checked
through every public density against the brute-force oracles."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from graphonlab.bipartite import (
    BipartiteGraph,
    BipartiteKernel,
    bip_exact_density,
    bip_exact_ind_density,
    bip_t,
    bip_t_ind,
    bip_t_inj,
)
from graphonlab.densities import t, t_ind, t_inj
from graphonlab.directed import (
    DirectedGraph,
    DirectedKernelQuadruplePlusP,
    DirectedKernelQuintuple,
    directed_t,
    directed_t_ind,
    directed_t_inj,
)
from graphonlab.exchangeable import prefix_law_exact
from graphonlab.graphon import StepGraphon, exact_density, exact_ind_density
from graphonlab.graphs import LabelledGraph, pair_bits_of

from oracles import (
    brute_bip,
    brute_bip_kernel_sum,
    brute_directed,
    brute_directed_kernel_sum,
    brute_kernel_sum,
    brute_t,
    brute_t_ind,
    brute_t_inj,
)

STATES = ((0, 0), (0, 1), (1, 0), (1, 1))
values = st.integers(0, 4).map(lambda x: Fraction(x, 4))  # 0 and 1 included


@st.composite
def simple_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return LabelledGraph.from_edges(n, [p for p in pairs if draw(st.booleans())])


@st.composite
def bipartite_graphs(draw, max_part):
    n1, n2 = draw(st.integers(1, max_part)), draw(st.integers(1, max_part))
    cells = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
    return BipartiteGraph.from_edges(n1, n2, [c for c in cells if draw(st.booleans())])


@st.composite
def directed_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    return DirectedGraph.from_edges(n, [a for a in arcs if draw(st.booleans())])


@st.composite
def measures(draw, max_m):
    raw = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_m))
    return tuple(Fraction(x, sum(raw)) for x in raw)


@st.composite
def step_graphons(draw):
    mu = draw(measures(3))
    m = len(mu)
    upper = {(a, b): draw(values) for a in range(m) for b in range(a, m)}
    return StepGraphon(mu, tuple(tuple(upper[min(a, b), max(a, b)] for b in range(m)) for a in range(m)))


@st.composite
def bipartite_kernels(draw):
    mu1, mu2 = draw(measures(3)), draw(measures(3))
    return BipartiteKernel(mu1, mu2, tuple(tuple(draw(values) for _ in mu2) for _ in mu1))


@st.composite
def pair_laws(draw, s):
    """The four matrices W00, W01, W10, W11 of a normalised, transpose
    symmetric pair law on s latent states."""
    law = {state: [[None] * s for _ in range(s)] for state in STATES}
    for a in range(s):
        for b in range(a, s):
            c = [draw(st.integers(0, 3)) for _ in STATES]
            if a == b:
                c[2] = c[1]
            if not sum(c):
                c[0] = 1
            for (x, y), ci in zip(STATES, c):
                law[x, y][a][b] = law[y, x][b][a] = Fraction(ci, sum(c))
    return [tuple(map(tuple, law[state])) for state in STATES]


@st.composite
def quintuples(draw):
    mu = draw(measures(2))
    flags = tuple(draw(st.integers(0, 1)) for _ in mu)
    return DirectedKernelQuintuple(mu, *draw(pair_laws(len(mu))), flags)


@st.composite
def quadruples(draw):
    mu = draw(measures(2))
    p = draw(values)
    return DirectedKernelQuadruplePlusP(mu, p, *draw(pair_laws(2 * len(mu))))


def kernel_law(kernel):
    return {state: kernel.pair_matrix(*state) for state in STATES}


@given(simple_graphs(4), simple_graphs(6))
@settings(max_examples=100, deadline=None)
def test_simple_host_counts(f, g):
    assert t(f, g) == brute_t(f, g)
    assert t_inj(f, g) == brute_t_inj(f, g)
    assert t_ind(f, g) == brute_t_ind(f, g)


@given(bipartite_graphs(3), bipartite_graphs(3))
@settings(max_examples=100, deadline=None)
def test_bipartite_host_counts(f, g):
    assert bip_t(f, g) == brute_bip(f, g)
    assert bip_t_inj(f, g) == brute_bip(f, g, injective=True)
    assert bip_t_ind(f, g) == brute_bip(f, g, injective=True, induced=True)


@given(directed_graphs(4), directed_graphs(6))
@settings(max_examples=80, deadline=None)
def test_directed_host_counts(f, g):
    assert directed_t(f, g) == brute_directed(f, g)
    assert directed_t_inj(f, g) == brute_directed(f, g, injective=True)
    assert directed_t_ind(f, g) == brute_directed(f, g, injective=True, induced=True)


@given(simple_graphs(4), step_graphons())
@settings(max_examples=100, deadline=None)
def test_simple_kernel_sums(f, w):
    assert exact_density(f, w) == brute_kernel_sum(f, w.mu, w.w)
    ind = exact_ind_density(f, w)
    assert ind == brute_kernel_sum(f, w.mu, w.w, induced=True)
    assert ind == prefix_law_exact(w, f.n).probability(pair_bits_of(f))


@given(bipartite_graphs(3), bipartite_kernels())
@settings(max_examples=100, deadline=None)
def test_bipartite_kernel_sums(f, w):
    assert bip_exact_density(f, w) == brute_bip_kernel_sum(f, w.mu1, w.mu2, w.w)
    assert bip_exact_ind_density(f, w) == brute_bip_kernel_sum(f, w.mu1, w.mu2, w.w, induced=True)


@given(directed_graphs(4), quintuples())
@settings(max_examples=100, deadline=None)
def test_quintuple_kernel_sums(f, w):
    law = kernel_law(w)
    assert directed_t(f, w) == brute_directed_kernel_sum(f, w.mu, w.loop_flags, law)
    assert directed_t_ind(f, w) == brute_directed_kernel_sum(f, w.mu, w.loop_flags, law, induced=True)


@given(directed_graphs(4), quadruples())
@settings(max_examples=80, deadline=None)
def test_quadruple_kernel_sums(f, w):
    states = range(2 * w.m)
    ext = [w.mu[s // 2] * (w.p if s % 2 else 1 - w.p) for s in states]
    flags = [s % 2 for s in states]
    law = kernel_law(w)
    assert directed_t(f, w) == brute_directed_kernel_sum(f, ext, flags, law)
    assert directed_t_ind(f, w) == brute_directed_kernel_sum(f, ext, flags, law, induced=True)
