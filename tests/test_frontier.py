"""The packed-word frontier search behind every backtracked host count.

densities._count_maps is checked against the recursive reference search
in oracles, fed the same tables by host_count (as ints, on one index
space), on simple and directed hosts of 60 to 200 vertices and bipartite
hosts of 1 to 130 per part: candidate sets span several uint64 words, and
part widths, directed loop domains and drawn vertex ranges start and end
mid-word. Each case runs with the default
block size and with blocks cut to a few cells, so partial maps are split
across strips and cuts at every level. A dense host bounds the memory a
search holds.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphonlab import densities
from graphonlab.densities import falling, host_count, t_ind
from graphonlab.graphs import LabelledGraph, pack_bits, word_ints

from oracles import reference_count_maps
from test_contract import _traced_peak
from test_engines import directed_graphs, simple_graphs

KINDS = [(False, False), (True, False), (True, True)]  # hom, injective, induced
BLOCKS = [densities.FRONTIER_CELLS, 7]

hosts = st.tuples(st.integers(60, 200), st.sampled_from([0.03, 0.1, 0.3]), st.integers(0, 2**32 - 1))


def patterns(max_n):
    """Simple patterns, and up to max_n vertices connected ones (a path
    through all), so no isolated vertex multiplies the reference's work."""
    small = simple_graphs(3)
    joined = simple_graphs(max_n).map(
        lambda f: LabelledGraph.from_edges(f.n, sorted({*f.edges(), *((i, i + 1) for i in range(1, f.n))})))
    return st.one_of(small, joined)


def mid_word_doms(draw, n: int, k: int, extra: list[np.ndarray]) -> list[np.ndarray]:
    """A domain per pattern vertex: all n vertices (one array), one of
    `extra`, or a drawn range [a, b) of at least 30 vertices."""
    every, out = np.arange(n), []
    for _ in range(k):
        a = draw(st.integers(0, n - 30))
        b = draw(st.integers(a + 30, n))
        out.append([every, every[a:b], *extra][draw(st.integers(0, 1 + len(extra)))])
    return out


def reference(parts, doms, tables, injective, adj) -> int:
    """reference_count_maps on one index space, vertex x of part p at bit
    p * stride + x, above every row and column of the parts before it: the
    domains as masks, and each table's rows as ints, complemented where
    flagged."""
    stride = max([max(len(t), 64 * t.shape[1]) for entries in tables.values() for t, _ in entries]
                 + [int(d[-1]) + 1 for d in doms if len(d)] + [1])
    masks = [sum(1 << (parts[u] * stride + int(x)) for x in dom) for u, dom in enumerate(doms)]
    ints = {}
    for (u, v), entries in tables.items():
        ints[u, v] = [{parts[u] * stride + x: (~r if negated else r) % (1 << 64 * table.shape[1]) << parts[v] * stride
                       for x, r in enumerate(word_ints(table))} for table, negated in entries]
    return reference_count_maps(masks, ints, injective, adj)


def check(args, cells: int, kinds=KINDS) -> None:
    """Every count of host_count(*args, injective, induced) by the frontier
    search (no plan fits) at this block size equals the reference's; a hom
    count host_count contracts equals it too."""
    with pytest.MonkeyPatch.context() as patch:
        want = {}
        patch.setattr(densities, "_count_maps", reference)
        patch.setattr(densities, "plan", lambda sizes, pairs: None)
        for kind in kinds:
            want[kind] = host_count(*args, *kind)
        patch.undo()
        assert host_count(*args, False, False) == want[False, False]
        patch.setattr(densities, "plan", lambda sizes, pairs: None)
        patch.setattr(densities, "FRONTIER_CELLS", cells)
        assert {kind: host_count(*args, *kind) for kind in kinds} == want


def random_matrix(n: int, p: float, seed: int, symmetric: bool, loops: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < p
    if symmetric:
        a = np.triu(a, 1)
        a |= a.T
    if not loops:
        np.fill_diagonal(a, False)
    return a


@pytest.mark.parametrize("cells", BLOCKS)
@given(patterns(4), hosts, st.data())
@settings(max_examples=25, deadline=None)
def test_simple_hosts(cells, f, host, data):
    n, p, seed = host
    words = pack_bits(random_matrix(n, min(p, 0.1) if f.n > 3 else p, seed, True, False))
    doms = [np.arange(n)] * f.n if data.draw(st.booleans()) else mid_word_doms(data.draw, n, f.n, [])
    check((f.rows, [0] * f.n, doms, {(0, 0): (words, words)}), cells, KINDS if f.n <= 3 else KINDS[:2])


@pytest.mark.parametrize("cells", BLOCKS)
@given(st.integers(1, 2), st.integers(1, 2), hosts, st.data())
@settings(max_examples=25, deadline=None)
def test_bipartite_hosts(cells, k1, k2, host, data):
    """A pattern of k1 + k2 vertices on a host of n1 + n2 vertices, each
    part drawn on its own and read over its own columns; every cross pair
    is drawn, but the 2 + 2 patterns hold the path a2 b1 a1 b2, so no
    isolated vertex multiplies the reference's work, and skip the (dense)
    induced count."""
    _, p, seed = host
    n1, n2 = data.draw(st.integers(1, 130)), data.draw(st.integers(1, 130))
    cross = np.random.default_rng(seed).random((n1, n2)) < p
    rows, cols = pack_bits(cross), pack_bits(cross.T)
    f = np.zeros((k1 + k2, k1 + k2), dtype=bool)
    f[:k1, k1:] = [[data.draw(st.booleans()) for _ in range(k2)] for _ in range(k1)]
    if k1 + k2 == 4:
        f[0, 2:] = f[1, 2] = True
    doms = [np.arange(n1)] * k1 + [np.arange(n2)] * k2
    args = word_ints(pack_bits(f | f.T)), [0] * k1 + [1] * k2, doms, {(0, 1): (rows, rows), (1, 0): (cols, cols)}
    check(args, cells, KINDS if k1 + k2 <= 3 else KINDS[:2])


@pytest.mark.parametrize("cells", BLOCKS)
@given(directed_graphs(3), hosts, st.data())
@settings(max_examples=25, deadline=None)
def test_directed_hosts(cells, f, host, data):
    """Looped pattern vertices range over the host's looped vertices,
    scattered across words; the others over all, the unlooped, or a
    drawn range."""
    n, p, seed = host
    a = random_matrix(n, p, seed, False, True)
    loops = np.flatnonzero(np.diagonal(a))
    others = mid_word_doms(data.draw, n, f.n, [np.flatnonzero(~np.diagonal(a))])
    doms = [loops if f.has_loop(u + 1) else dom for u, dom in zip(range(f.n), others)]
    check((f.rows, [0] * f.n, doms, {(0, 0): (pack_bits(a), pack_bits(a.T))}), cells)


def test_induced_triangles_on_a_dense_host_hold_bounded_blocks():
    """t_ind(K3) on G(1000, 1/2): about 500,000 ordered edges reach the
    last vertex, 8 MB as int64 pairs and 64 MB as candidate words if held
    at once; blocks of FRONTIER_CELLS keep the traced peak under 4 MB."""
    rng = np.random.default_rng(3)
    n = 1000
    a = np.triu(rng.random((n, n)) < 0.5, 1)
    a |= a.T
    g = LabelledGraph(n, pack_bits(a))
    value, peak = _traced_peak(t_ind, LabelledGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), g)
    assert peak < 4 * 2**20
    m = a.astype(np.float64)
    assert value * falling(n, 3) == int(((m @ m) * m).sum())
