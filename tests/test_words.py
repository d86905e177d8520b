"""Every host is its packed words.

The direct constructors check the bitmask rows they are given, complete
and empty make the checks from_edges makes, every writer leaves the bits
past a row's last column clear, equal graphs from different writers are
equal values, and the densities of all three kinds agree with the
brute-force oracles at sizes around the word boundaries."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphonlab.bipartite import (BipartiteGraph, BipartiteKernel, bip_t, bip_t_ind, bip_t_inj,
                                  sample_bip_w_random)
from graphonlab.densities import t, t_ind, t_inj
from graphonlab.directed import (DirectedGraph, directed_t, directed_t_ind, directed_t_inj, sample_directed,
                                 tournament_kernel)
from graphonlab.errors import CapacityError, InputError
from graphonlab.graphon import StepGraphon, sample_w_random
from graphonlab.graphs import WORD, LabelledGraph, column_words, graph_from_pair_bits, restrict_prefix, unpack_bits

from oracles import brute_bip, brute_directed, brute_t, brute_t_ind, brute_t_inj

SIZES = [63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize("build, message", [
    (lambda: LabelledGraph(3, (2, 0, 0)), "row 1 differs from column 1"),  # edge (1, 2) one way only
    (lambda: LabelledGraph(3, (2, 1, 4)), "row 3 has a loop"),
    (lambda: LabelledGraph(2, (32, 0)), "row 1 has a bit outside columns 1..2"),
    (lambda: LabelledGraph(3, (0, 0)), "3 rows takes 3 bitmask rows, got 2"),
    (lambda: DirectedGraph(2, (128, 0)), "row 1 has a bit outside columns 1..2"),
    (lambda: DirectedGraph(2, (0, -1)), "row 2 has a bit outside columns 1..2"),
    (lambda: DirectedGraph(2, (1,)), "2 rows takes 2 bitmask rows, got 1"),
    (lambda: BipartiteGraph(2, 2, (512, 0)), "row 1 has a bit outside columns 1..2"),
    (lambda: BipartiteGraph(2, 3, (0, 8)), "row 2 has a bit outside columns 1..3"),
    (lambda: BipartiteGraph(2, 3, (0, 0, 0)), "2 rows takes 2 bitmask rows, got 3"),
    (lambda: LabelledGraph(2, np.array([[32], [0]], dtype=WORD)), "row 1 has a bit outside columns 1..2"),
    (lambda: LabelledGraph(3, np.array([[2], [0], [0]], dtype=WORD)), "row 1 differs from column 1"),
    (lambda: LabelledGraph(3, np.array([[0], [0], [4]], dtype=WORD)), "row 3 has a loop"),
    (lambda: LabelledGraph(3, np.array([[0], [0]], dtype=WORD)), "not a WORD table of 3 rows over 3 columns"),
    (lambda: LabelledGraph(2, np.array([[2], [1]], dtype=np.int64)), "not a WORD table"),
    (lambda: DirectedGraph(65, np.zeros((65, 2), dtype=WORD) | np.uint64(4)), "row 1 has a bit outside columns 1..65"),
    (lambda: BipartiteGraph(1, 2, np.array([[4]], dtype=WORD)), "row 1 has a bit outside columns 1..2"),
])
def test_direct_constructor_checks_its_rows(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_direct_constructor_packs_good_rows():
    assert LabelledGraph(3, (2, 1, 0)) == LabelledGraph.from_edges(3, [(1, 2)])
    assert DirectedGraph(2, (3, 0)) == DirectedGraph.from_edges(2, [(1, 1), (1, 2)])
    assert BipartiteGraph(2, 3, (4, 1)) == BipartiteGraph.from_edges(2, 3, [(1, 3), (2, 1)])
    assert LabelledGraph(0, ()).n == 0  # a pattern on no vertices, as pair-code graphs allow
    assert DirectedGraph(2, np.array([[3], [0]], dtype=WORD)) == DirectedGraph(2, (3, 0))


def test_a_word_table_given_is_copied():
    """The caller's array, and any writable base under it, cannot change the graph."""
    base = np.array([[2, 0], [1, 0]], dtype=WORD)
    g = LabelledGraph(2, base[:, :1])
    key = hash(g)
    base[:] = 0
    assert base.flags.writeable and g.num_edges == 1 and hash(g) == key and not g.words.flags.writeable


def test_edge_and_degree_counts_leave_rows_unbuilt():
    g = LabelledGraph.from_edges(130, [(1, 2), (1, 100), (64, 65), (129, 130)])
    d = DirectedGraph.from_edges(70, [(1, 1), (1, 70), (70, 1)])
    assert (g.num_edges, g.degree(1), g.degree(130), g.degree(3)) == (4, 2, 1, 0)
    assert (d.num_edges, BipartiteGraph.complete(3, 70).num_edges) == (3, 210)
    assert "rows" not in vars(g) and "rows" not in vars(d)


@pytest.mark.parametrize("build", [
    lambda: LabelledGraph.complete(0), lambda: LabelledGraph.empty(0),
    lambda: BipartiteGraph.complete(0, 3), lambda: BipartiteGraph.empty(0, 3),
    lambda: BipartiteGraph.complete(3, 0), lambda: BipartiteGraph.empty(3, 0),
])
def test_complete_and_empty_need_a_vertex_per_part(build):
    with pytest.raises(InputError, match="vertex count must be >= 1"):
        build()


@pytest.mark.parametrize("build", [
    lambda: LabelledGraph.complete(70000), lambda: LabelledGraph.empty(70000),
    lambda: BipartiteGraph.complete(70000, 1), lambda: BipartiteGraph.empty(70000, 1),
    lambda: BipartiteGraph.complete(1, 70000),
])
def test_complete_and_empty_are_capped(build):
    with pytest.raises(CapacityError, match="got 70000"):
        build()


def test_equal_graphs_from_every_writer_are_one_value():
    k4 = LabelledGraph.complete(4)
    same = [LabelledGraph.from_edges(4, [(i, j) for j in range(1, 5) for i in range(1, j)]),
            LabelledGraph.from_text(k4.to_text()), LabelledGraph(4, k4.rows),
            restrict_prefix(LabelledGraph.complete(70), 4), graph_from_pair_bits(4, 63)]
    assert all(g == k4 and hash(g) == hash(k4) for g in same)
    assert len({k4: 1, **{g: 2 for g in same}}) == 1
    assert k4 != LabelledGraph.empty(4) and k4 != DirectedGraph(4, k4.rows)


def test_a_hash_reads_the_words_in_place():
    """Hashing an 8,000-vertex host (an 8 MB table) copies no table, and
    equal graphs of each kind, from different writers, hash alike."""
    g = LabelledGraph.from_edges(8000, [(1, 2), (5, 8000)])
    tracemalloc.start()
    try:
        hash(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.words.nbytes == 8_000_000 and peak < 1 << 20, peak
    d, b = DirectedGraph.from_edges(70, [(1, 1), (70, 2)]), BipartiteGraph.from_edges(3, 70, [(3, 70)])
    for h, same in [(g, LabelledGraph(8000, g.rows)), (d, DirectedGraph(70, d.rows)), (b, BipartiteGraph(3, 70, b.rows))]:
        assert hash(h) == hash(same) == hash(type(h).from_text(h.to_text()))


def clear_past(words: np.ndarray, width: int) -> bool:
    """One word per 64 columns begun, and no bit at or past column `width`."""
    return words.shape[1] == (width + 63) // 64 and not unpack_bits(words, 64 * words.shape[1])[:, width:].any()


@given(st.sampled_from(SIZES), st.sampled_from(SIZES), st.integers(1, 129), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_every_writer_leaves_the_padding_clear(n, n2, m, seed):
    """Parse, from_edges, complete, empty, restrict_prefix, the transpose
    and the three samplers, on every kind, at widths around 64 and 128."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 0.1, 1)
    g = LabelledGraph.from_edges(n, [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(a))])
    arcs = np.argwhere(rng.random((n, n)) < 0.1) + 1
    d = DirectedGraph.from_edges(n, arcs.tolist())
    cells = np.argwhere(rng.random((n, n2)) < 0.1) + 1
    b = BipartiteGraph.from_edges(n, n2, cells.tolist())
    written = [
        (g.words, n), (LabelledGraph.from_text(g.to_text()).words, n), (LabelledGraph.complete(n).words, n),
        (LabelledGraph.empty(n).words, n), (restrict_prefix(LabelledGraph.complete(n), min(m, n)).words, min(m, n)),
        (d.words, n), (DirectedGraph.from_text(d.to_text()).words, n), (column_words(d.words, n), n),
        (b.words, n2), (BipartiteGraph.from_text(b.to_text()).words, n2), (column_words(b.words, n2), n),
        (BipartiteGraph.complete(n, n2).words, n2), (BipartiteGraph.empty(n, n2).words, n2),
        (sample_w_random(StepGraphon((1,), ((1,),)), n, rng).words, n),
        (sample_directed(tournament_kernel(), n, rng).words, n),
        (sample_bip_w_random(BipartiteKernel.constant(1), n, n2, rng).words, n2),
    ]
    assert all(clear_past(words, width) for words, width in written)
    assert LabelledGraph.complete(n).num_edges == n * (n - 1) // 2
    assert BipartiteGraph.complete(n, n2).num_edges == n * n2


@pytest.mark.parametrize("n", SIZES)
@given(st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=2, deadline=None)
def test_densities_at_word_boundaries(n, seed, data):
    """t, t_inj and t_ind of two-vertex patterns of each kind on hosts of
    63 to 129 vertices (bipartite: n x n2, n2 drawn from the same sizes):
    candidate rows of one, two and three words, complements masked to the
    width, and a part-2 width that differs from part 1's."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.random((n, n)) < 0.3, 1)
    g = LabelledGraph.from_edges(n, [(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(a))])
    f = data.draw(st.sampled_from([LabelledGraph.complete(2), LabelledGraph.empty(2)]))
    assert (t(f, g), t_inj(f, g), t_ind(f, g)) == (brute_t(f, g), brute_t_inj(f, g), brute_t_ind(f, g))

    d = DirectedGraph.from_edges(n, (np.argwhere(rng.random((n, n)) < 0.3) + 1).tolist())
    fd = DirectedGraph.from_edges(2, [arc for arc in [(1, 1), (1, 2), (2, 1), (2, 2)] if data.draw(st.booleans())])
    assert (directed_t(fd, d), directed_t_inj(fd, d), directed_t_ind(fd, d)) == tuple(
        brute_directed(fd, d, *kind) for kind in [(False, False), (True, False), (True, True)])

    n2 = data.draw(st.sampled_from(SIZES))
    b = BipartiteGraph.from_edges(n, n2, (np.argwhere(rng.random((n, n2)) < 0.3) + 1).tolist())
    fb = data.draw(st.sampled_from([BipartiteGraph.complete(1, 1), BipartiteGraph.empty(1, 1)]))
    assert (bip_t(fb, b), bip_t_inj(fb, b), bip_t_ind(fb, b)) == tuple(
        brute_bip(fb, b, *kind) for kind in [(False, False), (True, False), (True, True)])


def edge_list_text(sizes: list[int], edges) -> str:
    """The edge-list file as %-formatting writes it: the header, then 'u v'
    for each edge in row-major order."""
    edges = sorted(edges)
    return f"{' '.join(map(str, sizes))} {len(edges)}\n" + "".join("%d %d\n" % e for e in edges)


def random_pairs(n: int, n2: int, m: int, seed: int) -> set[tuple[int, int]]:
    """Up to m distinct 1-based pairs in [1, n] x [1, n2], with the four corners."""
    rng = np.random.default_rng(seed)
    pairs = zip(rng.integers(1, n + 1, m).tolist(), rng.integers(1, n2 + 1, m).tolist())
    return {*pairs, (1, 1), (1, n2), (n, 1), (n, n2)}


@pytest.mark.parametrize("n", [9, 10, 99, 100, 101, 999, 1000, 3000])
def test_text_of_simple_and_directed_graphs_is_their_edge_list(n):
    """Across the digit widths and, at 3,000 vertices, over two row blocks,
    the second of which a simple graph reads from its diagonal's word on."""
    arcs = random_pairs(n, n, min(n * n // 3, 20000), n)
    assert DirectedGraph.from_edges(n, arcs).to_text() == edge_list_text([n], arcs)
    pairs = {(min(u, v), max(u, v)) for u, v in arcs if u != v}
    assert LabelledGraph.from_edges(n, pairs).to_text() == edge_list_text([n], pairs)


@pytest.mark.parametrize("n1, n2", [(9, 10), (10, 9), (99, 100), (100, 99), (1, 65536), (65536, 1), (3000, 2999)])
def test_text_of_bipartite_graphs_is_their_edge_list(n1, n2):
    cells = random_pairs(n1, n2, min(n1 * n2 // 3, 20000), n1 + n2)
    assert BipartiteGraph.from_edges(n1, n2, cells).to_text() == edge_list_text([n1, n2], cells)


def test_text_of_an_empty_graph_is_its_header():
    assert LabelledGraph(0, ()).to_text() == "0 0\n"
    assert BipartiteGraph.empty(3, 70).to_text() == "3 70 0\n"


def test_text_of_a_large_sparse_host_holds_no_int_per_endpoint():
    """A 20,000-vertex host of some 100,000 edges: a traced peak within three
    times the text and 2 MiB (%-formatting a tuple of every endpoint took
    about eleven times the text)."""
    g = LabelledGraph.from_edges(20000, {(min(u, v), max(u, v)) for u, v in random_pairs(20000, 20000, 100000, 5)
                                         if u != v})
    tracemalloc.start()
    try:
        text = g.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges > 99000 and peak <= 3 * len(text) + (2 << 20), (peak, len(text))
