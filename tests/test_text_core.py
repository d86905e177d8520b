"""The one text core of the edge-list files (simple, bipartite, directed):
round trips, the bulk and the line-by-line reader agreeing, and every
malformed line quoted in its InputError; kernel rows go through the same
line parser."""
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphonlab.bipartite import BipartiteGraph, BipartiteKernel
from graphonlab.directed import DirectedGraph, DirectedKernelQuintuple
from graphonlab.errors import InputError
from graphonlab.graphon import StepGraphon
from graphonlab.graphs import LabelledGraph, column_words, pack_bits, unpack_bits, word_edges, word_ints, word_table

from oracles import bit_loop_edges


@st.composite
def graphs(draw, kind):
    """A random graph of the kind, from edges given in random order (and,
    for a simple graph, random orientation)."""
    n1 = draw(st.integers(1, 10))
    n2 = draw(st.integers(1, 10)) if kind == "bipartite" else n1
    if kind == "simple":
        cells = [(u, v) for v in range(1, n1 + 1) for u in range(1, v)]
    else:
        cells = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    if kind == "simple":
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
        return LabelledGraph.from_edges(n1, edges)
    if kind == "bipartite":
        return BipartiteGraph.from_edges(n1, n2, edges)
    return DirectedGraph.from_edges(n1, edges)


def header(g) -> str:
    return f"{g.n1} {g.n2}" if isinstance(g, BipartiteGraph) else str(g.n)


KINDS = ["simple", "bipartite", "directed"]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_text_round_trip(kind, data):
    g = data.draw(graphs(kind))
    text = g.to_text()
    # the bulk writer prints exactly the edges of the pure-Python bit loop
    edges = [(u, v) for u, v in bit_loop_edges(g.rows) if u < v or kind != "simple"]
    assert g.edges() == edges
    assert text == f"{header(g)} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    assert type(g).from_text(text) == g


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_line_by_line_reader_agrees_with_bulk_reader(kind, data):
    g = data.draw(graphs(kind))
    text = g.to_text()
    variants = [
        text.replace("\n", "\r\n"),  # carriage returns: line by line
        text.replace("\n", "\n\n \t\n"),  # blank lines and blanks: still bulk
        "\n" + text.replace(" ", " +"),  # signed numbers: line by line
    ]
    for variant in variants:
        assert type(g).from_text(variant) == g


def test_rows_round_trip_through_boolean_matrix():
    a = np.random.default_rng(0).random((7, 70)) < 0.3
    words = pack_bits(a)
    assert words.dtype == np.dtype("<u8") and words.shape == (7, 2)
    assert np.array_equal(unpack_bits(words, 70), a)
    i, j = np.nonzero(a)
    assert np.array_equal(word_edges(words), np.column_stack([i, j]) + 1)


def rows_of(draw, n: int, width: int) -> list[int]:
    return draw(st.lists(st.just(0) | st.integers(0, (1 << width) - 1), min_size=n, max_size=n))


def words_of(rows: list[int], width: int):
    """The WORD table of bitmask rows, as a directed graph's constructor packs them."""
    return word_table(rows, (len(rows), width), False)


@given(st.integers(1, 12), st.integers(1, 200), st.data())
@settings(max_examples=60, deadline=None)
def test_column_rows_is_the_transpose(n, width, data):
    """column_words from the swapped edges equals the packed transpose,
    rows with no edges, widths across word boundaries and width != row
    count included."""
    words = words_of(rows_of(data.draw, n, width), width)
    assert np.array_equal(column_words(words, width), pack_bits(unpack_bits(words, width).T))


@given(st.integers(0, 12), st.integers(1, 200), st.data())
@settings(max_examples=80, deadline=None)
def test_row_edges_is_the_bit_loop(n, width, data):
    """word_edges gives the edges of the pure-Python bit loop, in its
    order: widths off a multiple of 8 and of 64, rows of several words and
    rows with no edges included."""
    rows = rows_of(data.draw, n, width)
    got = word_edges(words_of(rows, width))
    assert got.dtype == np.int64 and got.shape == (len(got), 2)
    assert got.tolist() == [list(e) for e in bit_loop_edges(rows)]


@given(st.integers(0, 12), st.integers(1, 200), st.data())
@settings(max_examples=60, deadline=None)
def test_words_of_rows_are_python_shifts(n, width, data):
    """Word w of row i of the packed rows is rows[i] >> 64 w masked to 64
    bits, one word per 64 columns begun; word_ints reads the ints back."""
    rows = rows_of(data.draw, n, width)
    got = words_of(rows, width)
    assert got.dtype == np.dtype("<u8") and got.shape == (n, (width + 63) // 64)
    assert got.tolist() == [[r >> 64 * w & (1 << 64) - 1 for w in range((width + 63) // 64)] for r in rows]
    assert word_ints(got) == tuple(rows)


def test_many_vertices_without_edges():
    g = LabelledGraph.from_text("50000 0\n")
    assert g.n == 50000 and g.words.shape == (50000, 782) and not g.words.any()
    assert g.to_text() == "50000 0\n"


# (kind, malformed file, the line its error must quote)
MALFORMED = [
    ("simple", "3 1\n2 2\n", "2 2"),  # self edge, caught as u >= v
    ("simple", "3 2\n1 2\n1 2\n", "1 2"),  # duplicate
    ("simple", "3 1\n1 4\n", "1 4"),  # out of range
    ("simple", "3 1\n0 2\n", "0 2"),
    ("simple", "3 1\n1 99999999999999999999\n", "1 99999999999999999999"),  # beyond int64
    ("simple", "3 1\n3 1\n", "3 1"),  # u > v
    ("simple", "3 2\n1 2\n", "3 2"),  # wrong edge count: the header is quoted
    ("simple", "3 1\n1 2\n1 3\n", "3 1"),
    ("simple", "3 1\n1 x\n", "1 x"),  # not a number
    ("simple", "3 1\n1 2x\n", "1 2x"),
    ("simple", "3 1\n1/2 3\n", "1/2 3"),  # a rational is not a vertex
    ("simple", "3 1\n1.0 3\n", "1.0 3"),
    ("simple", "3 1\n1 2 3\n", "1 2 3"),  # wrong token count
    ("simple", "3 1\n1\n", "1"),
    ("simple", "3\n", "3"),
    ("bipartite", "2 3 2\n1 2\n1 2\n", "1 2"),
    ("bipartite", "2 3 1\n3 1\n", "3 1"),  # u beyond the first part
    ("bipartite", "2 3 1\n1 4\n", "1 4"),  # v beyond the second part
    ("bipartite", "2 3 2\n1 1\n", "2 3 2"),
    ("bipartite", "2 3 1\n1 1/2\n", "1 1/2"),
    ("bipartite", "2 3 1\n1 1 1\n", "1 1 1"),
    ("directed", "3 2\n2 1\n2 1\n", "2 1"),
    ("directed", "3 1\n4 1\n", "4 1"),
    ("directed", "3 1\n1 0\n", "1 0"),
    ("directed", "3 1\n1 -2\n", "1 -2"),
    ("directed", "3 0\n1 2\n", "3 0"),
    ("directed", "3 1\n1 2.5\n", "1 2.5"),
    ("directed", "3 1\n1 2 2\n", "1 2 2"),
]

FROM_TEXT = {"simple": LabelledGraph, "bipartite": BipartiteGraph, "directed": DirectedGraph}


@pytest.mark.parametrize("kind, text, line", MALFORMED)
def test_malformed_line_is_quoted(kind, text, line):
    with pytest.raises(InputError) as err:
        FROM_TEXT[kind].from_text(text)
    assert repr(line) in str(err.value)


@pytest.mark.parametrize("build, edge", [
    (lambda: LabelledGraph.from_edges(3, [(1, 2), (2, 2)]), "(2,2)"),  # self edge
    (lambda: LabelledGraph.from_edges(3, [(1, 2), (2, 1)]), "(2,1)"),  # duplicate, reversed
    (lambda: LabelledGraph.from_edges(3, [(1, 3), (1, 3)]), "(1,3)"),
    (lambda: LabelledGraph.from_edges(3, [(1, 2), (4, 1)]), "(4,1)"),
    (lambda: BipartiteGraph.from_edges(1, 2, [(1, 2), (1, 2)]), "(1,2)"),
    (lambda: BipartiteGraph.from_edges(1, 2, [(1, 3)]), "(1,3)"),
    (lambda: DirectedGraph.from_edges(2, [(1, 1), (1, 1)]), "(1,1)"),
    (lambda: DirectedGraph.from_edges(2, [(0, 1)]), "(0,1)"),
])
def test_bad_edge_is_named(build, edge):
    with pytest.raises(InputError, match=r"^edge " + re.escape(edge)):
        build()


def test_first_bad_edge_is_named():
    with pytest.raises(InputError, match=r"'1 3' repeats"):
        LabelledGraph.from_text("4 4\n1 2\n1 3\n1 3\n1 9\n")
    with pytest.raises(InputError, match=r"'1 9' out of range"):
        LabelledGraph.from_text("4 4\n1 2\n1 3\n1 9\n1 3\n")


def test_loops_and_both_directions_are_directed_edges():
    g = DirectedGraph.from_text("2 3\n1 1\n1 2\n2 1\n")
    assert g.edges() == [(1, 1), (1, 2), (2, 1)]


# (kernel class, malformed file, the line its error must quote)
MALFORMED_KERNELS = [
    (StepGraphon, "2\n0.5 0.5\n0.2 0.6\n0.6\n", "0.6"),  # short matrix row
    (StepGraphon, "2\n0.5 0.5\n0.2 0.6 0.1\n0.6 0.4\n", "0.2 0.6 0.1"),
    (StepGraphon, "2\n0.5 0.5 0\n0.2 0.6\n0.6 0.4\n", "0.5 0.5 0"),  # measures
    (StepGraphon, "1\n1\nx\n", "x"),
    (StepGraphon, "1.5\n1\n1\n", "1.5"),  # block count must be an integer
    (BipartiteKernel, "1 2\n1\n1/2 1/2\n0.2\n", "0.2"),
    (BipartiteKernel, "1 2\n1\n1/2\n0.2 0.3\n", "1/2"),
    (DirectedKernelQuintuple, "1\n1\nW00\n0 0\nW01\n0.5\nW10\n0.5\nW11\n0\nw\n0\n", "0 0"),
    (DirectedKernelQuintuple, "1\n1\nW00\n0\nW01\n0.5\nW10\n0.5\nW11\n0\nw\n0 1\n", "0 1"),
]


@pytest.mark.parametrize("cls, text, line", MALFORMED_KERNELS)
def test_malformed_kernel_row_is_quoted(cls, text, line):
    with pytest.raises(InputError) as err:
        cls.from_text(text)
    assert repr(line) in str(err.value)


def test_kernel_rows_are_exact_rationals():
    w = StepGraphon.from_text("2\n1/3 2/3\n0.2 1/7\n1/7 0.4\n")
    assert w.mu == (Fraction(1, 3), Fraction(2, 3))
    assert w.w[0] == (Fraction(1, 5), Fraction(1, 7))
