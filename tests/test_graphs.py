import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphonlab import graphs
from graphonlab.bipartite import BipartiteGraph
from graphonlab.directed import DirectedGraph
from graphonlab.errors import CapacityError, InputError
from graphonlab.graphs import (
    LabelledGraph,
    canonicalize,
    disjoint_union,
    enumerate_unlabelled,
    graph_from_bool_matrix,
    graph_from_pair_bits,
    induced_pattern,
    is_isomorphic,
    isomorphism_class,
    pack_bits,
    pair_bits_of,
    pair_code_classes,
    random_relabel,
    restrict_prefix,
    sample_with_replacement,
    sample_without_replacement,
    unpack_bits,
)
from graphonlab.rng import stream

from conftest import all_labelled_graphs
from oracles import brute_canonical, burnside_class_count, exact_sample_law


class TestConstruction:
    def test_rejects_self_edge(self):
        with pytest.raises(InputError):
            LabelledGraph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            LabelledGraph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            LabelledGraph.from_edges(2, [(1, 3)])

    def test_edges_sorted(self):
        g = LabelledGraph.from_edges(4, [(3, 4), (1, 2)])
        assert g.edges() == [(1, 2), (3, 4)]
        assert g.num_edges == 2

    def test_text_roundtrip(self):
        g = LabelledGraph.path(5)
        assert LabelledGraph.from_text(g.to_text()) == g

    def test_text_rejects_unsorted_edge(self):
        with pytest.raises(InputError):
            LabelledGraph.from_text("2 1\n2 1\n")

    def test_text_rejects_wrong_count(self):
        with pytest.raises(InputError):
            LabelledGraph.from_text("3 2\n1 2\n")


    def test_vertex_lookups_check_their_vertices(self):
        """has_edge and degree take vertices 1..n (1..n1 and 1..n2 for a
        bipartite graph): row 0 is not read as the last row, nor a column
        past n2 from the padding bits of a word."""
        simple = LabelledGraph.from_edges(3, [(3, 1)])
        assert simple.has_edge(3, 1) and simple.degree(3) == 1
        for graph, u, v, name in [(simple, 0, 1, "0 out of range 1..3"), (simple, 4, 1, "4 out of range 1..3"),
                                  (simple, 1, 0, "0 out of range 1..3"),
                                  (BipartiteGraph.complete(2, 3), 2, 4, "4 out of range 1..3"),
                                  (BipartiteGraph.complete(2, 3), 3, 1, "3 out of range 1..2"),
                                  (DirectedGraph.complete(3), 3, 4, "4 out of range 1..3")]:
            with pytest.raises(InputError, match=f"vertex id {name}"):
                graph.has_edge(u, v)
        for u in (0, 4):
            with pytest.raises(InputError, match=f"vertex id {u} out of range 1..3"):
                simple.degree(u)


class TestInducedPattern:
    def test_identity_relabelling(self, k3):
        assert induced_pattern(k3, (1, 2, 3)) == k3

    def test_repeat_drops_edges(self, k3):
        got = induced_pattern(k3, (1, 1, 2))
        assert got.edges() == [(1, 3), (2, 3)]

    def test_reversed_edge(self, edge):
        assert induced_pattern(edge, (2, 1)) == edge

    def test_out_of_range(self, k3):
        with pytest.raises(InputError):
            induced_pattern(k3, (1, 4))


class TestSampling:
    def test_without_replacement_complete(self, k3):
        rng = stream(0)
        assert all(sample_without_replacement(k3, 2, rng).num_edges == 1 for _ in range(50))
        assert all(sample_without_replacement(k3, 3, rng) == k3 for _ in range(20))

    def test_without_replacement_rejects_large_k(self, k3):
        with pytest.raises(InputError):
            sample_without_replacement(k3, 4, stream(0))

    def test_with_replacement_single_vertex(self):
        g = LabelledGraph.empty(1)
        assert sample_with_replacement(g, 4, stream(0)).num_edges == 0

    def test_with_replacement_empty_host(self):
        g = LabelledGraph.empty(5)
        assert sample_with_replacement(g, 3, stream(0)).num_edges == 0

    def test_path_without_replacement_edge_probability(self, p3):
        rng = stream(1)
        n = 20000
        hits = sum(sample_without_replacement(p3, 2, rng).num_edges for _ in range(n))
        sigma = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(hits / n - 2 / 3) <= 3 * sigma

    @pytest.mark.parametrize("host,k", [(LabelledGraph.complete(3), 2), (LabelledGraph.path(4), 3)])
    def test_with_replacement_matches_exact_law(self, host, k):
        exact = exact_sample_law(host, k)
        n = 100_000
        rng = stream(7)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(n):
            rows = sample_with_replacement(host, k, rng).rows
            counts[rows] = counts.get(rows, 0) + 1
        sigma = 1 / (2 * math.sqrt(n))
        for rows, p in exact.items():
            assert abs(counts.get(rows, 0) / n - float(p)) <= 3 * sigma
        assert set(counts) <= set(exact)

    def test_random_relabel_fixes_transitive_graphs(self, k3, edge):
        rng = stream(2)
        assert all(random_relabel(k3, rng) == k3 for _ in range(20))
        assert all(random_relabel(edge, rng) == edge for _ in range(20))

    def test_random_relabel_path_center(self, p3):
        rng = stream(3)
        n = 9000
        hits = sum(1 for _ in range(n) if random_relabel(p3, rng).degree(2) == 2)
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        assert abs(hits / n - 1 / 3) <= 3 * sigma

    def test_seed_reproducibility(self, p3):
        a = [sample_with_replacement(p3, 3, stream(11, 4)).rows for _ in range(5)]
        b = [sample_with_replacement(p3, 3, stream(11, 4)).rows for _ in range(5)]
        assert a == b

    def test_without_replacement_lands_in_induced_family(self):
        host = LabelledGraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)])
        family = set()
        for verts in itertools.permutations(range(1, 7), 3):
            family.add(canonicalize(induced_pattern(host, verts)))
        rng = stream(5)
        for _ in range(300):
            assert canonicalize(sample_without_replacement(host, 3, rng)) in family


class TestCanonical:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_invariance_exhaustive(self, n):
        for g in all_labelled_graphs(n):
            base = canonicalize(g)
            for perm in itertools.permutations(range(1, n + 1)):
                assert canonicalize(g.permuted(perm)) == base

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariance_random_n5(self, data):
        n = 5
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = [p for p in pairs if data.draw(st.booleans())]
        perm = data.draw(st.permutations(list(range(1, n + 1))))
        g = LabelledGraph.from_edges(n, edges)
        assert canonicalize(g) == canonicalize(g.permuted(list(perm)))

    def test_idempotent(self):
        for g in all_labelled_graphs(4):
            c = canonicalize(g)
            assert canonicalize(c.canon) == c

    def test_known_isomorphic_pairs(self):
        a = LabelledGraph.from_edges(3, [(1, 2), (2, 3)])
        b = LabelledGraph.from_edges(3, [(2, 1), (1, 3)])
        assert canonicalize(a) == canonicalize(b)
        assert is_isomorphic(
            LabelledGraph.from_edges(3, [(1, 2)]), LabelledGraph.from_edges(3, [(2, 3)])
        )
        k3 = LabelledGraph.complete(3)
        assert canonicalize(k3).canon == k3

    def test_cap(self):
        with pytest.raises(CapacityError, match=r"capped at 8 vertices, got 9"):
            canonicalize(LabelledGraph.empty(9))

    def test_empty_and_complete_at_the_cap(self):
        assert canonicalize(LabelledGraph.empty(8)).canon == LabelledGraph.empty(8)
        assert canonicalize(LabelledGraph.complete(8)).canon == LabelledGraph.complete(8)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_least_code_over_all_relabellings(self, data):
        n = data.draw(st.integers(0, 6))
        g = graph_from_pair_bits(n, data.draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))
        assert canonicalize(g).canon == brute_canonical(g)

    @pytest.mark.parametrize("n, edges", [
        (7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7), (1, 4)]),
        (7, [(1, 2), (1, 3), (2, 3), (4, 5), (6, 7)]),
        (8, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 8), (8, 4), (1, 5), (2, 8)]),
    ])
    def test_least_code_at_seven_and_eight_vertices(self, n, edges):
        g = LabelledGraph.from_edges(n, edges)
        assert canonicalize(g).canon == brute_canonical(g)


class TestEnumeration:
    def test_counts_match_burnside(self):
        per_level = {1: 1}
        for n in range(2, 8):
            per_level[n] = len(enumerate_unlabelled(n)) - len(enumerate_unlabelled(n - 1))
        for n in range(1, 8):
            assert per_level[n] == burnside_class_count(n)
        assert per_level[7] == 1044

    def test_pinned_up_to_seven_vertices(self):
        # sha256 of (n, canonical rows) of every graph, in order, as the earlier
        # enumeration by one-vertex augmentation produced them
        graphs = enumerate_unlabelled(7).graphs
        digest = hashlib.sha256(repr([(g.n, g.canon.rows) for g in graphs]).encode()).hexdigest()
        assert len(graphs) == 1252
        assert digest == "b2f0f4c0d21d71104ff22af0c7ce4f9aade6f1b10dbe89751a55d329e2102f76"

    def test_known_small_counts(self):
        assert len(enumerate_unlabelled(1)) == 1
        assert len(enumerate_unlabelled(3)) == 7
        assert len(enumerate_unlabelled(4)) == 18

    def test_deterministic_order(self):
        e = enumerate_unlabelled(4)
        keys = [(g.n, g.code) for g in e.graphs]
        assert keys == sorted(keys)
        assert e.graphs[0].canon == LabelledGraph.empty(1)

    def test_no_duplicates(self):
        e = enumerate_unlabelled(5)
        assert len(set(e.graphs)) == len(e.graphs)

    def test_one_canonical_form_per_class(self, monkeypatch):
        """One canonical form per class, read from the class's codes: each
        class's relabelling table is built once, by the class scan."""
        calls, tables = [], []
        canonical, table = graphs.canonicalize, graphs._relabelled_edges
        monkeypatch.setattr(graphs, "canonicalize", lambda g, codes=None: calls.append(g) or canonical(g, codes))
        monkeypatch.setattr(graphs, "_relabelled_edges", lambda g: tables.append(g) or table(g))
        enumerate_unlabelled.cache_clear()
        try:
            e = enumerate_unlabelled(5)
            assert len(e) == len(calls) == len(tables) == 52
        finally:
            enumerate_unlabelled.cache_clear()
        monkeypatch.undo()
        assert all(canonicalize(g.canon) == g for g in e.graphs)

    def test_cap(self):
        with pytest.raises(CapacityError, match=r"enumeration capped at 7 vertices, got 8"):
            enumerate_unlabelled(8)

    def test_index_of(self):
        e = enumerate_unlabelled(3)
        for i, g in enumerate(e.graphs):
            assert e.index_of(g) == i
        assert e.weight(0) == Fraction(1, 2)


class TestPairCodeClasses:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_all_codes_partition_into_the_unlabelled_graphs(self, k):
        classes = list(pair_code_classes(k, range(1 << k * (k - 1) // 2)))
        assert len(classes) == burnside_class_count(k)
        assert sorted(c for members in classes for c in members) == list(range(1 << k * (k - 1) // 2))
        for members in classes:
            assert members == isomorphism_class(graph_from_pair_bits(k, members[0]))
            assert members[0] == min(members)  # a class first meets an increasing scan at its least code

    def test_first_appearance_order_and_repeats(self):
        # codes 1, 2, 4 are the three one-edge graphs on [3]; 7 is the triangle
        classes = list(pair_code_classes(3, [7, 2, 1, 7, 0, 4]))
        assert classes == [[7], isomorphism_class(graph_from_pair_bits(3, 2)), [0]]
        assert sorted(classes[1]) == [1, 2, 4] and classes[1][0] == 2

    def test_cap_names_the_size(self):
        with pytest.raises(CapacityError, match=r"isomorphism classes capped at 7 vertices, got 8"):
            next(pair_code_classes(8, [0]))


class TestHelpers:
    def test_pair_bits_roundtrip(self):
        for g in all_labelled_graphs(4):
            assert graph_from_pair_bits(4, pair_bits_of(g)) == g

    def test_restrict_prefix(self):
        g = LabelledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert restrict_prefix(g, 3) == LabelledGraph.path(3)
        with pytest.raises(InputError):
            restrict_prefix(g, 5)

    def test_disjoint_union(self, edge, k3):
        u = disjoint_union([edge, k3])
        assert u.n == 5
        assert u.num_edges == 4
        assert not any(u.has_edge(a, b) for a in (1, 2) for b in (3, 4, 5))

    def test_graph_from_bool_matrix(self):
        rng = stream(9)
        a = rng.random((7, 7)) < 0.4
        a = np.triu(a, 1)
        a = a | a.T
        g = graph_from_bool_matrix(a)
        for i in range(7):
            for j in range(7):
                assert g.has_edge(i + 1, j + 1) == bool(a[i, j])

    @pytest.mark.parametrize("shape", [(3, 0), (0, 5), (4, 9), (2, 63), (2, 64), (2, 65), (3, 129)])
    def test_pack_rows_roundtrip(self, shape):
        a = stream(4).random(shape) < 0.5
        words = pack_bits(a)
        assert words.dtype == np.dtype("<u8") and words.shape == (shape[0], (shape[1] + 63) // 64)
        assert (unpack_bits(words, shape[1]) == a).all() and unpack_bits(words, shape[1]).shape == shape
