import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphonlab.densities import (
    DensityVector,
    disjoint_union_density,
    hoeffding_halfwidth,
    ind_from_inj,
    inj_from_ind,
    mc_containment_hits,
    mc_t,
    metric_d,
    sampling_bound_check,
    supergraphs,
    t,
    t_ind,
    t_inj,
    tau_plus,
    tau_vector,
)
from graphonlab.errors import CapacityError, InputError
from graphonlab.graphs import LabelledGraph, canonicalize, enumerate_unlabelled, graph_from_bool_matrix
from graphonlab.rng import stream

from conftest import all_labelled_graphs
from oracles import brute_containment_hits, brute_t, brute_t_ind, brute_t_inj
from test_engines import simple_graphs


class TestExactValues:
    def test_edge_in_k3(self, edge, k3):
        assert t(edge, k3) == Fraction(2, 3)
        assert t_inj(edge, k3) == 1
        assert t_ind(edge, k3) == 1

    def test_triangle_in_triangle(self, k3):
        assert t(k3, k3) == Fraction(2, 9)

    def test_empty_host(self, edge):
        assert t(edge, LabelledGraph.empty(4)) == 0

    def test_oversized_pattern_convention(self, k3):
        k4 = LabelledGraph.complete(4)
        assert t_inj(k4, k3) == 0
        assert t_ind(k4, k3) == 0

    def test_path_host(self, edge, p3):
        assert t_inj(edge, p3) == Fraction(2, 3)
        assert t_ind(edge, p3) == Fraction(2, 3)

    def test_empty_pattern_in_k3(self, k3):
        assert t_ind(LabelledGraph.empty(2), k3) == 0
        assert t_inj(LabelledGraph.empty(2), k3) == 1

    def test_single_vertex(self, k3):
        one = LabelledGraph.empty(1)
        assert t(one, k3) == 1
        assert t_ind(one, k3) == 1

    def test_accepts_unlabelled(self, edge, k3):
        assert t(canonicalize(edge), k3) == Fraction(2, 3)

    def test_unlabelled_pattern_at_the_cap(self):
        f = LabelledGraph.from_edges(8, [(1, 5), (2, 5), (5, 6), (6, 3), (3, 7), (7, 8), (4, 8)])
        host = LabelledGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
        assert t(canonicalize(f), host) == t(f, host) > 0

    def test_labelling_invariance(self):
        host = LabelledGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
        a = LabelledGraph.from_edges(3, [(1, 2), (2, 3)])
        b = LabelledGraph.from_edges(3, [(1, 3), (2, 3)])
        for fn in (t, t_inj, t_ind):
            assert fn(a, host) == fn(b, host)

    def test_pattern_cap(self, k3):
        with pytest.raises(CapacityError):
            t(LabelledGraph.empty(9), k3)


class TestOracleEquivalence:
    def test_small_corpus(self):
        patterns = [g.canon for g in enumerate_unlabelled(3).graphs]
        hosts = [g.canon for g in enumerate_unlabelled(4).graphs if g.n >= 2]
        for f in patterns:
            for g in hosts:
                assert t(f, g) == brute_t(f, g)
                assert t_inj(f, g) == brute_t_inj(f, g)
                assert t_ind(f, g) == brute_t_ind(f, g)


class TestConversions:
    @pytest.mark.parametrize("k", [2, 3])
    def test_identities_against_module(self, k):
        hosts = [LabelledGraph.complete(4), LabelledGraph.path(5),
                 LabelledGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])]
        for host in hosts:
            ind_table = {f: t_ind(f, host) for f in all_labelled_graphs(k)}
            inj_table = {f: t_inj(f, host) for f in all_labelled_graphs(k)}
            for f in all_labelled_graphs(k):
                assert inj_from_ind(f, ind_table) == inj_table[f]
                assert ind_from_inj(f, inj_table) == ind_table[f]

    def test_hand_checked_identities(self, k3):
        edge2 = LabelledGraph.complete(2)
        empty2 = LabelledGraph.empty(2)
        ind_table = {f: t_ind(f, k3) for f in all_labelled_graphs(2)}
        assert inj_from_ind(edge2, ind_table) == t_ind(edge2, k3)  # only supergraph is itself
        assert inj_from_ind(empty2, ind_table) == 1
        host_k2 = LabelledGraph.complete(2)
        inj_table = {f: t_inj(f, host_k2) for f in all_labelled_graphs(2)}
        assert ind_from_inj(empty2, inj_table) == 0
        assert ind_from_inj(edge2, inj_table) == 1
        # edge plus isolated vertex contained in K3 with probability 1
        e_iso = LabelledGraph.from_edges(3, [(1, 2)])
        ind3 = {f: t_ind(f, k3) for f in all_labelled_graphs(3)}
        assert inj_from_ind(e_iso, ind3) == 1

    def test_roundtrip_moebius(self):
        host = LabelledGraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
        for k in (2, 3, 4):
            ind_table = {f: t_ind(f, host) for f in all_labelled_graphs(k)}
            inj_table = {f: inj_from_ind(f, ind_table) for f in ind_table}
            for f in ind_table:
                assert ind_from_inj(f, inj_table) == ind_table[f]

    def test_missing_entry(self):
        with pytest.raises(InputError):
            inj_from_ind(LabelledGraph.empty(2), {})

    def test_supergraph_count(self):
        f = LabelledGraph.from_edges(3, [(1, 2)])
        assert len(supergraphs(f)) == 4


class TestSamplingBound:
    def test_edge_k3(self, edge, k3):
        chk = sampling_bound_check(edge, k3)
        assert (chk.gap, chk.bound, chk.ok) == (Fraction(1, 3), Fraction(2, 3), True)

    def test_complete_100(self, edge):
        chk = sampling_bound_check(edge, LabelledGraph.complete(100))
        assert chk.gap == Fraction(1, 100)
        assert chk.bound == Fraction(1, 50)
        assert chk.ok

    def test_oversized_pattern(self, k3):
        chk = sampling_bound_check(LabelledGraph.complete(4), k3)
        assert chk.gap == t(LabelledGraph.complete(4), k3)
        assert chk.ok


class TestMultiplicativity:
    def test_two_edges_in_k3(self, edge, k3):
        assert disjoint_union_density([edge, edge], k3) == Fraction(4, 9)

    def test_single_part(self, k3):
        assert disjoint_union_density([k3], k3) == t(k3, k3)

    def test_part_with_isolated_vertex(self, edge, k3):
        one = LabelledGraph.empty(1)
        assert disjoint_union_density([edge, one], k3) == Fraction(2, 3)

    def test_exhaustive_small_pairs(self):
        hosts = [LabelledGraph.complete(3), LabelledGraph.path(4)]
        parts = [g.canon for g in enumerate_unlabelled(3).graphs]
        for host in hosts:
            for f1, f2 in itertools.combinations_with_replacement(parts, 2):
                if f1.n + f2.n <= 5:
                    assert disjoint_union_density([f1, f2], host) == t(f1, host) * t(f2, host)


class TestMonteCarlo:
    def test_edge_k3_concentrates(self, edge, k3):
        est = mc_t(edge, k3, 100_000, stream(0))
        assert abs(est.point - 2 / 3) <= 3 / (2 * 100_000**0.5)

    def test_degenerate_cases(self, edge):
        assert mc_t(edge, LabelledGraph.empty(3), 1000, stream(0)).point == 0.0
        assert mc_t(LabelledGraph.empty(1), LabelledGraph.path(3), 1000, stream(0)).point == 1.0

    def test_halfwidth_formula(self):
        est = mc_t(LabelledGraph.complete(2), LabelledGraph.complete(3), 5000, stream(1), alpha=0.05)
        assert est.confidence_halfwidth == pytest.approx(hoeffding_halfwidth(5000, 0.05))

    def test_interval_coverage(self, edge, p3):
        exact = float(t(edge, p3))
        runs, covered = 50, 0
        for s in range(runs):
            if mc_t(edge, p3, 4000, stream(s)).covers(exact):
                covered += 1
        assert covered >= 45

    @given(simple_graphs(4), st.sampled_from([1, 2, 63, 64, 65, 129, 200]), st.sampled_from([0.1, 0.5, 0.9]),
           st.integers(0, 2**32 - 1), st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_hits_are_the_oracle_on_replayed_draws(self, f, n, p, seed, count):
        """mc_containment_hits counts the draws of its stream, replayed,
        whose pairs are all host edges: hosts whose rows end before, at and
        past a word, so the looked-up pairs cross words."""
        a = np.triu(stream(seed).random((n, n)) < p, 1)
        g = graph_from_bool_matrix(a | a.T)
        draws = stream(seed, 1).integers(0, n, size=(count, f.n))
        assert mc_containment_hits(f, g, count, stream(seed, 1)) == brute_containment_hits(f, g, draws)


class TestEmbeddings:
    def test_isomorphic_graphs_equal_vectors(self):
        e = enumerate_unlabelled(3)
        a = LabelledGraph.from_edges(3, [(1, 2), (2, 3)])
        b = LabelledGraph.from_edges(3, [(1, 3), (2, 3)])
        assert tau_vector(a, e).values == tau_vector(b, e).values

    def test_complete_bipartite_collision(self):
        e = enumerate_unlabelled(2)
        k11 = LabelledGraph.complete_bipartite(1, 1)
        k22 = LabelledGraph.complete_bipartite(2, 2)
        assert t(LabelledGraph.complete(2), k11) == Fraction(1, 2)
        assert t(LabelledGraph.complete(2), k22) == Fraction(1, 2)
        assert tau_vector(k11, e).values == tau_vector(k22, e).values
        tp1, tp2 = tau_plus(k11, e), tau_plus(k22, e)
        assert tp1.inv_size == Fraction(1, 2)
        assert tp2.inv_size == Fraction(1, 4)
        assert metric_d(tp1, tp2) > 0

    def test_metric_identity_and_positivity(self):
        e = enumerate_unlabelled(3)
        x = tau_plus(LabelledGraph.complete(2), e)
        y = tau_plus(LabelledGraph.empty(2), e)
        assert metric_d(x, x) == 0
        assert metric_d(x, y) > 0

    def test_metric_symmetry_and_triangle(self):
        e = enumerate_unlabelled(4)
        pool = [g.canon for g in enumerate_unlabelled(4).graphs]
        embs = [tau_plus(g, e) for g in pool[:8]]
        for a, b, c in itertools.combinations(embs, 3):
            assert metric_d(a, b) == metric_d(b, a)
            assert metric_d(a, c) <= metric_d(a, b) + metric_d(b, c)

    def test_enumeration_mismatch(self):
        a = tau_vector(LabelledGraph.complete(2), enumerate_unlabelled(2))
        b = tau_vector(LabelledGraph.complete(2), enumerate_unlabelled(3))
        with pytest.raises(InputError):
            metric_d(a, b)

    def test_mixed_embedding_types_rejected(self):
        e = enumerate_unlabelled(2)
        with pytest.raises(InputError):
            metric_d(tau_vector(LabelledGraph.complete(2), e), tau_plus(LabelledGraph.complete(2), e))

    def test_vector_validation(self):
        e = enumerate_unlabelled(2)
        with pytest.raises(InputError):
            DensityVector(e, (Fraction(1, 2),))
        with pytest.raises(InputError):
            DensityVector(e, (Fraction(1), Fraction(1), Fraction(2)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_union_multiplicativity_random(data):
    n1 = data.draw(st.integers(1, 3))
    n2 = data.draw(st.integers(1, 3))

    def rand_graph(n):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return LabelledGraph.from_edges(n, [p for p in pairs if data.draw(st.booleans())])

    f1, f2 = rand_graph(n1), rand_graph(n2)
    host = rand_graph(data.draw(st.integers(2, 5)))
    assert disjoint_union_density([f1, f2], host) == t(f1, host) * t(f2, host)
