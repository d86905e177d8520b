import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphonlab.directed import (
    PAIR_STATES,
    DirectedGraph,
    DirectedKernelQuintuple,
    directed_t,
    directed_t_ind,
    directed_t_inj,
    loop_sequence_law,
    quadruple_from_quintuple,
    sample_directed,
    sample_directed_pair_codes,
    tournament_kernel,
    validate_quintuple,
)
from graphonlab.errors import CapacityError, InputError
from graphonlab.exchangeable import chi_square_uniformity, covariance_ztest
from graphonlab.rng import stream

from oracles import brute_hom_directed, directed_canonical_rows
from test_engines import quadruples, quintuples

F = Fraction
TOURNAMENT = tournament_kernel()
# two-block kernel with dependent pair indicators and loops on block 2
TWO_BLOCK = DirectedKernelQuintuple(
    (F(1, 2), F(1, 2)),
    ((F(6, 10), F(4, 10)), (F(4, 10), F(4, 10))),
    ((F(1, 10), F(3, 10)), (F(2, 10), F(1, 10))),
    ((F(1, 10), F(2, 10)), (F(3, 10), F(1, 10))),
    ((F(2, 10), F(1, 10)), (F(1, 10), F(4, 10))),
    (0, 1),
)

DIR_EDGE = DirectedGraph.from_edges(2, [(1, 2)])
TWO_CYCLE = DirectedGraph.from_edges(2, [(1, 2), (2, 1)])
CYCLE3 = DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
LOOP1 = DirectedGraph.from_edges(1, [(1, 1)])


class TestValidation:
    def test_tournament_valid(self):
        assert validate_quintuple(TOURNAMENT).ok

    def test_two_block_valid(self):
        assert validate_quintuple(TWO_BLOCK).ok

    def test_empty_kernel_valid(self):
        k = DirectedKernelQuintuple((1,), ((1,),), ((0,),), ((0,),), ((0,),), (0,))
        assert validate_quintuple(k).ok

    def test_asymmetric_rejected(self):
        k = DirectedKernelQuintuple((1,), ((0,),), ((1,),), ((0,),), ((0,),), (0,))
        verdict = validate_quintuple(k)
        assert not verdict.ok
        assert "W01" in verdict.detail

    def test_unnormalised_rejected(self):
        k = DirectedKernelQuintuple((1,), ((F(1, 2),),), ((0,),), ((0,),), ((0,),), (0,))
        assert not validate_quintuple(k).ok

    def test_pattern_cap_names_the_size(self):
        with pytest.raises(CapacityError, match=r"capped at 6 vertices, got 7"):
            directed_t(DirectedGraph.from_edges(7, []), tournament_kernel())

    def test_bad_loop_vector(self):
        with pytest.raises(InputError):
            DirectedKernelQuintuple((1,), ((1,),), ((0,),), ((0,),), ((0,),), (2,))

    def test_quadruple_valid(self):
        assert validate_quintuple(quadruple_from_quintuple(TWO_BLOCK, F(3, 10))).ok


class TestKernelDensities:
    def test_tournament_edge(self):
        assert directed_t(DIR_EDGE, TOURNAMENT) == F(1, 2)

    def test_tournament_two_cycle(self):
        assert directed_t(TWO_CYCLE, TOURNAMENT) == 0

    def test_tournament_three_cycle(self):
        assert directed_t(CYCLE3, TOURNAMENT) == F(1, 8)

    def test_loop_needs_loop_flag(self):
        assert directed_t(LOOP1, TOURNAMENT) == 0
        assert directed_t(LOOP1, TWO_BLOCK) == F(1, 2)

    def test_ind_law_sums_to_one(self):
        total = F(0)
        for bits in range(16):
            g = DirectedGraph.from_edges(
                2, [((1, 1), (1, 2), (2, 1), (2, 2))[i] for i in range(4) if bits >> i & 1]
            )
            total += directed_t_ind(g, TWO_BLOCK)
        assert total == 1

    def test_containment_is_supergraph_sum(self):
        cells = ((1, 1), (1, 2), (2, 1), (2, 2))
        for fbits in range(16):
            fedges = [cells[i] for i in range(4) if fbits >> i & 1]
            f = DirectedGraph.from_edges(2, fedges)
            total = F(0)
            for gbits in range(16):
                if gbits & fbits == fbits:
                    g = DirectedGraph.from_edges(2, [cells[i] for i in range(4) if gbits >> i & 1])
                    total += directed_t_ind(g, TWO_BLOCK)
            assert total == directed_t(f, TWO_BLOCK), fedges

    @pytest.mark.parametrize("density", [directed_t, directed_t_ind])
    def test_invalid_kernel_rejected(self, density):
        # a pair law whose only mass is w00 = 1/2, which sampling rejects too
        bad = DirectedKernelQuintuple((1,), ((F(1, 2),),), ((0,),), ((0,),), ((0,),), (0,))
        with pytest.raises(InputError, match="sums to 1/2"):
            density(DirectedGraph.from_edges(2, []), bad)

    def test_quadruple_matches_lifted_quintuple_on_loopless(self):
        qp = quadruple_from_quintuple(TWO_BLOCK, F(0))
        for f in (DIR_EDGE, TWO_CYCLE, CYCLE3):
            assert directed_t(f, qp) == directed_t(f, TWO_BLOCK)


class TestHostDensities:
    def test_matches_brute_force(self):
        host = DirectedGraph.from_edges(4, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 1), (1, 1)])
        for f in (DIR_EDGE, TWO_CYCLE, CYCLE3, LOOP1):
            assert directed_t(f, host) == brute_hom_directed(f, host)

    def test_inj_and_ind_on_host(self):
        host = DirectedGraph.from_edges(3, [(1, 2), (2, 1), (3, 1)])
        assert directed_t_inj(DIR_EDGE, host) == F(3, 6)
        # only (3,1) induces exactly one directed edge; 1<->2 is a 2-cycle
        assert directed_t_ind(DIR_EDGE, host) == F(1, 6)
        assert directed_t_inj(CYCLE3, host) == 0

    def test_oversized_pattern(self):
        host = DirectedGraph.from_edges(2, [(1, 2)])
        assert directed_t_inj(CYCLE3, host) == 0
        assert directed_t_ind(CYCLE3, host) == 0


class TestSamplers:
    def test_tournament_structure(self):
        g = sample_directed(TOURNAMENT, 50, stream(0))
        assert g.loops() == []
        for u in range(1, 51):
            for v in range(u + 1, 51):
                assert g.has_edge(u, v) != g.has_edge(v, u)

    def test_tournament_n2_fair_direction(self):
        loops, codes = sample_directed_pair_codes(TOURNAMENT, 2, 40_000, stream(1))
        assert not loops.any()
        assert set(np.unique(codes)) <= {1, 2}
        freq = float((codes == 2).mean())
        assert abs(freq - 0.5) <= 3 / (2 * math.sqrt(40_000))

    def test_complete_both_directions(self):
        k = DirectedKernelQuintuple((1,), ((0,),), ((0,),), ((0,),), ((1,),), (1,))
        g = sample_directed(k, 5, stream(2))
        assert len(g.edges()) == 25
        assert g.loops() == [1, 2, 3, 4, 5]

    def test_invalid_kernel_rejected_at_sampling(self):
        bad = DirectedKernelQuintuple((1,), ((0,),), ((1,),), ((0,),), ((0,),), (0,))
        with pytest.raises(InputError):
            sample_directed(bad, 3, stream(0))

    def test_marginal_edge_probability(self):
        # P(X_ij = 1) from the kernel versus empirical frequency
        exact = sum(
            TWO_BLOCK.mu[a] * TWO_BLOCK.mu[b] * (TWO_BLOCK.w10[a][b] + TWO_BLOCK.w11[a][b])
            for a in range(2)
            for b in range(2)
        )
        _, codes = sample_directed_pair_codes(TWO_BLOCK, 2, 60_000, stream(3))
        freq = float((codes >= 2).mean())
        assert abs(freq - float(exact)) <= 3 / (2 * math.sqrt(60_000))

    def test_sampler_matches_kernel_density(self):
        n = 60_000
        loops, codes = sample_directed_pair_codes(TWO_BLOCK, 3, n, stream(4))
        # containment of the directed 3-cycle: X_12, X_23, X_31
        hit = (codes[:, 0] >= 2) & (codes[:, 2] >= 2) & ((codes[:, 1] & 1) == 1)
        exact = float(directed_t(CYCLE3, TWO_BLOCK))
        assert abs(float(hit.mean()) - exact) <= 3 / (2 * math.sqrt(n))

    def test_qp_loop_extremes(self):
        qp0 = quadruple_from_quintuple(TWO_BLOCK, 0)
        qp1 = quadruple_from_quintuple(TWO_BLOCK, 1)
        assert sample_directed(qp0, 30, stream(5)).loops() == []
        assert sample_directed(qp1, 30, stream(5)).loops() == list(range(1, 31))

    def test_qp_loop_count_mean(self):
        qp = quadruple_from_quintuple(TOURNAMENT, F(3, 10))
        n, runs = 200, 30
        counts = [len(sample_directed(qp, n, stream(s, 6)).loops()) for s in range(runs)]
        sigma = math.sqrt(n * 0.3 * 0.7 / runs)
        assert abs(sum(counts) / runs - 0.3 * n) <= 3 * sigma

    @pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("kernel", [TOURNAMENT, TWO_BLOCK, quadruple_from_quintuple(TWO_BLOCK, F(3, 10))])
    def test_rows_draw_the_colex_pairs(self, kernel, n):
        """The graph sampled row by row, 64 rows to a strip, is the one of
        sample_directed_pair_codes at count 1 on a twin stream, which it
        leaves where that draw leaves it: loops on the diagonal, X_ij at
        (i, j) and X_ji at (j, i) of each colex pair i < j."""
        g1, g2 = stream(n, 8), stream(n, 8)
        loops, codes = sample_directed_pair_codes(kernel, n, 1, g2)
        jj, ii = np.tril_indices(n, -1)
        arcs = [(i + 1, i + 1) for i in np.flatnonzero(loops[0])]
        arcs += [(i + 1, j + 1) for i, j in zip(ii[codes[0] >= 2], jj[codes[0] >= 2])]
        arcs += [(j + 1, i + 1) for i, j in zip(ii[codes[0] & 1 == 1], jj[codes[0] & 1 == 1])]
        assert sample_directed(kernel, n, g1) == DirectedGraph.from_edges(n, arcs)
        assert g1.random() == g2.random()

    def test_seed_reproducibility(self):
        a = sample_directed(TWO_BLOCK, 20, stream(7, 1))
        b = sample_directed(TWO_BLOCK, 20, stream(7, 1))
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(quintuples(), quadruples()), st.integers(1, 6), st.sampled_from([1, 2, 9]),
           st.integers(0, 2**32 - 1))
    @example(TWO_BLOCK, 5, 9, 0)
    @example(quadruple_from_quintuple(TWO_BLOCK, F(3, 10)), 5, 1, 1)
    def test_pair_codes_match_a_per_pair_reference(self, kernel, n, count, seed):
        """The vectorised sampler draws what a per-pair loop draws from a twin
        stream: Generator.choice latent blocks, under quadruple-plus-p a
        Bernoulli(p) loop flag per vertex, then per colex pair one uniform
        against the running float sums of W00, W01, W10 at the pair's
        states; and it leaves the stream where the loop leaves it."""
        g1, g2 = stream(seed), stream(seed)
        loops, codes = sample_directed_pair_codes(kernel, n, count, g1)
        blocks = g2.choice(kernel.m, size=(count, n), p=[float(x) for x in kernel.mu])
        if isinstance(kernel, DirectedKernelQuintuple):
            want_loops, states = np.array(kernel.loop_flags)[blocks], blocks
        else:
            want_loops = (g2.random((count, n)) < float(kernel.p)).astype(int)
            states = 2 * blocks + want_loops
        pairs = [(i, j) for j in range(n) for i in range(j)]
        u = g2.random((count, len(pairs)))
        want = np.zeros((count, len(pairs)), dtype=np.int8)
        for c in range(count):
            for p, (i, j) in enumerate(pairs):
                cum = 0.0
                for a, b in PAIR_STATES[:3]:
                    cum += float(kernel.pair_matrix(a, b)[states[c, i]][states[c, j]])
                    want[c, p] += u[c, p] >= cum
        assert np.array_equal(loops, want_loops)
        assert codes.dtype == np.int8 and np.array_equal(codes, want)
        assert g1.random() == g2.random()


class TestLoopSequence:
    def test_frequency_concentrates(self):
        qp = quadruple_from_quintuple(TOURNAMENT, F(3, 10))
        seq = loop_sequence_law(qp, 10_000, stream(8))
        assert abs(sum(seq) / 10_000 - 0.3) <= 3 / (2 * math.sqrt(10_000))

    def test_zero_loop_kernel(self):
        assert loop_sequence_law(TOURNAMENT, 500, stream(9)) == (0,) * 500

    def test_mixture_over_p_is_bimodal(self):
        rng = stream(10)
        freqs = []
        for _ in range(60):
            p = F(1, 10) if rng.random() < 0.5 else F(9, 10)
            seq = loop_sequence_law(quadruple_from_quintuple(TOURNAMENT, p), 100, rng)
            freqs.append(sum(seq) / 100)
        low = [f for f in freqs if f < 0.5]
        high = [f for f in freqs if f >= 0.5]
        assert low and high
        assert max(low) < 0.35 and min(high) > 0.65


class TestExchangeabilityOfPrefixes:
    @pytest.mark.parametrize("k", [2, 3])
    def test_law_constant_on_directed_classes(self, k):
        n = 40_000
        loops, codes = sample_directed_pair_codes(TWO_BLOCK, k, n, stream(11, k))
        # rebuild full labelled directed graphs and count them
        counts: dict[tuple[int, ...], int] = {}
        pairs = [(i, j) for j in range(1, k) for i in range(j)]
        for s in range(n):
            rows = [0] * k
            for v in range(k):
                if loops[s, v]:
                    rows[v] |= 1 << v
            for idx, (i, j) in enumerate(pairs):
                c = int(codes[s, idx])
                if c >> 1 & 1:
                    rows[i] |= 1 << j
                if c & 1:
                    rows[j] |= 1 << i
            key = tuple(rows)
            counts[key] = counts.get(key, 0) + 1
        # group all labelled directed graphs on [k] by canonical form
        classes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for bits in range(1 << (k * k)):
            rows = tuple(sum((bits >> (i * k + j) & 1) << j for j in range(k)) for i in range(k))
            g = DirectedGraph(k, rows)
            classes.setdefault(directed_canonical_rows(g), []).append(rows)
        testable = [m for m in classes.values() if len(m) > 1]
        p_values = []
        for members in testable:
            observed = [counts.get(m, 0) for m in members]
            if sum(observed) == 0:
                continue
            _, p = chi_square_uniformity(observed)
            p_values.append(p)
        assert min(p_values) >= 0.01 / len(p_values)


class TestExtremalityProductCriterion:
    def test_deterministic_quintuple_consistent(self):
        # containment of vertex-disjoint directed edges is uncorrelated
        n = 80_000
        _, codes = sample_directed_pair_codes(TWO_BLOCK, 4, n, stream(12))
        pairs = [(i, j) for j in range(1, 4) for i in range(j)]
        a = codes[:, pairs.index((0, 1))] >= 2  # edge 1->2 present
        b = codes[:, pairs.index((2, 3))] >= 2  # edge 3->4 present
        _, _, p = covariance_ztest(n, int(a.sum()), int(b.sum()), int((a & b).sum()))
        assert p >= 0.01


class TestCanonical:
    def test_invariance(self):
        g = DirectedGraph.from_edges(3, [(1, 2), (2, 1), (3, 3), (3, 1)])
        base = directed_canonical_rows(g)
        for perm in itertools.permutations(range(1, 4)):
            edges = [(perm[u - 1], perm[v - 1]) for u, v in g.edges()]
            assert directed_canonical_rows(DirectedGraph.from_edges(3, edges)) == base

    def test_distinguishes_orientation_count(self):
        a = directed_canonical_rows(DIR_EDGE)
        b = directed_canonical_rows(TWO_CYCLE)
        assert a != b


class TestQuintupleText:
    def test_roundtrip(self):
        text = TWO_BLOCK.to_text()
        assert DirectedKernelQuintuple.from_text(text) == TWO_BLOCK

    def test_rejects_invalid_on_load(self):
        bad = DirectedKernelQuintuple((1,), ((0,),), ((1,),), ((0,),), ((0,),), (0,))
        with pytest.raises(InputError):
            DirectedKernelQuintuple.from_text(bad.to_text())

    def test_rejects_missing_label(self):
        with pytest.raises(InputError):
            DirectedKernelQuintuple.from_text("1\n1\nW00\n1\nW01\n0\n")
