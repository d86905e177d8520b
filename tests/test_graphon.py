import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphonlab.bipartite import BipartiteKernel, sample_bip_w_random
from graphonlab.densities import t
from graphonlab.directed import sample_directed, tournament_kernel
from graphonlab.errors import CapacityError, InputError
from graphonlab.exchangeable import GraphSource
from graphonlab.graphon import (
    BlockMap,
    GeneralGraphon,
    SignedStepKernel,
    StepGraphon,
    boys_girls,
    cut_distance_upper,
    cut_norm,
    exact_density,
    graph_as_graphon,
    kernel_difference,
    mc_density,
    pair_bits,
    pushforward,
    sample_w_random,
    _scaled_q,
)
from graphonlab.graphs import LabelledGraph, enumerate_unlabelled, graph_from_bool_matrix, pair_order
from graphonlab.rng import COUNTED_BLOCKS, draw_blocks, stream

from oracles import brute_cut_norm

BG = boys_girls(0.5, 0.2, 0.4, 0.6)
W3 = StepGraphon(
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    (
        (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10)),
        (Fraction(2, 10), Fraction(5, 10), Fraction(7, 10)),
        (Fraction(3, 10), Fraction(7, 10), Fraction(9, 10)),
    ),
)


class TestStepGraphon:
    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            StepGraphon((Fraction(1, 2), Fraction(1, 2)), ((0, 1), (0, 0)))

    def test_rejects_bad_measures(self):
        with pytest.raises(InputError):
            StepGraphon((Fraction(1, 2), Fraction(1, 4)), ((0, 0), (0, 0)))
        with pytest.raises(InputError):
            StepGraphon((Fraction(1), Fraction(0)), ((0, 0), (0, 0)))

    def test_rejects_out_of_range_value(self):
        with pytest.raises(InputError):
            StepGraphon((1,), ((2,),))

    def test_measures_normalised_exactly(self):
        w = StepGraphon((1 / 3, 1 / 3, 1 / 3), tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)))
        assert sum(w.mu) == 1

    def test_text_roundtrip(self):
        assert StepGraphon.from_text(BG.to_text()) == BG
        assert StepGraphon.from_text(W3.to_text()) == W3

    def test_text_rejects_asymmetric(self):
        with pytest.raises(InputError):
            StepGraphon.from_text("2\n0.5 0.5\n0 1\n0.5 0\n")


class TestBoysGirls:
    def test_bipartite_kernel(self):
        w = boys_girls(0.5, 0, 0, 1)
        assert w.w == ((0, 1), (1, 0))

    def test_two_cliques_kernel(self):
        w = boys_girls(0.5, 1, 1, 0)
        assert w.w == ((1, 0), (0, 1))

    def test_degenerate_theta(self):
        w = boys_girls(1, 0.3, 0.9, 0.5)
        assert w.m == 1 and w.w[0][0] == Fraction(3, 10)
        w0 = boys_girls(0, 0.3, 0.9, 0.5)
        assert w0.m == 1 and w0.w[0][0] == Fraction(9, 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            boys_girls(0.5, 1.2, 0, 0)


class TestExactDensity:
    def test_constant_kernel_powers(self, k3):
        assert exact_density(k3, StepGraphon.constant(Fraction(1, 2))) == Fraction(1, 8)

    def test_boys_girls_edge_closed_form(self, edge):
        assert exact_density(edge, BG) == Fraction(9, 20)

    def test_single_vertex(self):
        assert exact_density(LabelledGraph.empty(1), W3) == 1

    def test_graph_kernel_consistency(self, edge, k3):
        gw = graph_as_graphon(k3)
        assert gw.mu == (Fraction(1, 3),) * 3
        assert exact_density(edge, gw) == Fraction(2, 3)
        assert exact_density(k3, gw) == Fraction(2, 9)

    def test_graph_kernel_consistency_corpus(self):
        patterns = [g.canon for g in enumerate_unlabelled(3).graphs]
        hosts = [g.canon for g in enumerate_unlabelled(4).graphs]
        for host in hosts:
            gw = graph_as_graphon(host)
            for f in patterns:
                assert exact_density(f, gw) == t(f, host)

    def test_empty_graph_kernel(self):
        gw = graph_as_graphon(LabelledGraph.empty(3))
        assert all(v == 0 for row in gw.w for v in row)

    def test_work_cap(self):
        big = StepGraphon(tuple(Fraction(1, 10) for _ in range(10)),
                          tuple(tuple(Fraction(0) for _ in range(10)) for _ in range(10)))
        with pytest.raises(CapacityError):
            exact_density(LabelledGraph.empty(8), big)


class TestMonteCarloDensity:
    def test_product_kernel_edge(self, edge):
        w = GeneralGraphon(lambda x, y: x * y)
        est = mc_density(edge, w, 100_000, stream(0))
        assert abs(est.point - 0.25) <= 3 / (2 * math.sqrt(100_000))

    def test_product_kernel_path(self, p3):
        w = GeneralGraphon(lambda x, y: x * y)
        est = mc_density(p3, w, 100_000, stream(1))
        assert abs(est.point - 1 / 12) <= 3 / (2 * math.sqrt(100_000))

    def test_zero_kernel(self, edge):
        assert mc_density(edge, GeneralGraphon(lambda x, y: 0.0 * x * y), 1000, stream(2)).point == 0.0

    def test_step_kernel_agrees(self, k3):
        est = mc_density(k3, BG, 100_000, stream(3))
        assert abs(est.point - float(exact_density(k3, BG))) <= 3 / (2 * math.sqrt(100_000))

    def test_vectorised_call_failure_propagates(self, edge):
        # only a type or shape failure on arrays falls back to per-pair calls
        def kernel(x, y):
            if isinstance(x, np.ndarray):
                raise ZeroDivisionError("vectorised path broken")
            return 0.5

        w = GeneralGraphon(kernel)
        with pytest.raises(ZeroDivisionError):
            mc_density(edge, w, 100, stream(5))

    def test_scalar_only_kernel_falls_back(self, edge):
        w = GeneralGraphon(lambda x, y: math.exp(-x - y))
        got = w.values(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        assert got.tolist() == [math.exp(-0.1 - 0.3), math.exp(-0.2 - 0.4)]

    @pytest.mark.parametrize("count", [1, 2, 500])
    def test_scalar_only_kernel_in_batch_samplers(self, count):
        # batch lookups hand the kernel 2-D latents; the per-pair fallback
        # must see them flat and give the vectorised kernel's draws
        scalar = GeneralGraphon(lambda x, y: math.exp(-x - y))
        vectorised = GeneralGraphon(lambda x, y: np.exp(-x - y))
        for k in (1, 2, 4):
            bits = [GraphSource.w_random(w).pair_bits_batch(k, count, stream(7, k))
                    for w in (scalar, vectorised)]
            assert bits[0].shape == (count, k * (k - 1) // 2)
            assert np.array_equal(bits[0], bits[1])
        mixed = [GraphSource.mixture([(0.5, w), (0.5, BG)]).pair_bits_batch(4, count, stream(8))
                 for w in (scalar, vectorised)]
        assert np.array_equal(mixed[0], mixed[1])
        for f in (LabelledGraph.complete(2), LabelledGraph.path(4), LabelledGraph.empty(3)):
            est = [mc_density(f, w, count, stream(9)) for w in (scalar, vectorised)]
            assert est[0] == est[1]

    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(InputError):
            GeneralGraphon(lambda x, y: x)


class TestSampler:
    def test_extremes(self):
        assert sample_w_random(StepGraphon.constant(1), 6, stream(0)) == LabelledGraph.complete(6)
        assert sample_w_random(StepGraphon.constant(0), 6, stream(0)) == LabelledGraph.empty(6)

    def test_erdos_renyi_edge_frequency(self):
        w = StepGraphon.constant(Fraction(3, 10))
        rng = stream(4)
        n = 20000
        hits = sum(sample_w_random(w, 2, rng).num_edges for _ in range(n))
        assert abs(hits / n - 0.3) <= 3 / (2 * math.sqrt(n))

    def test_seed_reproducibility(self):
        a = sample_w_random(BG, 50, stream(8, 2))
        b = sample_w_random(BG, 50, stream(8, 2))
        assert a == b

    @pytest.mark.parametrize("w", [BG, W3, StepGraphon.constant(Fraction(1, 2))])
    def test_sampler_density_agreement(self, w):
        # empirical containment frequency of small patterns in G(k, W)
        patterns = {
            "edge": LabelledGraph.complete(2),
            "p3": LabelledGraph.path(3),
            "k3": LabelledGraph.complete(3),
        }
        src = GraphSource.w_random(w)
        n = 100_000
        for name, f in patterns.items():
            bits = src.pair_bits_batch(f.n, n, stream(hash(name) % 2**32, 5))
            cols = [i for i, (a, b) in enumerate(pair_order(f.n)) if f.has_edge(a + 1, b + 1)]
            freq = float(bits[:, cols].all(axis=1).mean())
            exact = float(exact_density(f, w))
            assert abs(freq - exact) <= 3 / (2 * math.sqrt(n)), (name, freq, exact)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, COUNTED_BLOCKS + 8).flatmap(
               lambda m: st.lists(st.integers(1, 1000), min_size=m, max_size=m)),
           st.sampled_from([(1,), (7,), (300, 5), (2, 3, 4)]), st.integers(0, 2**32 - 1))
    @example([1], (7,), 0)
    @example([1] * 80, (300, 5), 1)
    @example([1] * COUNTED_BLOCKS, (300, 5), 2)
    @example([1] * (COUNTED_BLOCKS + 1), (300, 5), 3)
    @example(list(range(1, COUNTED_BLOCKS + 1)), (2, 3, 4), 4)
    def test_draw_blocks_is_generator_choice(self, raw, shape, seed):
        """The block draws, and a mixture's component picks, are exactly
        Generator.choice on a twin stream, which is left where choice leaves
        it: counted up to COUNTED_BLOCKS blocks, searched above."""
        mu = [Fraction(x, sum(raw)) for x in raw]
        p = np.array([float(x) for x in mu])
        g1, g2 = stream(seed), stream(seed)
        got, want = draw_blocks(mu, shape, g1), g2.choice(len(mu), size=shape, p=p)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert g1.random() == g2.random()
        if len(mu) > 1:
            src = GraphSource.mixture([(x, StepGraphon.constant(0)) for x in mu])
            p = np.array([float(wt) for wt, _ in src.components])
            got, want = src._pick_components(shape[0], g1), g2.choice(len(raw), size=shape[0], p=p)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert g1.random() == g2.random()

    @pytest.mark.parametrize("m", [4, 256])
    def test_a_uniform_on_a_cut_point_takes_the_block_above(self, m):
        """As searchsorted(side="right") does, on the counting path (4
        blocks) and the searching one (256): cut points k/m are exact."""

        class Uniforms:
            def random(self, shape):
                return np.array([0.0, 1 / m, np.nextafter(1 / m, 0), 3 / m, np.nextafter(1.0, 0)])

        assert draw_blocks([Fraction(1, m)] * m, (5,), Uniforms()).tolist() == [0, 1, 0, 3, m - 1]

    @pytest.mark.parametrize("w", [W3, StepGraphon.constant(Fraction(1, 3)), GeneralGraphon(lambda x, y: x * y)])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 128, 129, 256, 257, 300])
    def test_strips_draw_the_pairs_in_row_major_order(self, w, n):
        """Rows drawn one by one give the graph of one draw over the
        n(n-1)/2 np.triu_indices pairs (which fit one strip of cells at
        n = 256 and take two at 257 and 300), also where the writer's
        64-row strips end (63, 64, 65, 128, 129)."""
        iu, ju = np.triu_indices(n, k=1)
        a = np.zeros((n, n), dtype=bool)
        bits = pair_bits(w, n, 1, iu, ju, stream(n, 3))[0]
        a[iu[bits], ju[bits]] = True
        assert sample_w_random(w, n, stream(n, 3)) == graph_from_bool_matrix(a | a.T)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["one-block", "two-block", "general"]), st.integers(2, 6), st.sampled_from([1, 7, 5000]),
           st.data(), st.integers(0, 2**32 - 1))
    def test_used_cells_read_the_full_draws_uniforms(self, kernel, k, count, data, seed):
        """pair_bits at any increasing subset of its pairs gives the full
        draw's columns on those pairs and leaves the stream where the full
        draw leaves it: unread latents and cells are skipped in place, and
        at count 5000 a strip covers 6 cells, so long runs take several."""
        w = {"one-block": StepGraphon.constant(Fraction(2, 5)), "two-block": BG,
             "general": GeneralGraphon(lambda x, y: x * y)}[kernel]
        jj, ii = np.tril_indices(k, -1)
        used = sorted(data.draw(st.sets(st.integers(0, len(ii) - 1))))
        g1, g2 = stream(seed), stream(seed)
        got, full = pair_bits(w, k, count, ii, jj, g1, used), pair_bits(w, k, count, ii, jj, g2)
        assert got.shape == (count, len(used)) and np.array_equal(got, full[:, used])
        assert g1.random() == g2.random()

    def test_sampling_4000_vertices_holds_no_pair_arrays(self):
        """No sampler of the three kinds holds anything of n1 * n2 bytes:
        its words take n1 * n2 / 8, and the writer's two 64-row strips and
        the rows' draws stay within 1 MiB. An n x n bool matrix would take
        n1 * n2, and index arrays of all pairs or cells 8 bytes per pair."""
        bip = BipartiteKernel((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2),) * 2, ((0.2, 0.5), (0.7, 0.1)))
        for (n1, n2), sample in [((4000, 4000), lambda: sample_w_random(BG, 4000, stream(12))),
                                 ((4000, 4000), lambda: sample_directed(tournament_kernel(), 4000, stream(12))),
                                 ((4000, 3000), lambda: sample_bip_w_random(bip, 4000, 3000, stream(12)))]:
            tracemalloc.start()
            try:
                g = sample()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert g.shape == (n1, n2) and peak < n1 * n2 / 4 + (1 << 20), (type(g).__name__, peak)

    def test_boys_girls_convergence_rate(self):
        # deviation of the edge density shrinks roughly like n^(-1/2)
        exact = 0.45
        meds = []
        for n in (50, 200, 800):
            devs = []
            for s in range(20):
                g = sample_w_random(BG, n, stream(s, n))
                devs.append(abs(float(t(LabelledGraph.complete(2), g)) - exact * (1 - 1 / n)))
            meds.append(sorted(devs)[10])
        assert meds[0] > meds[2]


class TestPushforward:
    def test_identity(self):
        assert pushforward(W3, BlockMap.identity(W3.mu)) == W3

    def test_swap_equal_blocks(self):
        bm = BlockMap.permutation([0, 2, 1], W3.mu)
        pushed = pushforward(W3, bm)
        for f in (LabelledGraph.complete(2), LabelledGraph.path(3), LabelledGraph.complete(3)):
            assert exact_density(f, pushed) == exact_density(f, W3)

    def test_split_block(self):
        bm = BlockMap.split(W3.mu, 0, [Fraction(1, 4), Fraction(1, 4)])
        pushed = pushforward(W3, bm)
        assert pushed.m == 4
        for f in (g.canon for g in enumerate_unlabelled(4).graphs):
            assert exact_density(f, pushed) == exact_density(f, W3)

    def test_equal_refinement(self):
        bm = BlockMap.equal_refinement(W3.mu)
        pushed = pushforward(W3, bm)
        assert pushed.m == 4
        assert all(m == Fraction(1, 4) for m in pushed.mu)
        assert exact_density(LabelledGraph.complete(3), pushed) == exact_density(
            LabelledGraph.complete(3), W3
        )

    def test_rejects_non_measure_preserving(self):
        bad = BlockMap(3, ((0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 4))))
        with pytest.raises(InputError):
            pushforward(W3, bad)

    def test_rejects_bad_split(self):
        with pytest.raises(InputError):
            BlockMap.split(W3.mu, 0, [Fraction(1, 4), Fraction(1, 8)])


class TestCutNorm:
    def test_zero_kernel(self):
        d = SignedStepKernel((Fraction(1, 2), Fraction(1, 2)), ((0, 0), (0, 0)))
        assert cut_norm(d) == 0

    def test_two_block_checkerboard(self):
        d = SignedStepKernel((Fraction(1, 2), Fraction(1, 2)), ((1, -1), (-1, 1)))
        assert cut_norm(d) == Fraction(1, 4)

    def test_constant(self):
        d = SignedStepKernel((Fraction(1, 3), Fraction(2, 3)),
                             ((Fraction(-3, 5), Fraction(-3, 5)), (Fraction(-3, 5), Fraction(-3, 5))))
        assert cut_norm(d) == Fraction(3, 5)

    def test_matches_brute_oracle(self):
        rng = stream(12)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            mu_raw = [Fraction(int(x), 16) for x in rng.integers(1, 6, size=m)]
            total = sum(mu_raw)
            mu = [x / total for x in mu_raw]
            vals = [[Fraction(int(rng.integers(-8, 9)), 8) for _ in range(m)] for _ in range(m)]
            d = SignedStepKernel(tuple(mu), tuple(tuple(row) for row in vals))
            assert cut_norm(d) == brute_cut_norm(list(d.mu), [list(r) for r in d.values])

    def test_large_denominators_match_brute_oracle(self):
        """Denominators this large push the scaled q past int64, so the
        subset sums run on Python ints; the two non-negative kernels after them
        put the sum of |q| at 2^53 - 1 (float64) and 2^53 + 3 (int64, whose
        odd cut norm float64 would round)."""
        big = 10**12 + 39
        rng = stream(13)
        for m in (1, 2, 3, 4):
            mu_raw = [int(x) for x in rng.integers(1, big, size=m)]
            mu = [Fraction(x, sum(mu_raw)) for x in mu_raw]
            vals = [[Fraction(int(rng.integers(-big, big)), big) for _ in range(m)] for _ in range(m)]
            d = SignedStepKernel(tuple(mu), tuple(tuple(row) for row in vals))
            assert cut_norm(d) == brute_cut_norm(list(d.mu), [list(r) for r in d.values])
        den = 2**53 + 5
        for (a, b, c), dtype in [((2**52 - 1, 1, 2**52 - 2), np.float64), ((2**52 + 1, 1, 2**52), np.int64)]:
            vals = ((Fraction(a, den), Fraction(b, den)), (Fraction(b, den), Fraction(c, den)))
            d = SignedStepKernel((Fraction(1, 2), Fraction(1, 2)), vals)
            assert _scaled_q(d.mu, [d.values])[0].dtype == dtype
            assert cut_norm(d) == brute_cut_norm(list(d.mu), [list(r) for r in d.values])

    def test_cap(self):
        d = SignedStepKernel(tuple(Fraction(1, 17) for _ in range(17)),
                             tuple(tuple(Fraction(0) for _ in range(17)) for _ in range(17)))
        with pytest.raises(CapacityError):
            cut_norm(d)


class TestCutDistance:
    def test_identical(self):
        assert cut_distance_upper(W3, W3) == 0

    def test_permuted_is_zero(self):
        pushed = pushforward(W3, BlockMap.permutation([0, 2, 1], W3.mu))
        assert cut_distance_upper(W3, pushed) == 0

    def test_constants(self):
        w1 = StepGraphon.constant(Fraction(1, 5))
        w2 = StepGraphon.constant(Fraction(4, 5))
        assert cut_distance_upper(w1, w2) == Fraction(3, 5)

    @pytest.mark.parametrize("den", [100, 10**12 + 39])
    def test_matches_brute_over_permutations(self, den):
        """The minimum over measure-preserving block permutations of the
        brute-force cut norm, blocks of equal and of unequal measure."""
        rng = stream(14)
        for mu in ([Fraction(1, 4)] * 4, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)]):
            m = len(mu)
            pair = []
            for _ in range(2):
                vals = [[None] * m for _ in range(m)]
                for a in range(m):
                    for b in range(a, m):
                        vals[a][b] = vals[b][a] = Fraction(int(rng.integers(0, den + 1)), den)
                pair.append(vals)
            w1, w2 = StepGraphon(tuple(mu), pair[0]), StepGraphon(tuple(mu), pair[1])
            want = min(
                brute_cut_norm(mu, [[w1.w[a][b] - w2.w[p[a]][p[b]] for b in range(m)] for a in range(m)])
                for p in itertools.permutations(range(m)) if all(mu[p[a]] == mu[a] for a in range(m))
            )
            assert cut_distance_upper(w1, w2) == want

    def test_rejects_mismatch(self):
        with pytest.raises(InputError):
            cut_distance_upper(W3, BG)

    def test_difference_requires_same_measures(self):
        with pytest.raises(InputError):
            kernel_difference(W3, BG)
