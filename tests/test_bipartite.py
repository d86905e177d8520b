import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from graphonlab.bipartite import (
    BipartiteGraph,
    BipartiteKernel,
    bip_cell_bits_batch,
    bip_exact_density,
    bip_exact_ind_density,
    bip_graph_as_kernel,
    bip_sampling_bound_check,
    bip_t,
    bip_t_ind,
    bip_t_inj,
    sample_bip_w_random,
)
from graphonlab.errors import CapacityError, InputError
from graphonlab.exchangeable import chi_square_uniformity, covariance_ztest
from graphonlab.rng import stream

from oracles import bip_canonical_rows

CROSS_EDGE = BipartiteGraph.from_edges(1, 1, [(1, 1)])
MATCHING_22 = BipartiteGraph.from_edges(2, 2, [(1, 1), (2, 2)])
FOUR_CYCLE = BipartiteGraph.from_edges(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
KERNEL_2X2 = BipartiteKernel(
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
    ((Fraction(1, 5), Fraction(3, 5)), (Fraction(2, 5), Fraction(4, 5))),
)


def all_bipartite_graphs(n1: int, n2: int):
    cells = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
    out = []
    for r in range(len(cells) + 1):
        for subset in itertools.combinations(cells, r):
            out.append(BipartiteGraph.from_edges(n1, n2, subset))
    return out


def brute_bip_t(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    hits = 0
    for m1 in itertools.product(range(1, g.n1 + 1), repeat=f.n1):
        for m2 in itertools.product(range(1, g.n2 + 1), repeat=f.n2):
            if all(g.has_edge(m1[u - 1], m2[v - 1]) for u, v in f.edges()):
                hits += 1
    return Fraction(hits, g.n1**f.n1 * g.n2**f.n2)


class TestGraphBasics:
    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            BipartiteGraph.from_edges(2, 2, [(3, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(InputError):
            BipartiteGraph.from_edges(2, 2, [(1, 1), (1, 1)])

    def test_text_roundtrip(self):
        assert BipartiteGraph.from_text(MATCHING_22.to_text()) == MATCHING_22

    def test_pattern_cap_names_the_size(self):
        with pytest.raises(CapacityError, match=r"capped at 6 vertices per part, got 2 and 7"):
            bip_t(BipartiteGraph.empty(2, 7), MATCHING_22)

    def test_canonical_form_invariance(self):
        g = BipartiteGraph.from_edges(2, 3, [(1, 1), (1, 3), (2, 2)])
        base = bip_canonical_rows(g)
        for rperm in itertools.permutations(range(1, 3)):
            for cperm in itertools.permutations(range(1, 4)):
                edges = [(rperm[u - 1], cperm[v - 1]) for u, v in g.edges()]
                h = BipartiteGraph.from_edges(2, 3, edges)
                assert bip_canonical_rows(h) == base


class TestDensities:
    def test_cross_edge_complete(self):
        assert bip_t(CROSS_EDGE, BipartiteGraph.complete(2, 3)) == 1

    def test_cross_edge_matching(self):
        assert bip_t(CROSS_EDGE, MATCHING_22) == Fraction(1, 2)

    def test_matches_brute_force(self):
        hosts = [MATCHING_22, BipartiteGraph.complete(2, 3),
                 BipartiteGraph.from_edges(3, 2, [(1, 1), (2, 1), (3, 2), (1, 2)])]
        patterns = all_bipartite_graphs(2, 2)[:8] + [CROSS_EDGE]
        for g in hosts:
            for f in patterns:
                assert bip_t(f, g) == brute_bip_t(f, g)

    def test_inj_ind_oversized(self):
        assert bip_t_inj(FOUR_CYCLE, BipartiteGraph.complete(1, 5)) == 0
        assert bip_t_ind(FOUR_CYCLE, BipartiteGraph.complete(1, 5)) == 0

    def test_ind_sums_to_inj(self):
        host = BipartiteGraph.from_edges(3, 3, [(1, 1), (1, 2), (2, 2), (3, 3), (2, 3)])
        for f in all_bipartite_graphs(2, 2):
            total = sum(
                (bip_t_ind(sup, host) for sup in all_bipartite_graphs(2, 2)
                 if all(sup.has_edge(u, v) for u, v in f.edges())),
                Fraction(0),
            )
            assert total == bip_t_inj(f, host)

    def test_bound_holds_on_corpus(self):
        hosts = [MATCHING_22, BipartiteGraph.complete(3, 2),
                 BipartiteGraph.from_edges(2, 3, [(1, 2), (2, 1), (2, 3)])]
        for g in hosts:
            for f in all_bipartite_graphs(2, 2):
                assert bip_sampling_bound_check(f, g).ok


class TestKernels:
    def test_constant_kernel_powers(self):
        w = BipartiteKernel.constant(Fraction(1, 2))
        assert bip_exact_density(FOUR_CYCLE, w) == Fraction(1, 16)
        assert bip_exact_density(CROSS_EDGE, w) == Fraction(1, 2)

    def test_mean_of_entries(self):
        assert bip_exact_density(CROSS_EDGE, KERNEL_2X2) == Fraction(1, 2)

    def test_graph_kernel_consistency(self):
        hosts = [MATCHING_22, FOUR_CYCLE, BipartiteGraph.from_edges(3, 3, [(1, 1), (2, 3), (3, 2), (1, 2)])]
        for g in hosts:
            kern = bip_graph_as_kernel(g)
            for f in all_bipartite_graphs(2, 2):
                assert bip_exact_density(f, kern) == bip_t(f, g)

    def test_ind_density_sums_to_one(self):
        total = sum(
            (bip_exact_ind_density(f, KERNEL_2X2) for f in all_bipartite_graphs(2, 2)),
            Fraction(0),
        )
        assert total == 1

    def test_text_roundtrip(self):
        assert BipartiteKernel.from_text(KERNEL_2X2.to_text()) == KERNEL_2X2

    def test_rejects_bad_matrix(self):
        with pytest.raises(InputError):
            BipartiteKernel((Fraction(1),), (Fraction(1),), ((Fraction(1), Fraction(1)),))


class TestSampler:
    def test_extremes(self):
        assert sample_bip_w_random(BipartiteKernel.constant(1), 3, 4, stream(0)) == BipartiteGraph.complete(3, 4)
        assert sample_bip_w_random(BipartiteKernel.constant(0), 3, 4, stream(0)) == BipartiteGraph.empty(3, 4)

    def test_edge_count_mean(self):
        w = BipartiteKernel.constant(Fraction(3, 10))
        n1, n2, runs = 20, 25, 40
        counts = [sample_bip_w_random(w, n1, n2, stream(s, 1)).num_edges for s in range(runs)]
        mean = sum(counts) / runs
        sigma = math.sqrt(n1 * n2 * 0.3 * 0.7 / runs)
        assert abs(mean - 0.3 * n1 * n2) <= 3 * sigma

    def test_sampler_density_agreement(self):
        n = 100_000
        cases = {
            "cross": ([0], CROSS_EDGE),
            "path2": ([0, 1], BipartiteGraph.from_edges(1, 2, [(1, 1), (1, 2)])),
            "cycle": ([0, 1, 2, 3], FOUR_CYCLE),
        }
        for name, (cols, f) in cases.items():
            bits = bip_cell_bits_batch(KERNEL_2X2, f.n1, f.n2, n, stream(len(name), 2))
            want_cols = [(u - 1) * f.n2 + (v - 1) for u, v in f.edges()]
            freq = float(bits[:, want_cols].all(axis=1).mean())
            exact = float(bip_exact_density(f, KERNEL_2X2))
            assert abs(freq - exact) <= 3 / (2 * math.sqrt(n)), (name, freq, exact)

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(7, 10), Fraction(1)])
    def test_constant_kernel_draws_like_a_full_matrix(self, p):
        """A 1x1 kernel gives its one value without a gather: the bits of a
        2x3 kernel with every entry p, on a twin stream left where it is."""
        full = BipartiteKernel((Fraction(1, 2),) * 2, (Fraction(1, 3),) * 3, ((p,) * 3,) * 2)
        for k1, k2, count in [(1, 1, 1), (3, 4, 1), (2, 5, 300)]:
            g1, g2 = stream(k1, count), stream(k1, count)
            got = bip_cell_bits_batch(BipartiteKernel.constant(p), k1, k2, count, g1)
            assert np.array_equal(got, bip_cell_bits_batch(full, k1, k2, count, g2))
            assert g1.random() == g2.random()

    @pytest.mark.parametrize("n1, n2", [(1, 1), (3, 70), (70, 3), (63, 65), (64, 129), (129, 64), (128, 128)])
    @pytest.mark.parametrize("w", [KERNEL_2X2, BipartiteKernel.constant(Fraction(1, 3))])
    def test_rows_draw_the_cells_in_row_major_order(self, w, n1, n2):
        """The graph sampled row by row, 64 rows to a strip, is the one of
        bip_cell_bits_batch's all-cells draw at count 1 on a twin stream,
        which it leaves where that draw leaves it."""
        g1, g2 = stream(n1, n2), stream(n1, n2)
        bits = bip_cell_bits_batch(w, n1, n2, 1, g2)[0].reshape(n1, n2)
        want = BipartiteGraph.from_edges(n1, n2, (np.argwhere(bits) + 1).tolist())
        assert sample_bip_w_random(w, n1, n2, g1) == want
        assert g1.random() == g2.random()

    def test_seed_reproducibility(self):
        a = sample_bip_w_random(KERNEL_2X2, 10, 12, stream(5, 3))
        b = sample_bip_w_random(KERNEL_2X2, 10, 12, stream(5, 3))
        assert a == b


class TestSeparateExchangeability:
    def test_empirical_law_constant_on_bip_classes(self):
        n = 40_000
        bits = bip_cell_bits_batch(KERNEL_2X2, 2, 2, n, stream(6))
        powers = 1 << np.arange(4)
        codes = bits @ powers
        counts: dict[int, int] = {}
        for c in codes:
            counts[int(c)] = counts.get(int(c), 0) + 1
        # group the 16 labelled configurations by bipartite isomorphism class
        classes: dict[tuple[int, ...], list[int]] = {}
        for code in range(16):
            g = BipartiteGraph.from_edges(2, 2, [((i // 2) + 1, (i % 2) + 1) for i in range(4) if code >> i & 1])
            classes.setdefault(bip_canonical_rows(g), []).append(code)
        testable = [codes_ for codes_ in classes.values() if len(codes_) > 1]
        p_values = []
        for member_codes in testable:
            observed = [counts.get(c, 0) for c in member_codes]
            if sum(observed) == 0:
                continue
            _, p = chi_square_uniformity(observed)
            p_values.append(p)
        assert min(p_values) >= 0.01 / len(testable)

    def test_product_criterion(self):
        # deterministic kernel consistent; 0.2/0.8 mixture rejected
        n = 100_000

        def run(sample_bits) -> float:
            a = sample_bits[:, 0]          # cell (1,1)
            b = sample_bits[:, 3]          # cell (2,2)
            _, _, p = covariance_ztest(n, int(a.sum()), int(b.sum()), int((a & b).sum()))
            return p

        det_bits = bip_cell_bits_batch(KERNEL_2X2, 2, 2, n, stream(7))
        assert run(det_bits) >= 0.01

        rng = stream(8)
        comp = rng.random(n) < 0.5
        low = bip_cell_bits_batch(BipartiteKernel.constant(Fraction(1, 5)), 2, 2, n, rng)
        high = bip_cell_bits_batch(BipartiteKernel.constant(Fraction(4, 5)), 2, 2, n, rng)
        mixed = np.where(comp[:, None], low, high)
        assert run(mixed) < 0.01
