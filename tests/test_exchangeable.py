import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from graphonlab import exchangeable, graphs
from graphonlab.errors import CapacityError, InputError
from graphonlab.exchangeable import (
    GraphSource,
    PatternPair,
    PrefixLaw,
    chi_square_tail,
    chi_square_uniformity,
    correspondence_check,
    covariance_ztest,
    exchangeability_test,
    extremality_test,
    isomorphism_class,
    martingale_trace,
    prefix_law_empirical,
    prefix_law_exact,
)
from graphonlab.graphon import GeneralGraphon, StepGraphon, boys_girls, exact_ind_density
from graphonlab.graphs import LabelledGraph, enumerate_unlabelled, graph_from_pair_bits, pair_bits_of, pair_code_classes
from graphonlab.rng import CHUNK, chunk_sizes, stream

from conftest import all_labelled_graphs
from oracles import brute_kernel_sum

BG = boys_girls(0.5, 0.2, 0.4, 0.6)
HALF = StepGraphon.constant(Fraction(1, 2))
MIX = GraphSource.mixture([
    (Fraction(1, 2), StepGraphon.constant(Fraction(1, 5))),
    (Fraction(1, 2), StepGraphon.constant(Fraction(4, 5))),
])
DISJOINT_EDGES = PatternPair(((1, 2),), ((3, 4),))


class TestExactPrefixLaw:
    def test_constant_kernel_k2(self):
        law = prefix_law_exact(StepGraphon.constant(Fraction(3, 10)), 2)
        assert law.probability(pair_bits_of(LabelledGraph.complete(2))) == Fraction(3, 10)
        assert law.probability(pair_bits_of(LabelledGraph.empty(2))) == Fraction(7, 10)

    def test_fair_kernel_k3_uniform(self):
        law = prefix_law_exact(HALF, 3)
        assert len(list(law.support())) == 8
        assert all(law.probability(g) == Fraction(1, 8) for g in law.support())

    def test_boys_girls_edge_mass(self):
        law = prefix_law_exact(BG, 2)
        assert law.probability(pair_bits_of(LabelledGraph.complete(2))) == Fraction(9, 20)

    def test_exact_mass_over_least_common_denominator(self):
        law = prefix_law_exact(BG, 2)
        assert (law.mass, law.total, law.is_empirical) == ({0: 11, 1: 9}, 20, False)
        law = PrefixLaw.exact(3, {5: Fraction(1, 6), 0: Fraction(1, 3), 7: Fraction(1, 2)})
        assert (law.mass, law.total) == ({5: 1, 0: 2, 7: 3}, 6)
        assert list(law.support()) == [5, 0, 7]  # insertion order, not sorted

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_every_labelled_graph_matches_brute_force(self, data):
        m = data.draw(st.integers(1, 3))
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        mu = [Fraction(x, sum(sizes)) for x in sizes]
        vals = {(a, b): Fraction(data.draw(st.integers(0, 4)), 4) for a in range(m) for b in range(a, m)}
        w = [[vals[min(a, b), max(a, b)] for b in range(m)] for a in range(m)]
        k = data.draw(st.integers(1, 4))
        law = prefix_law_exact(StepGraphon(mu, w), k)
        for g in all_labelled_graphs(k):
            assert law.probability(pair_bits_of(g)) == brute_kernel_sum(g, mu, w, induced=True)

    @pytest.mark.parametrize("w", [BG, HALF, StepGraphon([Fraction(1, 3), Fraction(2, 3)], [[0, 1], [1, 0]])])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_class_masses_equal_the_per_code_law(self, w, k):
        # per code: one density per class, spread to its members, then PrefixLaw.exact
        probs: dict[int, Fraction] = {}
        for code in range(1 << k * (k - 1) // 2):
            if code not in probs:
                g = graph_from_pair_bits(k, code)
                probs.update(dict.fromkeys(isomorphism_class(g), exact_ind_density(g, w)))
        law, ref = prefix_law_exact(w, k), PrefixLaw.exact(k, probs)
        assert list(law.mass.items()) == list(ref.mass.items())  # same masses, same order
        assert (law.total, law.is_empirical) == (ref.total, False)

    @pytest.mark.parametrize("w", [BG, HALF])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sums_to_one_and_class_constant(self, w, k):
        law = prefix_law_exact(w, k)
        assert sum((law.probability(c) for c in law.support()), Fraction(0)) == 1
        for c in law.support():
            members = isomorphism_class(graph_from_pair_bits(k, c))
            assert len({law.probability(m) for m in members}) == 1


class TestEmpiricalPrefixLaw:
    def test_prefix_cap_names_the_size(self):
        with pytest.raises(CapacityError, match=r"capped at 16 vertices, got 17"):
            prefix_law_empirical(GraphSource.w_random(HALF), 17, 10, stream(0))
        with pytest.raises(CapacityError, match=r"capped at 16 vertices, got 17"):
            PatternPair(((1, 2),), ((3, 17),))
        with pytest.raises(InputError):
            prefix_law_empirical(GraphSource.w_random(HALF), 0, 10, stream(0))

    def test_class_cap_names_the_size(self):
        with pytest.raises(CapacityError, match=r"capped at 7 vertices, got 8"):
            isomorphism_class(LabelledGraph.empty(8))

    def test_zero_kernel_point_mass(self):
        src = GraphSource.w_random(StepGraphon.constant(0))
        law = prefix_law_empirical(src, 3, 500, stream(0))
        assert (law.mass, law.total, law.is_empirical) == ({pair_bits_of(LabelledGraph.empty(3)): 500}, 500, True)

    def test_fair_kernel_edge_frequency(self):
        src = GraphSource.w_random(HALF)
        law = prefix_law_empirical(src, 2, 100_000, stream(1))
        freq = float(law.probability(pair_bits_of(LabelledGraph.complete(2))))
        assert abs(freq - 0.5) <= 3 / (2 * math.sqrt(100_000))

    def test_mixture_edge_frequency(self):
        law = prefix_law_empirical(MIX, 2, 100_000, stream(2))
        freq = float(law.probability(pair_bits_of(LabelledGraph.complete(2))))
        assert abs(freq - 0.5) <= 3 / (2 * math.sqrt(100_000))

    @pytest.mark.parametrize("weights", [(Fraction(9, 20), Fraction(9, 20)), (1, 0), (Fraction(1, 2), -1), ()])
    def test_mixture_weights_pass_the_block_measure_check(self, weights):
        # the one tolerance, MEASURE_TOL: 9/10 is far outside it
        with pytest.raises(InputError, match="mixture weights"):
            GraphSource.mixture([(wt, HALF) for wt in weights])

    @pytest.mark.parametrize("w", [BG, GeneralGraphon(lambda x, y: (x + y) / 2)], ids=["step", "general"])
    def test_one_component_mixture_draws_like_its_kernel(self, w):
        # one component draws no component index, so both read the same uniforms
        one, plain = GraphSource.mixture([(1, w)]), GraphSource.w_random(w)
        for k, count in ((2, 1), (5, 300)):
            assert np.array_equal(one.pair_bits_batch(k, count, stream(6, k)),
                                  plain.pair_bits_batch(k, count, stream(6, k)))
        assert one.sample_prefix(30, stream(7)) == plain.sample_prefix(30, stream(7))

    def test_sampler_hook_source(self):
        src = GraphSource.from_sampler(lambda n, rng: LabelledGraph.complete(n))
        law = prefix_law_empirical(src, 3, 50, stream(3))
        assert law.mass == {pair_bits_of(LabelledGraph.complete(3)): 50}

    @pytest.mark.parametrize("k", [12, 16])
    def test_codes_stay_exact_past_63_pairs(self, k):
        # every code decodes to a row the sampler draws from the same stream, as often
        src = GraphSource.w_random(HALF)
        law = prefix_law_empirical(src, k, 2000, stream(3))
        drawn = Counter(map(tuple, src.pair_bits_batch(k, 2000, stream(3)).tolist()))
        jj, ii = np.tril_indices(k, -1)  # colex pair order
        decoded = Counter()
        for code, n in law.mass.items():
            rows = graph_from_pair_bits(k, code).rows
            decoded[tuple(bool(rows[i] >> j & 1) for i, j in zip(ii.tolist(), jj.tolist()))] += n
        assert decoded == drawn

    def test_support_sorted_within_each_chunk_new_codes_appended(self):
        src = GraphSource.w_random(HALF)
        law = prefix_law_empirical(src, 7, CHUNK + 500, stream(4))
        rng, weights = stream(4), 1 << np.arange(21)
        first = set((src.pair_bits_batch(7, CHUNK, rng) @ weights).tolist())
        second = set((src.pair_bits_batch(7, 500, rng) @ weights).tolist())
        expected = sorted(first) + sorted(second - first)
        assert list(law.support()) == expected != sorted(expected)

    def test_tv_distance_shrinks(self):
        exact = prefix_law_exact(BG, 3)
        src = GraphSource.w_random(BG)
        support = list(exact.support())

        def tv(samples, seed):
            law = prefix_law_empirical(src, 3, samples, stream(seed))
            return sum(abs(float(law.probability(g) - exact.probability(g))) for g in support) / 2

        med = lambda xs: sorted(xs)[len(xs) // 2]
        m_small = med([tv(1000, s) for s in range(10)])
        m_big = med([tv(100_000, s) for s in range(10)])
        assert m_big < m_small / 3  # expect ~1/10 at the n^(-1/2) rate


class TestExchangeabilityTest:
    def test_exact_law_consistent(self):
        for w in (BG, HALF):
            assert exchangeability_test(prefix_law_exact(w, 3)).consistent

    def test_handbuilt_asymmetric_law_rejected(self):
        law = PrefixLaw.exact(3, {pair_bits_of(LabelledGraph.path(3)): Fraction(1)})
        verdict = exchangeability_test(law)
        assert not verdict.consistent
        assert "unequal" in verdict.detail

    def test_empirical_consistent_for_w_random(self):
        src = GraphSource.w_random(HALF)
        law = prefix_law_empirical(src, 3, 20_000, stream(4))
        assert exchangeability_test(law, alpha=0.01).consistent

    def test_empirical_calibration(self):
        src = GraphSource.w_random(HALF)
        ok = sum(
            exchangeability_test(
                prefix_law_empirical(src, 3, 10_000, stream(s, 7)), alpha=0.01
            ).consistent
            for s in range(50)
        )
        assert ok >= 45

    def test_empirical_detects_labelled_bias(self):
        # a sampler that always outputs the same labelled path: class-mates starve
        src = GraphSource.from_sampler(lambda n, rng: LabelledGraph.path(n))
        law = prefix_law_empirical(src, 3, 2000, stream(5))
        assert not exchangeability_test(law).consistent

    def test_exact_rejection_names_first_support_graph_of_class(self):
        p3, other = LabelledGraph.path(3), LabelledGraph.from_edges(3, [(1, 3), (2, 3)])
        law = PrefixLaw.exact(3, {pair_bits_of(other): Fraction(1, 3), pair_bits_of(p3): Fraction(2, 3)})
        assert next(iter(law.support())) == pair_bits_of(other)
        verdict = exchangeability_test(law)
        assert not verdict.consistent and verdict.classes_tested == 1
        assert verdict.detail.startswith(f"class of graph with edges {other.edges()} ")


@st.composite
def cell_counts(draw):
    """Count vectors of 2-120 cells around a common level, so that the
    statistic spans the chi-square body and both tails."""
    cells = draw(st.integers(2, 120))
    level = draw(st.integers(0, 5000))
    spread = draw(st.integers(0, 4 * math.isqrt(level) + 4))
    low, high = max(0, level - spread), level + spread
    counts = draw(st.lists(st.integers(low, high), min_size=cells, max_size=cells))
    assume(sum(counts) > 0)
    return counts


MAX_DF = math.factorial(exchangeable.CLASS_CAP) - 1  # the widest class's degrees of freedom


@st.composite
def df_and_x(draw):
    """Degrees of freedom up to the widest class, and x across the body
    (in standard deviations of the chi-square) and both tails."""
    df = draw(st.integers(1, MAX_DF))
    x = draw(st.one_of(
        st.floats(-6, 80).map(lambda z: df + z * math.sqrt(2 * df)),
        st.floats(0, 12_000),
    ))
    return df, max(x, 0.0)


class TestChiSquareTail:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, 3000))
    def test_one_df_is_erfc(self, x):
        assert chi_square_tail(x, 1) == math.erfc(math.sqrt(x / 2))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0, 3000))
    def test_two_df_is_exp(self, x):
        # numpy's exp may differ from libm's in the last bit
        assert abs(chi_square_tail(x, 2) - math.exp(-x / 2)) <= 2 * math.ulp(math.exp(-x / 2))

    @settings(max_examples=300, deadline=None)
    @given(df_and_x())
    def test_relative_error_against_mpmath(self, case):
        mpmath = pytest.importorskip("mpmath")
        df, x = case
        with mpmath.workdps(40):
            ref = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
            assume(ref >= mpmath.mpf("1e-300"))
            assert abs(chi_square_tail(x, df) - ref) <= mpmath.mpf("1e-11") * ref

    @settings(max_examples=300, deadline=None)
    @given(cell_counts())
    def test_uniformity_p_value_matches_scipy(self, observed):
        special = pytest.importorskip("scipy.special")
        stat, p = chi_square_uniformity(observed)
        # the relative bound holds down to p = 1e-300; below that, near underflow, it is not promised
        assert p == pytest.approx(float(special.chdtrc(len(observed) - 1, stat)), rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 100, 719, 2520, MAX_DF])
    def test_edges(self, df):
        assert chi_square_tail(0.0, df) == 1.0
        assert chi_square_tail(math.inf, df) == 0.0
        assert chi_square_tail(1e6, df) == 0.0

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 100, 719, 2520, MAX_DF])
    def test_in_unit_interval_and_not_increasing(self, df):
        p = [chi_square_tail(x, df) for x in np.linspace(0, 4 * df + 200, 4001).tolist()]
        assert all(0.0 <= q <= 1.0 for q in p)
        # exactly where p < 1 - 1e-9; above that the true decrease from one
        # grid point to the next is below the sum's rounding, so only the
        # error bound holds
        assert all(b <= a if a < 1 - 1e-9 else b <= a * (1 + 1e-11) for a, b in zip(p, p[1:]))

    def test_needs_a_degree_of_freedom(self):
        with pytest.raises(InputError):
            chi_square_tail(1.0, 0)


@pytest.fixture
def class_calls(monkeypatch):
    """The first code of every graphs.isomorphism_class call, which
    graphs.pair_code_classes makes once per class it scans."""
    calls = []
    enumerate_class = graphs.isomorphism_class
    monkeypatch.setattr(graphs, "isomorphism_class", lambda g: calls.append(pair_bits_of(g)) or enumerate_class(g))
    return calls


class TestSupportClasses:
    @pytest.mark.parametrize("make_law", [
        lambda: prefix_law_exact(BG, 4),
        lambda: prefix_law_empirical(MIX, 4, 3000, stream(11)),
    ], ids=["law0", "law1"])
    def test_one_enumeration_per_class(self, class_calls, make_law):
        """The exact law scans its classes as it sums them, the empirical
        one when its classes are first read; a second read scans nothing."""
        law = make_law()
        classes = law.classes
        assert len(class_calls) == len(classes) == 11  # unlabelled graphs on 4 vertices
        first_of_class = {}  # class key -> its first support code
        for code in law.support():
            first_of_class.setdefault(min(isomorphism_class(graph_from_pair_bits(4, code))), code)
        assert class_calls == [members[0] for members in classes] == list(first_of_class.values())
        assert sorted(m for c in classes for m in c) == list(range(2**6))  # a partition of all codes
        class_calls.clear()
        assert law.classes is classes and not class_calls
        # the same masses in a law that scans its own classes: the same verdict
        fresh = PrefixLaw(law.k, dict(law.mass), law.total, law.is_empirical)
        assert exchangeability_test(fresh, 0.01) == exchangeability_test(law, 0.01)
        assert len(class_calls) == len(classes)

    @pytest.mark.parametrize("w, k", [
        (BG, 4), (HALF, 5), (StepGraphon.constant(Fraction(0)), 4), (StepGraphon.constant(Fraction(1)), 3),
        (boys_girls(Fraction(1, 3), 0, 0, Fraction(1, 2)), 4),
    ])
    def test_an_exact_law_keeps_its_support_classes(self, w, k):
        """prefix_law_exact presets the classes of non-zero mass, in the
        order pair_code_classes finds them again from its support; zero-mass
        classes (all but one under a constant 0 or 1 kernel, the
        non-bipartite graphs under a bipartite one) are left out."""
        law = prefix_law_exact(w, k)
        assert law.classes == tuple(pair_code_classes(k, law.support()))

    @pytest.mark.parametrize("k", [8, exchangeable.PREFIX_CAP])
    def test_a_law_above_the_class_cap_builds_without_a_scan(self, class_calls, k):
        law = prefix_law_empirical(GraphSource.w_random(HALF), k, 200, stream(12))
        assert law.total == 200 and not class_calls
        with pytest.raises(CapacityError, match=f"capped at {exchangeable.CLASS_CAP} vertices, got {k}"):
            exchangeability_test(law)
        assert not class_calls


class TestExtremality:
    def test_fair_kernel_consistent(self):
        src = GraphSource.w_random(HALF)
        v = extremality_test(src, [DISJOINT_EDGES], 100_000, seed=6)
        assert v.extreme_consistent
        assert abs(v.pair_stats[0].p12 - 0.25) < 0.01

    def test_mixture_rejected(self):
        v = extremality_test(MIX, [DISJOINT_EDGES], 100_000, seed=7)
        assert not v.extreme_consistent
        assert abs(v.pair_stats[0].p12 - 0.34) < 0.01

    def test_boys_girls_consistent(self):
        src = GraphSource.w_random(BG)
        v = extremality_test(src, [DISJOINT_EDGES], 100_000, seed=8)
        assert v.extreme_consistent

    def test_seeded_matches_threads(self):
        v1 = extremality_test(MIX, [DISJOINT_EDGES], 70_000, seed=3, threads=1)
        v4 = extremality_test(MIX, [DISJOINT_EDGES], 70_000, seed=3, threads=4)
        assert v1 == v4

    def test_overlapping_patterns_rejected(self):
        with pytest.raises(InputError):
            PatternPair(((1, 2),), ((2, 3),))

    def test_covariance_ztest_degenerate(self):
        assert covariance_ztest(100, 100, 100, 100) == (0.0, 0.0, 1.0)


def _hook(n, rng):
    """A sampler hook; its bounded 32-bit draw leaves a half word buffered,
    so a kernel drawn after it must draw its skipped uniforms, not jump."""
    return graph_from_pair_bits(n, int(rng.integers(0, 1 << n * (n - 1) // 2)))


# mixtures whose components draw in blocks: one-block (skipped latents), two-block, general, a
# sampler hook, and a zero-weight component that no sample picks
AGGREGATED = {
    "one-block": GraphSource.w_random(StepGraphon.constant(Fraction(3, 10))),
    "two-block": GraphSource.w_random(BG),
    "mixture": GraphSource.mixture([(Fraction(1, 4), StepGraphon.constant(Fraction(3, 10))), (Fraction(1, 4), BG),
                                    (Fraction(1, 2), GeneralGraphon(lambda x, y: x * y))]),
    "hook": GraphSource.mixture([(Fraction(1, 2), _hook), (Fraction(1, 2), StepGraphon.constant(Fraction(3, 5)))]),
    "zero-weight": GraphSource(((Fraction(1, 2), StepGraphon.constant(Fraction(1, 5))), (Fraction(0), BG),
                                (Fraction(1, 2), _hook))),
}
PAIRS = [DISJOINT_EDGES, PatternPair(((1, 3), (2, 3)), ((4, 5),)), PatternPair(((5, 6),), ((1, 2), (2, 3)))]


def _sums_in_sample_order(src, pairs, count, rng):
    """The three counts of each pair from the sample-order batch at every column."""
    bits = src.pair_bits_batch(max(p.k() for p in pairs), count, rng)
    out = []
    for pair in pairs:
        a, b = (bits[:, pair.columns(which)].all(axis=1) for which in (1, 2))
        out.append((int(a.sum()), int(b.sum()), int((a & b).sum())))
    return out


def _law_in_sample_order(src, k, samples, rng):
    """prefix_law_empirical's masses, in its order, from sample-order batches."""
    mass = {}
    for batch in chunk_sizes(samples):
        bits = src.pair_bits_batch(k, batch, rng)
        codes, counts = np.unique(bits @ (1 << np.arange(bits.shape[1], dtype=np.int64)), return_counts=True)
        for code, n in zip(codes.tolist(), counts.tolist()):
            mass[code] = mass.get(code, 0) + n
    return mass


class TestComponentMajorAggregates:
    """The empirical law and the extremality sums read each chunk
    component-major and only at the columns they use; they must equal
    what the sample-order batch at every column gives."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(AGGREGATED)), st.integers(1, 6), st.sampled_from([1, 2, 37, 400]), st.data(),
           st.integers(0, 2**32 - 1))
    def test_batches_agree_on_used_columns_and_rows(self, name, k, count, data, seed):
        src = AGGREGATED[name]
        used = sorted(data.draw(st.sets(st.integers(0, max(0, k * (k - 1) // 2 - 1)), max_size=k * (k - 1) // 2)))
        g1, g2, g3 = stream(seed), stream(seed), stream(seed)
        full = src.pair_bits_batch(k, count, g1)
        assert np.array_equal(src.pair_bits_batch(k, count, g2, used), full[:, used])
        grouped = src.pair_bits_batch(k, count, g3, used, sample_order=False)
        assert Counter(map(tuple, grouped.tolist())) == Counter(map(tuple, full[:, used].tolist()))
        assert g1.random() == g2.random() == g3.random()

    @pytest.mark.parametrize("name", sorted(AGGREGATED))
    @pytest.mark.parametrize("count", [1, 2, 300])
    @pytest.mark.parametrize("npairs", [1, 2, 3])
    def test_extremality_sums(self, name, count, npairs):
        src, pairs = AGGREGATED[name], PAIRS[:npairs]
        sums = _sums_in_sample_order(src, pairs, count, stream(count, 0))  # the one chunk's stream
        v = extremality_test(src, pairs, count, seed=count)
        assert [(s.p1, s.p2, s.p12) for s in v.pair_stats] == [(a / count, b / count, ab / count)
                                                               for a, b, ab in sums]

    @pytest.mark.parametrize("name", sorted(AGGREGATED))
    @pytest.mark.parametrize("k, samples", [(1, 1), (3, 1), (4, 2), (5, 300), (6, 2000)])
    def test_empirical_law_masses_and_order(self, name, k, samples):
        law = prefix_law_empirical(AGGREGATED[name], k, samples, stream(k, samples))
        assert list(law.mass.items()) == list(_law_in_sample_order(AGGREGATED[name], k, samples,
                                                                   stream(k, samples)).items())

    @pytest.mark.parametrize("name", ["one-block", "mixture"])
    def test_empirical_law_over_two_chunks(self, name):
        law = prefix_law_empirical(AGGREGATED[name], 5, CHUNK + 5, stream(9))
        assert list(law.mass.items()) == list(_law_in_sample_order(AGGREGATED[name], 5, CHUNK + 5,
                                                                   stream(9)).items())


class TestCorrespondence:
    def test_constant_kernel_edge(self):
        res = correspondence_check(StepGraphon.constant(Fraction(3, 10)), LabelledGraph.complete(2), 2)
        assert res.lhs == res.rhs == Fraction(3, 10)
        assert res.gap == 0

    def test_fair_kernel_path(self, p3):
        res = correspondence_check(HALF, p3, 3)
        assert res.lhs == Fraction(1, 4)
        assert res.gap == 0

    def test_boys_girls_edge_k3(self):
        res = correspondence_check(BG, LabelledGraph.complete(2), 3)
        assert res.gap == 0
        assert res.lhs == Fraction(9, 20)

    @pytest.mark.parametrize("k", [3, 4])
    def test_all_small_patterns(self, k):
        for f in (g.canon for g in enumerate_unlabelled(k).graphs):
            res = correspondence_check(BG, f, k)
            assert res.gap == 0, (f, k)

    def test_pattern_too_big(self):
        with pytest.raises(InputError):
            correspondence_check(HALF, LabelledGraph.complete(4), 3)


class TestMartingaleTrace:
    def test_complete_kernel_constant_trace(self, edge):
        src = GraphSource.w_random(StepGraphon.constant(1))
        trace = martingale_trace(src, edge, [5, 10, 20], stream(9))
        assert trace == [1, 1, 1]

    def test_trace_converges_to_density(self, edge):
        src = GraphSource.w_random(HALF)
        finals = [float(martingale_trace(src, edge, [10, 40, 160], stream(s, 3))[-1]) for s in range(5)]
        for x in finals:
            assert abs(x - 0.5) < 0.05

    def test_fluctuations_shrink(self, edge):
        src = GraphSource.w_random(HALF)
        d1, d2 = [], []
        for s in range(20):
            tr = [float(x) for x in martingale_trace(src, edge, [10, 40, 160], stream(s, 11))]
            d1.append(abs(tr[1] - tr[0]))
            d2.append(abs(tr[2] - tr[1]))
        med = lambda xs: sorted(xs)[len(xs) // 2]
        assert med(d2) < med(d1)

    def test_grid_validation(self, edge):
        src = GraphSource.w_random(HALF)
        with pytest.raises(InputError):
            martingale_trace(src, edge, [10, 10], stream(0))
        with pytest.raises(InputError):
            martingale_trace(src, LabelledGraph.complete(3), [2, 10], stream(0))
        with pytest.raises(InputError, match="n_grid is empty"):
            martingale_trace(src, edge, [], stream(0))

    def test_mixture_draws_kernel_once_per_path(self):
        # a 0/1 mixture yields traces that are entirely 0 or entirely 1
        mix = GraphSource.mixture([
            (Fraction(1, 2), StepGraphon.constant(0)),
            (Fraction(1, 2), StepGraphon.constant(1)),
        ])
        for s in range(10):
            tr = martingale_trace(mix, LabelledGraph.complete(2), [4, 8, 16], stream(s, 13))
            assert tr in ([0, 0, 0], [1, 1, 1])


class TestPrefixLawValidation:
    def test_exact_law_must_sum_to_one(self):
        with pytest.raises(InputError):
            PrefixLaw.exact(2, {pair_bits_of(LabelledGraph.complete(2)): Fraction(1, 2)})

    @pytest.mark.parametrize("mass, total, message", [
        ({0: 2}, 1, r"must lie in \[0,1\]"),
        ({0: -1, 1: 2}, 1, r"must lie in \[0,1\]"),
        ({0: 1}, 2, "must sum to exactly 1"),
        ({0: 1, 2: 0}, 1, "pair code 2 is not a graph on 2 vertices"),
    ])
    def test_integer_masses_are_checked(self, mass, total, message):
        with pytest.raises(InputError, match=message):
            PrefixLaw(2, mass, total, False)

    @pytest.mark.parametrize("make_law, message", [
        (lambda: PrefixLaw.empirical(2, {0: 5, 1: -1}), r"must lie in \[0,1\]"),
        (lambda: PrefixLaw(3, {1: 5, 2: 1.5}, 7, True), r"must lie in \[0,1\], as integer masses"),
        (lambda: PrefixLaw(2, {}, 0, False), "needs an integer total of at least 1, got 0"),
        (lambda: PrefixLaw(2, {0: 7}, 7.0, True), "needs an integer total of at least 1, got 7.0"),
        (lambda: PrefixLaw(2, {0: 3, 1: 3}, 7, True), "must sum to exactly 1"),
    ], ids=["negative-count", "float-mass", "zero-total", "float-total", "short-count"])
    def test_every_law_is_checked_whatever_its_kind(self, make_law, message):
        """Empirical laws pass the rule of exact ones: integer masses in
        [0, total] that sum to a total of at least 1."""
        with pytest.raises(InputError, match=message):
            make_law()

    @pytest.mark.parametrize("probs, message", [
        ({0: Fraction(3, 2), 1: Fraction(-1, 2)}, r"must lie in \[0,1\]"),
        ({0: Fraction(1, 3)}, "must sum to exactly 1"),
        ({0: Fraction(1), 3: Fraction(0)}, "pair code 3 is not a graph on 2 vertices"),  # even at mass 0
    ])
    def test_exact_messages(self, probs, message):
        with pytest.raises(InputError, match=message):
            PrefixLaw.exact(2, probs)

    def test_probability_checks_size(self):
        # a code names a graph on [k] only if 0 <= code < 2^(k(k-1)/2)
        law = prefix_law_exact(HALF, 2)
        for code in (-1, 2, pair_bits_of(LabelledGraph.complete(3))):
            with pytest.raises(InputError, match=f"pair code {code} is not a graph on 2 vertices"):
                law.probability(code)
        with pytest.raises(InputError):
            PrefixLaw.exact(2, {0: Fraction(1, 2), 2: Fraction(1, 2)})
        with pytest.raises(InputError):
            PrefixLaw.empirical(2, {1: 3, -1: 3})
        assert PrefixLaw.empirical(2, {1: 3, 0: 1}).probability(1) == Fraction(3, 4)
