"""Prefix laws of exchangeable random graphs and the tests they support.

An infinite random graph never materialises here: everything goes
through the law of its restriction to the first k vertices. Exact
prefix laws come from step kernels; empirical ones from seeded
samplers. The exchangeability check and the extremality (product
criterion) check are finite-sample bridges to the corresponding
structural properties of the infinite law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Callable, Collection, KeysView, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import CapacityError, InputError
from .exact import Number, _normalized_measures
from .graphon import GeneralGraphon, StepGraphon, exact_density, exact_ind_density, pair_bits, sample_w_random
from .graphs import (  # check_class_size and isomorphism_class are re-exported
    CLASS_CAP, LabelledGraph, UnlabelledGraph, check_class_size, check_host_size, graph_from_pair_bits,
    isomorphism_class, pack_bits, pair_bits_of, pair_code_classes, pair_index, restrict_prefix, unpack_bits, word_ints,
)
from .rng import chunk_sizes, draw_blocks, run_chunked

# densities, the contraction engine, is imported inside the functions that count
# or contract, so that the samplers and the tests on them never load it.
PREFIX_CAP = 16


@dataclass(frozen=True)
class PrefixLaw:
    """Distribution of the first-k restriction, over labelled graphs on [k]
    named by their pair codes (bit pair_index(u, v) per edge).

    Each code carries an integer mass over one common `total`: the least
    common denominator of an exact law, the sample count of an empirical
    one. Codes absent from `mass` have probability 0.
    """

    k: int
    mass: dict[int, int]
    total: int
    is_empirical: bool

    def __post_init__(self) -> None:
        """Every code names a graph on [k], and every law, exact or
        empirical, holds integer masses in [0, total] that sum to total >= 1."""
        _check_codes(self.k, self.mass)
        if not (isinstance(self.total, int) and self.total >= 1):
            raise InputError(f"prefix law needs an integer total of at least 1, got {self.total!r}")
        masses = self.mass.values()
        summed = sum(masses)  # an int only if every mass is one
        if not isinstance(summed, int) or masses and not 0 <= min(masses) <= max(masses) <= self.total:
            raise InputError("probabilities must lie in [0,1], as integer masses over the total")
        if summed != self.total:
            raise InputError("prefix law must sum to exactly 1")

    @cached_property
    def classes(self) -> tuple[list[int], ...]:
        """The isomorphism classes that meet the support, as pair codes, in
        order of first appearance there; each is enumerated once, from its
        first support code, which heads its list. Read lazily, so a law
        holds up to PREFIX_CAP vertices; reading it above CLASS_CAP raises
        CapacityError."""
        return tuple(pair_code_classes(self.k, self.mass))

    @classmethod
    def exact(cls, k: int, probs: Mapping[int, Fraction | int]) -> "PrefixLaw":
        _check_codes(k, probs)  # zero-probability codes too
        total = math.lcm(*{p.denominator for p in probs.values()})
        return cls(k, {c: p.numerator * (total // p.denominator) for c, p in probs.items() if p}, total, False)

    @classmethod
    def empirical(cls, k: int, counts: Mapping[int, int]) -> "PrefixLaw":
        mass = {c: int(n) for c, n in counts.items() if n}
        return cls(k, mass, sum(mass.values()), True)

    def probability(self, code: int) -> Fraction:
        _check_codes(self.k, (code,))
        return Fraction(self.mass.get(code, 0), self.total)

    def support(self) -> KeysView[int]:
        return self.mass.keys()


def _check_codes(k: int, codes: Collection[int]) -> None:
    """Every code must name a graph on [k]: 0 <= code < 2^(k(k-1)/2)."""
    top = 1 << k * (k - 1) // 2
    if codes and not 0 <= min(codes) <= max(codes) < top:
        bad = next(c for c in codes if not 0 <= c < top)
        raise InputError(f"pair code {bad} is not a graph on {k} vertices")


def prefix_law_exact(w: StepGraphon, k: int) -> PrefixLaw:
    """Exact law of the k-prefix of the W-random graph. The law is constant
    on isomorphism classes, so each class gets one exact_ind_density, and
    each member its class's integer mass over one common denominator. Its
    support holds each class of non-zero mass whole, in the order found,
    so its `classes` are those classes and are not enumerated again."""
    from .densities import TERM_CAP

    if k < 1:
        raise InputError("k must be >= 1")
    npairs = k * (k - 1) // 2
    if w.m**k * 2**npairs > TERM_CAP:
        raise CapacityError(f"{w.m}^{k} * 2^{npairs} terms exceed cap {TERM_CAP}")
    classes = [(members, exact_ind_density(graph_from_pair_bits(k, members[0]), w))
               for members in pair_code_classes(k, range(1 << npairs))]
    total = math.lcm(*(p.denominator for _, p in classes))
    mass: dict[int, int] = {}
    for members, p in classes:
        if p:
            mass.update(dict.fromkeys(members, p.numerator * (total // p.denominator)))
    law = PrefixLaw(k, mass, total, False)
    object.__setattr__(law, "classes", tuple(members for members, p in classes if p))  # preset: no second scan
    return law


# a string, so that importing this module does not load numpy.random
Part = Union[StepGraphon, GeneralGraphon, Callable[[int, "np.random.Generator"], LabelledGraph]]


@dataclass(frozen=True)
class GraphSource:
    """Sampler of prefixes of an exchangeable infinite graph: a finite
    mixture of (weight, part) components, each part a kernel or an external
    sampler hook (n, rng) -> LabelledGraph. The component is redrawn once
    per sampled prefix, not per edge; a source of one component, an
    extreme one, draws no component index.
    """

    components: tuple[tuple[Fraction, Part], ...]

    @classmethod
    def w_random(cls, w: StepGraphon | GeneralGraphon) -> "GraphSource":
        return cls.mixture([(1, w)])

    @classmethod
    def mixture(cls, parts: Sequence[tuple[Number, Part]]) -> "GraphSource":
        weights = _normalized_measures([wt for wt, _ in parts], "mixture weights")
        return cls(tuple(zip(weights, (part for _, part in parts))))

    @classmethod
    def from_sampler(cls, fn: Callable[[int, np.random.Generator], LabelledGraph]) -> "GraphSource":
        return cls.mixture([(1, fn)])

    def _pick_components(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if len(self.components) == 1:
            return np.zeros(count, dtype=np.intp)
        return draw_blocks([wt for wt, _ in self.components], (count,), rng)

    def sample_prefix(self, n: int, rng: np.random.Generator) -> LabelledGraph:
        part = self.components[self._pick_components(1, rng)[0]][1]
        return part(n, rng) if callable(part) else sample_w_random(part, n, rng)

    def pair_bits_batch(self, k: int, count: int, rng: np.random.Generator, used: Sequence[int] | None = None,
                        *, sample_order: bool = True) -> np.ndarray:
        """Boolean array (count, k*(k-1)/2): edge indicators of iid k-prefixes,
        columns in colex pair order, or only the increasing pair indices
        `used`. Each component draws its prefixes in one block, in component
        order; the rows go back to sample order unless sample_order=False,
        for callers that only sum or count them."""
        jj, ii = np.tril_indices(k, -1)  # colex: (0,1), (0,2), (1,2), (0,3), ...
        comp = self._pick_components(count, rng)
        out = np.empty((len(ii) if used is None else len(used), count), dtype=bool)  # transposed, as pair_bits draws
        start = 0
        sizes = np.bincount(comp, minlength=len(self.components)).tolist()
        for c, ((_, part), n_c) in enumerate(zip(self.components, sizes)):
            if not n_c:
                continue
            if callable(part):
                bits = np.array([unpack_bits(restrict_prefix(part(k, rng), k).words, k)[ii, jj] for _ in range(n_c)])
                bits = bits if used is None else bits[:, used]
            else:
                bits = pair_bits(part, k, n_c, ii, jj, rng, used)
            rows = comp == c if sample_order and len(self.components) > 1 else slice(start, start + n_c)
            out[:, rows] = bits.T
            start += n_c
        return out.T


def prefix_law_empirical(
    src: GraphSource, k: int, samples: int, rng: np.random.Generator
) -> PrefixLaw:
    """Empirical distribution of the k-prefix over seeded iid samples. The
    support lists each chunk's new codes in increasing order, chunk by chunk;
    np.unique sorts them, so a chunk's rows are read component-major."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    if k < 1:
        raise InputError(f"prefix size must be >= 1, got {k}")
    if k > PREFIX_CAP:
        raise CapacityError(f"prefix size capped at {PREFIX_CAP} vertices, got {k}")
    counts: dict[int, int] = {}
    for batch in chunk_sizes(samples):
        bits = src.pair_bits_batch(k, batch, rng, sample_order=False)
        if bits.shape[1] < 64:  # the codes fit in int64
            codes = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))
        else:
            codes = np.array(word_ints(pack_bits(bits)), dtype=object)
        vals, cnts = np.unique(codes, return_counts=True)  # in increasing code order
        for v, c in zip(vals.tolist(), cnts.tolist()):
            counts[v] = counts.get(v, 0) + c
    return PrefixLaw.empirical(k, counts)


TAIL_TERMS = math.factorial(CLASS_CAP) // 2  # series terms of the widest class's tail


@lru_cache(maxsize=None)
def _tail_series(odd: bool, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents a = i (even df) or i + 1/2 (odd df) for i < size, and lgamma(a + 1)."""
    a = np.arange(size) + (0.5 if odd else 0.0)
    return a, np.array([math.lgamma(x + 1) for x in a.tolist()])


def chi_square_tail(x: float, df: int) -> float:
    """P(X > x) for X chi-square with df degrees of freedom, by the closed
    forms of Abramowitz & Stegun 26.4.4-5. With h = x/2 and m = df // 2:

        even df:  sum_{i<m} e^-h h^i / i!
        odd df:   erfc(sqrt h) + sum_{i<m} e^-h h^(i+1/2) / Gamma(i+3/2)

    Each term is exp((i+off) log h - h - lgamma(i+1+off)), so no power or
    factorial overflows. Every term is positive, so the sum cancels
    nothing; the error comes from rounding the exponents, and against
    40-digit references it stays below 1e-11 relative for df < 5040 and
    p >= 1e-300.
    """
    if df < 1:
        raise InputError(f"chi-square needs df >= 1, got {df}")
    h = x / 2
    if h <= 0:  # x/2 underflows to 0 only where P(X > x) rounds to 1
        return 1.0
    if h == math.inf:
        return 0.0
    odd = df % 2 == 1
    m = df // 2
    a, lg = _tail_series(odd, max(m, TAIL_TERMS))
    p = float(np.exp(a[:m] * math.log(h) - h - lg[:m]).sum())
    if odd:
        p = math.erfc(math.sqrt(h)) + p
    return 1.0 if p > 1.0 else p  # rounding may sum the terms past 1


def chi_square_uniformity(observed: Sequence[int]) -> tuple[float, float]:
    """Chi-square statistic and p-value for uniformity over the cells."""
    c = len(observed)
    n = sum(observed)
    expected = n / c
    stat = sum((o - expected) ** 2 / expected for o in observed)
    return stat, chi_square_tail(stat, c - 1)


def check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:  # NaN fails too
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")


class ExchangeabilityVerdict(NamedTuple):
    consistent: bool
    detail: str | None
    p_min: float | None
    classes_tested: int


def exchangeability_test(law: PrefixLaw, alpha: float = 0.01) -> ExchangeabilityVerdict:
    """Check that the prefix law depends only on isomorphism type.

    Exact laws are checked for exact equality within each of `law.classes`;
    empirical laws get a chi-square homogeneity test per class with a
    Bonferroni correction across classes.
    """
    check_alpha(alpha)
    classes = law.classes
    if not law.is_empirical:
        for members in classes:
            if len({law.mass.get(m, 0) for m in members}) > 1:
                bad = graph_from_pair_bits(law.k, members[0])
                detail = f"class of graph with edges {bad.edges()} has unequal probabilities"
                return ExchangeabilityVerdict(False, detail, None, len(classes))
        return ExchangeabilityVerdict(True, None, None, len(classes))
    testable = [m for m in classes if len(m) > 1]
    if not testable:
        return ExchangeabilityVerdict(True, None, None, 0)
    p_min, worst = 1.0, None
    for members in testable:
        _, p = chi_square_uniformity([law.mass.get(m, 0) for m in members])
        if p < p_min:
            p_min, worst = p, members[0]
    if p_min < alpha / len(testable):
        bad = graph_from_pair_bits(law.k, worst)
        detail = f"class of graph with edges {bad.edges()} fails homogeneity (p={p_min:.3g})"
        return ExchangeabilityVerdict(False, detail, p_min, len(testable))
    return ExchangeabilityVerdict(True, None, p_min, len(testable))


@dataclass(frozen=True)
class PatternPair:
    """Two edge sets on disjoint vertex supports inside a common prefix."""

    edges1: tuple[tuple[int, int], ...]
    edges2: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for edges in (self.edges1, self.edges2):
            if not edges:
                raise InputError("each pattern needs at least one edge")
            for u, v in edges:
                if u == v or u < 1 or v < 1:
                    raise InputError(f"bad edge ({u},{v})")
        if self.support(1) & self.support(2):
            raise InputError("pattern vertex sets must be disjoint")
        if self.k() > PREFIX_CAP:
            raise CapacityError(f"prefix size capped at {PREFIX_CAP} vertices, got {self.k()}")

    def support(self, which: int) -> frozenset[int]:
        edges = self.edges1 if which == 1 else self.edges2
        return frozenset(v for e in edges for v in e)

    def k(self) -> int:
        return max(v for e in self.edges1 + self.edges2 for v in e)

    def columns(self, which: int) -> list[int]:
        edges = self.edges1 if which == 1 else self.edges2
        return [pair_index(u, v) for u, v in edges]


def covariance_ztest(n: int, sum_a: int, sum_b: int, sum_ab: int) -> tuple[float, float, float]:
    """Two-sided z-test of P(A and B) = P(A) P(B) for paired indicators.

    Returns (cov_hat, z, p_value). The variance of the plug-in covariance
    uses the exact Bernoulli moment identity, so only the three sums are
    needed and chunked results merge exactly.
    """
    p1, p2, p12 = sum_a / n, sum_b / n, sum_ab / n
    cov = p12 - p1 * p2
    second = (
        p12 * (1 - 2 * p1) * (1 - 2 * p2)
        + p1 * (1 - 2 * p1) * p2**2
        + p2 * (1 - 2 * p2) * p1**2
        + p1**2 * p2**2
    )
    var = max(second - cov**2, 0.0)
    if var == 0.0:
        return (cov, 0.0, 1.0) if cov == 0.0 else (cov, math.inf, 0.0)
    z = cov / math.sqrt(var / n)
    return cov, z, math.erfc(abs(z) / math.sqrt(2.0))


class PairStat(NamedTuple):
    p1: float
    p2: float
    p12: float
    z: float
    p_value: float


class ExtremalityVerdict(NamedTuple):
    extreme_consistent: bool
    pair_stats: tuple[PairStat, ...]
    p_min: float


def _pair_sums_chunk(
    src: GraphSource, pairs: Sequence[PatternPair], k: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per pair, the counts of prefixes holding the first pattern, the
    second, and both: sums, so the rows are drawn component-major, and only
    at the pair columns that some pattern reads."""
    used = sorted({c for pair in pairs for which in (1, 2) for c in pair.columns(which)})
    at = {c: i for i, c in enumerate(used)}
    bits = src.pair_bits_batch(k, count, rng, used, sample_order=False)
    sums = np.zeros((len(pairs), 3), dtype=np.int64)
    for idx, pair in enumerate(pairs):
        a = bits[:, [at[c] for c in pair.columns(1)]].all(axis=1)
        b = bits[:, [at[c] for c in pair.columns(2)]].all(axis=1)
        sums[idx] = (int(a.sum()), int(b.sum()), int((a & b).sum()))
    return sums


def extremality_test(
    src: GraphSource,
    pairs: Sequence[PatternPair],
    samples: int,
    alpha: float = 0.01,
    *,
    seed: int,
    threads: int = 1,
) -> ExtremalityVerdict:
    """Product-criterion test: containment of vertex-disjoint patterns must
    be uncorrelated under an extreme (single-kernel) law.

    All patterns of all pairs are evaluated on one common prefix sample,
    drawn in fixed chunks of the seed's streams, so the verdict does not
    depend on the thread count. Per pair, a delta-method z-test of
    P(both) = P(first) P(second), with Bonferroni correction across pairs.
    """
    check_alpha(alpha)
    if not pairs:
        raise InputError("need at least one pattern pair")
    if samples < 1:
        raise InputError("samples must be >= 1")
    k = max(p.k() for p in pairs)
    parts = run_chunked(
        lambda _i, count, gen: _pair_sums_chunk(src, pairs, k, count, gen), samples, seed, threads
    )
    sums = np.sum(parts, axis=0)
    stats = []
    for sa, sb, sab in sums:
        _, z, p = covariance_ztest(samples, int(sa), int(sb), int(sab))
        stats.append(PairStat(sa / samples, sb / samples, sab / samples, z, p))
    p_min = min(s.p_value for s in stats)
    consistent = p_min >= alpha / len(pairs)
    return ExtremalityVerdict(consistent, tuple(stats), p_min)


class CorrespondenceResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    gap: Fraction


def correspondence_check(
    w: StepGraphon, f: LabelledGraph | UnlabelledGraph, k: int
) -> CorrespondenceResult:
    """Exact identity: the kernel density of f equals the prefix-law mass of
    all k-vertex labelled graphs containing f."""
    from .densities import _as_labelled

    fl = _as_labelled(f)
    if not fl.n <= k:
        raise InputError(f"pattern on {fl.n} vertices does not fit in prefix of {k}")
    lhs = exact_density(fl, w)
    law = prefix_law_exact(w, k)
    f_mask = pair_bits_of(fl)
    rhs = Fraction(sum(n for c, n in law.mass.items() if c & f_mask == f_mask), law.total)
    return CorrespondenceResult(lhs, rhs, abs(lhs - rhs))


def martingale_trace(
    src: GraphSource,
    f: LabelledGraph | UnlabelledGraph,
    n_grid: Sequence[int],
    rng: np.random.Generator,
) -> list[Fraction]:
    """Induced density of f along nested restrictions of one sampled prefix.

    One path, restricted downward; never independent resamples, so the
    trace is a single realisation of the reverse martingale.
    """
    from .densities import _as_labelled, t_ind

    fl = _as_labelled(f)
    grid = list(n_grid)
    if not grid:
        raise InputError("n_grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("n_grid must be strictly increasing")
    if grid[0] < fl.n:
        raise InputError(f"grid starts below the pattern size {fl.n}")
    check_host_size(grid[-1])
    top = src.sample_prefix(grid[-1], rng)
    return [t_ind(fl, restrict_prefix(top, n)) for n in grid]
