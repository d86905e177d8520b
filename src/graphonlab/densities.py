"""Homomorphism-density calculus: t, t_inj, t_ind, conversions, embeddings.

Exact values are arbitrary-precision rationals (fractions.Fraction); the
inclusion-exclusion identities and multiplicativity over disjoint unions
hold exactly, not approximately. Floats appear only in Monte Carlo
estimates and at the CLI boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import CapacityError, InputError, InvariantError
from .graphs import (
    GraphEnumeration,
    LabelledGraph,
    UnlabelledGraph,
    disjoint_union,
    graph_from_pair_bits,
    pack_rows,
    pair_bits_of,
    unpack_rows,
)

PATTERN_CAP = 8
TERM_CAP = 10**7

GraphLike = Union[LabelledGraph, UnlabelledGraph]


def _as_labelled(f: GraphLike) -> LabelledGraph:
    return f.canon if isinstance(f, UnlabelledGraph) else f


def _check_pattern(f: LabelledGraph) -> None:
    if f.n > PATTERN_CAP:
        raise CapacityError(f"pattern capped at {PATTERN_CAP} vertices, got {f.n}")


def falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _search_order(rows: Sequence[int]) -> list[int]:
    """Order pattern vertices so each one touches as many predecessors as
    possible; keeps the backtracking candidate sets tight."""
    n = len(rows)
    order: list[int] = []
    chosen = 0
    for _ in range(n):
        best = max(
            (v for v in range(n) if not chosen >> v & 1),
            key=lambda v: ((rows[v] & chosen).bit_count(), rows[v].bit_count(), -v),
        )
        order.append(best)
        chosen |= 1 << best
    return order


def _undirected(rows: Sequence[int]) -> list[int]:
    """Symmetric, loopless closure of out-neighbour rows."""
    return [(r | c) & ~(1 << u) for u, (r, c) in enumerate(zip(rows, _transpose(rows, len(rows))))]


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """In-neighbour rows (bit i of column j) of out-rows over `width` columns."""
    return list(pack_rows(unpack_rows(rows, width).T))


def _count_maps(
    prows: Sequence[int],
    hout: Sequence[int],
    hin: Sequence[int],
    masks: Sequence[int],
    injective: bool,
    induced: bool,
) -> int:
    """Count maps phi from the pattern's vertices to the host's, phi(u) in
    masks[u], that send every pattern arc u->v (u != v) to a host arc;
    optionally injective, optionally (induced) also sending non-arcs to
    non-arcs.

    Rows are bitmasks: prows and hout of out-neighbours, hin of the host's
    in-neighbours, which is hout itself when the host is symmetric; then a
    symmetric pattern costs one AND per adjacent predecessor. Loops are
    the callers' business: pattern loops belong in masks, host loops stay
    in the rows, where a non-injective map may send an arc onto one.
    """
    k = len(prows)
    full = (1 << len(hout)) - 1
    nout = nin = None
    if induced:
        nout = [full ^ r for r in hout]
        nin = nout if hin is hout else [full ^ r for r in hin]
    order = _search_order(_undirected(prows))
    steps = []
    for d, u in enumerate(order):
        tables = []
        for e, v in enumerate(order[:d]):
            fwd, back = prows[v] >> u & 1, prows[u] >> v & 1
            sides = [(fwd, hout, nout)]
            if hin is not hout or fwd != back:
                sides.append((back, hin, nin))
            tables += [(e, yes if arc else no) for arc, yes, no in sides if arc or induced]
        steps.append((masks[u], tables))
    assigned = [0] * k

    def rec(d: int, free: int) -> int:
        mask, tables = steps[d]
        cand = mask & free
        for e, table in tables:
            cand &= table[assigned[e]]
        if d == k - 1:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            assigned[d] = low.bit_length() - 1
            total += rec(d + 1, free ^ low if injective else free)
        return total

    return rec(0, full)


def _assignment_sum(
    weights: Sequence[Sequence[Fraction]],
    factors: Mapping[tuple[int, int], Sequence[Sequence[Fraction]]],
) -> Fraction:
    """Exact density integral of a step kernel: the sum over block
    assignments z of prod_u weights[u][z_u] times, for every pattern pair
    (u, v) in factors, factors[u, v][z_u][z_v].

    Pairs whose factor is identically 1 drop out; the remaining pairs set
    the search order, and a zero partial product prunes its subtree.
    """
    terms = math.prod(len(wts) for wts in weights)
    if terms > TERM_CAP:
        raise CapacityError(f"{terms} assignment terms exceed cap {TERM_CAP}")
    k = len(weights)
    factors = {p: mat for p, mat in factors.items() if any(x != 1 for row in mat for x in row)}
    links = [0] * k
    for u, v in factors:
        links[u] |= 1 << v
        links[v] |= 1 << u
    order = _search_order(links)
    depth = {u: d for d, u in enumerate(order)}
    steps = []
    for d, u in enumerate(order):
        mats = [(depth[a], mat) for (a, b), mat in factors.items() if b == u and depth[a] < d]
        mats += [(depth[b], tuple(zip(*mat))) for (a, b), mat in factors.items()
                 if a == u and depth[b] < d]
        steps.append(([(b, x) for b, x in enumerate(weights[u]) if x], mats))
    assigned = [0] * k

    def rec(d: int, weight: Fraction) -> Fraction:
        if d == k:
            return weight
        choices, mats = steps[d]
        total = Fraction(0)
        for b, x in choices:
            wgt = weight * x
            for e, mat in mats:
                wgt *= mat[assigned[e]][b]
                if not wgt:
                    break
            if wgt:
                assigned[d] = b
                total += rec(d + 1, wgt)
        return total

    return rec(0, Fraction(1))


def _simple_count(f: LabelledGraph, g: LabelledGraph, injective: bool, induced: bool) -> int:
    return _count_maps(f.rows, g.rows, g.rows, [(1 << g.n) - 1] * f.n, injective, induced)


def inj_count(f: GraphLike, g: LabelledGraph) -> int:
    f = _as_labelled(f)
    _check_pattern(f)
    if f.n > g.n:
        return 0
    return _simple_count(f, g, injective=True, induced=False)


def t(f: GraphLike, g: LabelledGraph) -> Fraction:
    """Probability that a uniform map V(f)->V(g) is a homomorphism."""
    f = _as_labelled(f)
    _check_pattern(f)
    return Fraction(_simple_count(f, g, False, False), g.n ** f.n)


def t_inj(f: GraphLike, g: LabelledGraph) -> Fraction:
    """Containment probability over a uniform sequence of distinct vertices;
    0 by convention when v(f) > v(g)."""
    f = _as_labelled(f)
    _check_pattern(f)
    if f.n > g.n:
        return Fraction(0)
    return Fraction(_simple_count(f, g, True, False), falling(g.n, f.n))


def t_ind(f: GraphLike, g: LabelledGraph) -> Fraction:
    """Probability that distinct sampled vertices induce exactly f;
    0 by convention when v(f) > v(g)."""
    f = _as_labelled(f)
    _check_pattern(f)
    if f.n > g.n:
        return Fraction(0)
    return Fraction(_simple_count(f, g, True, True), falling(g.n, f.n))


def supergraphs(f: LabelledGraph) -> list[LabelledGraph]:
    """All labelled graphs on f's vertex set whose edge set contains f's."""
    base = pair_bits_of(f)
    free = [1 << i for i in range(f.n * (f.n - 1) // 2) if not base >> i & 1]
    return [graph_from_pair_bits(f.n, base + sum(b for i, b in enumerate(free) if mask >> i & 1))
            for mask in range(1 << len(free))]


def inj_from_ind(f: LabelledGraph, ind_table: Mapping[LabelledGraph, Fraction]) -> Fraction:
    """Containment density as the sum of induced densities over supergraphs."""
    total = Fraction(0)
    for sup in supergraphs(f):
        if sup not in ind_table:
            raise InputError(f"table missing supergraph with edges {sup.edges()}")
        total += ind_table[sup]
    return total


def ind_from_inj(f: LabelledGraph, inj_table: Mapping[LabelledGraph, Fraction]) -> Fraction:
    """Induced density by inclusion-exclusion over supergraph containment."""
    total = Fraction(0)
    e0 = f.num_edges
    for sup in supergraphs(f):
        if sup not in inj_table:
            raise InputError(f"table missing supergraph with edges {sup.edges()}")
        total += (-1) ** (sup.num_edges - e0) * inj_table[sup]
    return total


@dataclass(frozen=True)
class BoundCheck:
    gap: Fraction
    bound: Fraction
    ok: bool


def sampling_bound(f, g) -> Fraction:
    """Repeated-vertex bound v(f)^2 / (2 v(g)) on |t - t_inj|; the same
    for simple and directed graphs."""
    return Fraction(f.n ** 2, 2 * g.n)


def sampling_bound_check(f: GraphLike, g: LabelledGraph) -> BoundCheck:
    """|t - t_inj| against the repeated-vertex bound."""
    f = _as_labelled(f)
    gap = abs(t(f, g) - t_inj(f, g))
    bound = sampling_bound(f, g)
    return BoundCheck(gap, bound, gap <= bound)


def disjoint_union_density(parts: Sequence[GraphLike], g: LabelledGraph) -> Fraction:
    """t of the disjoint union of parts; asserts multiplicativity en route."""
    labelled = [_as_labelled(p) for p in parts]
    whole = t(disjoint_union(labelled), g)
    product = math.prod((t(p, g) for p in labelled), start=Fraction(1))
    if whole != product:
        raise InvariantError(
            f"disjoint-union density {whole} != product of part densities {product}"
        )
    return whole


def hoeffding_halfwidth(samples: int, alpha: float = 0.01) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


@dataclass(frozen=True)
class DensityEstimate:
    point: float
    samples: int
    confidence_halfwidth: float
    alpha: float = 0.01

    def covers(self, exact: Fraction | float) -> bool:
        return abs(self.point - float(exact)) <= self.confidence_halfwidth


def mc_containment_hits(f: GraphLike, g: LabelledGraph, count: int, rng: np.random.Generator) -> int:
    """Number of uniform with-replacement k-samples whose pattern contains f."""
    f = _as_labelled(f)
    a = unpack_rows(g.rows, g.n)
    draws = rng.integers(0, g.n, size=(count, f.n))
    ok = np.ones(count, dtype=bool)
    for u, v in f.edges():
        vi, vj = draws[:, u - 1], draws[:, v - 1]
        ok &= (vi != vj) & a[vi, vj]
    return int(ok.sum())


def mc_t(
    f: GraphLike,
    g: LabelledGraph,
    samples: int,
    rng: np.random.Generator,
    alpha: float = 0.01,
) -> DensityEstimate:
    """Unbiased Monte Carlo estimate of t with a Hoeffding interval."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    hits = mc_containment_hits(f, g, samples, rng)
    return DensityEstimate(hits / samples, samples, hoeffding_halfwidth(samples, alpha), alpha)


@dataclass(frozen=True)
class DensityVector:
    """t(F, .) over a finite enumeration, aligned with enumeration.graphs."""

    enumeration: GraphEnumeration
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.enumeration.graphs):
            raise InputError("value count does not match enumeration length")
        if any(v < 0 or v > 1 for v in self.values):
            raise InputError("density values must lie in [0,1]")


class TauPlus(NamedTuple):
    vector: DensityVector
    inv_size: Fraction


def tau_vector(g: LabelledGraph, enumeration: GraphEnumeration) -> DensityVector:
    return DensityVector(enumeration, tuple(t(f, g) for f in enumeration.graphs))


def tau_plus(g: LabelledGraph, enumeration: GraphEnumeration) -> TauPlus:
    """Density vector plus 1/v(g); the pair separates non-isomorphic graphs."""
    return TauPlus(tau_vector(g, enumeration), Fraction(1, g.n))


def metric_d(x: DensityVector | TauPlus, y: DensityVector | TauPlus) -> Fraction:
    """Weighted l1 distance sum_i 2^-(i+1) |x_i - y_i| over the enumeration.

    For TauPlus arguments the 1/v coordinate enters with weight 1 (it is
    the extra point of the augmented index set). Truncation error of the
    infinite sum is below the smallest included weight.
    """
    if isinstance(x, TauPlus) != isinstance(y, TauPlus):
        raise InputError("cannot mix plain density vectors with augmented ones")
    inv_term = Fraction(0)
    if isinstance(x, TauPlus):
        inv_term = abs(x.inv_size - y.inv_size)
        x, y = x.vector, y.vector
    if x.enumeration.max_n != y.enumeration.max_n:
        raise InputError("density vectors use different enumerations")
    total = inv_term
    for i, (a, b) in enumerate(zip(x.values, y.values)):
        total += x.enumeration.weight(i) * abs(a - b)
    return total
