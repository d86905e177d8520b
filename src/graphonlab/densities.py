"""Homomorphism-density calculus: t, t_inj, t_ind, conversions, embeddings.

Every exact density is a sum over assignments of pattern vertices, which
contract evaluates by variable elimination for kernels and hosts alike;
host_count decides for every finite host, simple, bipartite or directed,
and leaves the injective and induced counts and the hom counts no plan
fits to _count_maps, a search over blocks of partial maps whose
candidate sets are uint64 words gathered from the host's word tables.

Exact values are arbitrary-precision rationals (fractions.Fraction); the
inclusion-exclusion identities and multiplicativity over disjoint unions
hold exactly, not approximately. Floats appear only in Monte Carlo
estimates and at the CLI boundary.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import CapacityError, InputError, InvariantError
from .exact import _numerators, exact_dtype
from .graphs import (
    WORD,
    GraphEnumeration,
    LabelledGraph,
    UnlabelledGraph,
    bit_of,
    disjoint_union,
    graph_from_pair_bits,
    pair_bits_of,
    pair_order,
    popcount,
    set_bits,
    tail_mask,
    unpack_bits,
    word_bits,
)

PATTERN_CAP = 8
TERM_CAP = 10**7
PLAN_BUDGET = 1 << 17  # cells of the largest array a contraction plan may hold

GraphLike = Union[LabelledGraph, UnlabelledGraph]


def _as_labelled(f: GraphLike) -> LabelledGraph:
    return f.canon if isinstance(f, UnlabelledGraph) else f


def _check_pattern(f: GraphLike) -> LabelledGraph:
    """f as a labelled pattern, once it is known to be within PATTERN_CAP."""
    f = _as_labelled(f)
    if f.n > PATTERN_CAP:
        raise CapacityError(f"pattern capped at {PATTERN_CAP} vertices, got {f.n}")
    return f


falling = math.perm  # n (n-1) ... (n-k+1): the injective maps of k vertices into n, 0 when k > n


FRONTIER_CELLS = 1 << 15  # uint64 candidate words, and new partial maps, per block of the search


def _block(tables: Sequence[tuple[np.ndarray, bool]], rows: np.ndarray, dom: np.ndarray, size: int,
           own: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(block, at): row at[x] of block (row x when at is None, as when rows
    are all the tables' rows), for x in rows, is the AND of row x of each
    table, complemented where flagged, masked to dom (a domain of a part
    of `size` vertices), and with `own` less x itself. One unflagged table
    over whole parts, with no x to clear, is its own block."""
    (table, negated), n = tables[0], len(tables[0][0])
    at = None if len(rows) == n else np.searchsorted(rows, np.arange(n))  # each vertex's index in rows
    if len(tables) == 1 and not negated and at is None and len(dom) == size and not (
            own and word_bits(table, rows, rows).any()):
        return table, at
    block = None
    for table, negated in tables:
        got = table[rows]
        got = np.invert(got, out=got) if negated else got
        block = got if block is None else np.bitwise_and(block, got, out=block)
    block[:, -1] &= tail_mask(size)  # a complement sets the columns past the part
    if len(dom) < size:
        block &= set_bits(np.zeros((1, block.shape[1]), dtype=WORD), 0 * dom, dom)
    if own:
        block[np.arange(len(rows)), rows >> 6] &= ~bit_of(rows)
    return block, at


def _count_maps(parts: Sequence[int], doms: Sequence[np.ndarray], tables: Mapping[tuple[int, int], list],
                injective: bool, adj: Sequence[int]) -> int:
    """Count the maps of host_count, phi(u) in doms[u], phi(v) in row phi(u)
    of every table in tables[u, v]; optionally injective within each part.
    The pattern vertices are placed in turn, each one touching as many
    placed ones in adj (symmetric bitmask rows) as it can.

    The search is breadth-first over blocks of partial maps, each an (F, d)
    array of the host vertices given to the first d placed, and depth-first
    across blocks. The candidates for the next vertex u are a row of words
    per partial map: the _block rows of its placed neighbours, ANDed (one
    _block per distinct tables and domains), or doms[u]'s words; an
    injective count then clears the placed vertices of u's part."""
    k, order, placed = len(doms), [], 0
    for _ in range(k):
        best = max((v for v in range(k) if not placed >> v & 1),
                   key=lambda v: ((adj[v] & placed).bit_count(), adj[v].bit_count(), -v))
        order.append(best)
        placed |= 1 << best
    if not all(len(dom) for dom in doms):
        return 0
    blocks, steps = {}, []
    for d, u in enumerate(order):
        checks = []
        for e, v in enumerate(order[:d]):
            if (v, u) in tables:
                key = tuple((id(t), neg) for t, neg in tables[v, u]), id(doms[v]), id(doms[u])
                if key not in blocks:
                    own = injective and parts[v] == parts[u]
                    blocks[key] = _block(tables[v, u], doms[v], doms[u], len(tables[u, v][0][0]), own)
                checks.append((e, *blocks[key]))
        if not checks:  # no placed neighbour: the words of doms[u], one row read by every partial map
            words = set_bits(np.zeros((1, (int(doms[u][-1]) >> 6) + 1), dtype=WORD), 0 * doms[u], doms[u])
            checks = [(0, words, np.zeros(int(doms[order[0]][-1]) + 1, dtype=np.intp))]
        steps.append((checks, [e for e, v in enumerate(order[:d])
                               if injective and parts[v] == parts[u] and (v, u) not in tables]))
    first = doms[order[0]]
    return len(first) if k == 1 else _grow(steps, first[:, None], 1)


def _grow(steps: list, maps: np.ndarray, d: int) -> int:
    """The extensions of the partial maps `maps` of the first d placed by
    steps[d:]: the last vertex's candidates only counted, any other's
    unpacked into the next block, cut so that no block holds more than
    FRONTIER_CELLS candidate words, nor new maps beyond that and one row's."""
    checks, clears = steps[d]
    width = checks[0][1].shape[1]
    total, step = 0, max(1, FRONTIER_CELLS // width)
    for a in range(0, len(maps), step):
        part = maps[a:a + step]
        cand = functools.reduce(lambda x, y: np.bitwise_and(x, y, out=x),
                                [b[part[:, e] if at is None else at[part[:, e]]] for e, b, at in checks])
        if clears:
            pos = part[:, clears]
            row, col = np.nonzero(pos < 64 * width)
            p = pos[row, col]
            np.bitwise_and.at(cand, (row, p >> 6), ~bit_of(p))
        if d == len(steps) - 1:
            total += int(popcount(cand).sum())
            continue
        cuts = [0, len(part)]
        if len(part) * width * 64 > FRONTIER_CELLS:
            ends = np.cumsum(popcount(cand).sum(axis=1)) // FRONTIER_CELLS  # cut where new maps pass a multiple
            cuts[1:1] = (np.flatnonzero(np.diff(ends)) + 1).tolist()
        for s, t in zip(cuts, cuts[1:]):
            r, w = np.divmod(flat := np.flatnonzero(cand[s:t]), width)
            j = np.flatnonzero(np.unpackbits(cand[s:t].ravel()[flat].view(np.uint8), bitorder="little"))
            grown = np.empty((len(j), d + 1), dtype=np.intp)
            grown[:, :d] = part[s:t][r[j >> 6]]
            grown[:, d] = w[j >> 6] * 64 + (j & 63)
            total += _grow(steps, grown, d + 1)
    return total


def _bits(mask: int) -> list[int]:
    return [u for u in range(mask.bit_length()) if mask >> u & 1]


class Plan(NamedTuple):
    """Elimination order, multiply-adds, cells of the largest array held, each step's right tensor's vertices."""

    order: tuple[int, ...]
    cost: int
    peak: int
    rights: tuple[int, ...]


def _split(masks: Sequence[int], v: int, cells: Callable[[int], int]) -> tuple[int, int, int]:
    """(R's position, peak cells, multiply-adds) of the step that sums v out
    of the tensors (vertex bitmasks) holding it: one tensor R against the
    broadcast product X of the others, a matrix product over v batched over
    the vertices both hold; R gives the least peak, then cost."""
    if len(masks) == 1:
        return 0, 1, cells(masks[0])
    lefts = [functools.reduce(operator.or_, masks[:i] + masks[i + 1:]) for i in range(len(masks))]
    peak, cost, i = min((max(cells(x), cells((x | r) & ~(1 << v))), cells(x | r) + (len(masks) - 2) * cells(x), i)
                        for i, (x, r) in enumerate(zip(lefts, masks)))
    return i, peak, cost


@functools.lru_cache(maxsize=None)
def plan(sizes: tuple[int, ...], pairs: frozenset[tuple[int, int]]) -> Plan | None:
    """The elimination order of least multiply-adds for a sum over vertices
    with these domain sizes and one factor per pair, by dynamic programming
    over the sets summed out. It steps _sum's tensors as vertex bitmasks, one
    per weight and factor: summing v out merges those holding v into their
    union less v, so what a set leaves does not depend on its order. None
    when every order holds an array of more than PLAN_BUDGET cells."""
    k = len(sizes)
    cells = [math.prod(sizes[u] for u in _bits(s)) for s in range(1 << k)]
    start = [1 << u for u in range(k)] + [1 << u | 1 << v for u, v in pairs]
    best, left = {0: Plan((), 0, max(map(cells.__getitem__, start), default=1), ())}, {0: start}
    for done in range(1, 1 << k):
        for v in _bits(done):
            if (prev := best.get(done ^ 1 << v)) is not None:
                held = left[done ^ 1 << v]
                mine = [s for s in held if s >> v & 1]
                i, peak, cost = _split(mine, v, cells.__getitem__)
                step = Plan(prev.order + (v,), prev.cost + cost, max(prev.peak, peak), prev.rights + (mine[i],))
                if step.peak <= PLAN_BUDGET and (done not in best or step[1:3] < best[done][1:3]):
                    best[done] = step
                    left[done] = [s for s in held if not s >> v & 1] + [functools.reduce(operator.or_, mine) ^ 1 << v]
    return best.get((1 << k) - 1)


def _align(axes: Sequence[int], arr: np.ndarray, target: Sequence[int], sizes: Sequence[int]) -> np.ndarray:
    """arr, whose dimensions are the vertices `axes`, transposed to follow
    `target`, with a unit dimension for each target vertex it lacks."""
    arr = arr.transpose(sorted(range(len(axes)), key=lambda i: target.index(axes[i])))
    return arr.reshape([sizes[a] if a in axes else 1 for a in target])


def _eliminate(v: int, right: int, mine: list, sizes: Sequence[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """The (vertices, array) tensor left when v is summed out of the tensors
    holding it, with the one over the vertex bitmask `right` on the right."""
    if len(mine) == 1:
        return (), mine[0][1].sum()
    i = next(i for i, (axes, _) in enumerate(mine) if sum(1 << a for a in axes) == right)
    (raxes, r), left = mine[i], mine[:i] + mine[i + 1:]
    lset = {a for axes, _ in left for a in axes if a != v}
    both = [a for a in raxes if a in lset]
    lonly = sorted(lset.difference(both))
    ronly = [a for a in raxes if a != v and a not in lset]
    nb, nl, nr = (math.prod(sizes[a] for a in ax) for ax in (both, lonly, ronly))
    parts = sorted((_align(axes, arr, both + lonly + [v], sizes) for axes, arr in left), key=lambda a: -a.size)
    x = parts[0]
    for part in parts[1:]:  # in place once x is a full-sized product of its own
        x = np.multiply(x, part, out=x if x is not parts[0] and x.size == nb * nl * sizes[v] else None)
    y = _align(raxes, r, both + [v] + ronly, sizes)
    z = np.matmul(x.reshape(nb, nl, sizes[v]), y.reshape(nb, sizes[v], nr))
    return tuple(both + lonly + ronly), z.reshape([sizes[a] for a in both + lonly + ronly])


def _sum(weights: list[np.ndarray], factors: Mapping[tuple[int, int], np.ndarray]) -> int:
    """The sum over assignments by the steps of its plan; when no order
    fits PLAN_BUDGET, the sum of the sums with the largest domain fixed."""
    sizes = tuple(len(w) for w in weights)
    p = plan(sizes, frozenset(factors))
    if p is None:
        u = max(range(len(weights)), key=lambda i: len(weights[i]))
        return sum(_sum(weights[:u] + [weights[u][b:b + 1]] + weights[u + 1:],
                        {(x, y): f[b:b + 1] if x == u else f[:, b:b + 1] if y == u else f
                         for (x, y), f in factors.items()})
                   for b in range(len(weights[u])))
    tensors = [((u,), w) for u, w in enumerate(weights)] + list(factors.items())
    for v, right in zip(p.order, p.rights):
        mine = [t for t in tensors if v in t[0]]
        tensors = [t for t in tensors if v not in t[0]] + [_eliminate(v, right, mine, sizes)]
    return math.prod(int(arr) for _, arr in tensors)


def contract(weights: Sequence, factors: Mapping[tuple[int, int], object]) -> Fraction:
    """Sum over assignments z of prod_u weights[u][z_u] * prod over pairs
    (u, v) of factors[u, v][z_u][z_v]; values are non-negative numpy
    integers or bools (a host) or nested sequences of Fractions (a kernel).

    Exact: 0 over an empty domain, else weights are scaled to integers over
    one denominator and factors over another by exact._numerators; no partial
    sum exceeds the product of the weight sums and factor maxima, and it
    runs in the exact_dtype of that bound."""
    if not all(len(w) for w in weights):
        return Fraction(0)
    (ws, dw), (fs, df) = _numerators(weights), _numerators(list(factors.values()))
    bound = math.prod(max(1, int(a.sum())) for a in ws) * math.prod(max(1, int(a.max(initial=0))) for a in fs)
    dtype = exact_dtype(bound)
    cast = {key: (a.astype(np.int64) if dtype == "object" and a.dtype != object else a).astype(dtype)
            for key, a in {id(a): a for a in [*ws, *fs]}.items()}
    total = _sum([cast[id(a)] for a in ws], {p: cast[id(a)] for p, a in zip(factors, fs)})
    return Fraction(total, dw ** len(ws) * df ** len(fs))


def kernel_sum(weights: Sequence, factors: Mapping[tuple[int, int], object]) -> Fraction:
    """contract for a kernel, charged m^k terms against TERM_CAP first."""
    terms = math.prod(len(wts) for wts in weights)
    if terms > TERM_CAP:
        raise CapacityError(f"{terms} assignment terms exceed cap {TERM_CAP}")
    return contract(weights, factors)


def host_count(
    prows: Sequence[int],
    parts: Sequence[int],
    doms: Sequence[np.ndarray],
    host: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]],
    injective: bool,
    induced: bool,
) -> int:
    """Count maps phi from the pattern's vertices to the host's, phi(u) in
    doms[u], that send every pattern arc u->v (u != v) to a host arc;
    optionally injective, optionally (induced) also sending non-arcs to
    non-arcs. prows are the pattern's out-neighbour bitmasks; u maps into
    the host part parts[u], and doms[u] is a sorted array of its vertices.
    host[a, b] = (out, in): WORD tables whose row x, a vertex of part a,
    holds x's out- and in-neighbours in part b; `in is out` in a symmetric
    host, and parts with no entry have no arcs between them. Pattern loops
    belong in doms; host loops stay in the tables.

    tables[u, v] lists (table, complemented) pairs whose row i holds the
    vertices allowed for phi(v) when phi(u) = i: out for an arc u->v, in
    for an arc v->u (left out when in is out and both arcs agree), and
    complemented ones for non-arcs when induced. A hom count is contracted
    when a plan fits, each factor a pair's _block at the smaller domain's
    rows, unpacked at the other's columns; any other count is searched by
    _count_maps."""
    k = len(prows)
    tables = {}
    for u, v in itertools.permutations(range(k), 2):
        fwd, back = prows[u] >> v & 1, prows[v] >> u & 1
        if (parts[u], parts[v]) not in host:
            if fwd or back:
                return 0
            continue
        out, into = host[parts[u], parts[v]]
        sides = [(fwd, out)] + ([(back, into)] if into is not out or fwd != back else [])
        if allowed := [(table, not arc) for arc, table in sides if arc or induced]:
            tables[u, v] = allowed
    pairs = [p for p in pair_order(k) if p in tables]
    sizes = tuple(len(dom) for dom in doms)
    if injective or induced or plan(sizes, frozenset(pairs)) is None:
        adj = [(prows[u] | sum((r >> u & 1) << v for v, r in enumerate(prows))) & ~(1 << u) for u in range(k)]
        return _count_maps(parts, doms, tables, injective, adj)
    blocks, factors = {}, {}  # one array per distinct (tables, domain, domain): contract casts each once
    for u, v in pairs:
        key = tuple(id(t) for t, _ in tables[u, v]), id(doms[u]), id(doms[v])
        if key not in blocks:  # the search's block at the smaller domain's rows, unpacked at the other's columns
            a, b = (v, u) if sizes[v] < sizes[u] else (u, v)
            block, _ = _block(tables[a, b], doms[a], doms[b], len(tables[b, a][0][0]), False)
            mat, dom = unpack_bits(block, 64 * block.shape[1]), doms[b]
            mat = mat[:, :len(dom)] if not len(dom) or dom[-1] == len(dom) - 1 else mat[:, dom]  # 0..m-1 is a slice
            blocks[key] = mat if a == u else mat.T
        factors[u, v] = blocks[key]
    ones = {size: np.ones(size, dtype=bool) for size in set(sizes)}
    return contract([ones[size] for size in sizes], factors).numerator


def _density(f: GraphLike, g: LabelledGraph, injective: bool, induced: bool) -> Fraction:
    """host_count over the n^k maps, or over the n!/(n-k)! injective ones;
    0 when an injective pattern has more vertices than the host."""
    f = _check_pattern(f)
    maps = falling(g.n, f.n) if injective else g.n ** f.n
    if not maps:
        return Fraction(0)
    host = {(0, 0): (g.words, g.words)}
    return Fraction(host_count(f.rows, [0] * f.n, [np.arange(g.n)] * f.n, host, injective, induced), maps)


def inj_count(f: GraphLike, g: LabelledGraph) -> int:
    """Injective maps V(f)->V(g) sending edges to edges: t_inj times their number."""
    return int(t_inj(f, g) * falling(g.n, _as_labelled(f).n))


def t(f: GraphLike, g: LabelledGraph) -> Fraction:
    """Probability that a uniform map V(f)->V(g) is a homomorphism."""
    return _density(f, g, False, False)


def t_inj(f: GraphLike, g: LabelledGraph) -> Fraction:
    """Containment probability over a uniform sequence of distinct vertices;
    0 by convention when v(f) > v(g)."""
    return _density(f, g, True, False)


def t_ind(f: GraphLike, g: LabelledGraph) -> Fraction:
    """Probability that distinct sampled vertices induce exactly f;
    0 by convention when v(f) > v(g)."""
    return _density(f, g, True, True)


def supergraphs(f: LabelledGraph) -> list[LabelledGraph]:
    """All labelled graphs on f's vertex set whose edge set contains f's."""
    base = pair_bits_of(f)
    free = [1 << i for i in range(f.n * (f.n - 1) // 2) if not base >> i & 1]
    return [graph_from_pair_bits(f.n, base + sum(b for i, b in enumerate(free) if mask >> i & 1))
            for mask in range(1 << len(free))]


def _over_supergraphs(f: LabelledGraph, table: Mapping[LabelledGraph, Fraction], sign: Callable) -> Fraction:
    """The sum of sign(sup) * table[sup] over the supergraphs of f."""
    total = Fraction(0)
    for sup in supergraphs(f):
        if sup not in table:
            raise InputError(f"table missing supergraph with edges {sup.edges()}")
        total += sign(sup) * table[sup]
    return total


def inj_from_ind(f: LabelledGraph, ind_table: Mapping[LabelledGraph, Fraction]) -> Fraction:
    """Containment density as the sum of induced densities over supergraphs."""
    return _over_supergraphs(f, ind_table, lambda sup: 1)


def ind_from_inj(f: LabelledGraph, inj_table: Mapping[LabelledGraph, Fraction]) -> Fraction:
    """Induced density by inclusion-exclusion over supergraph containment."""
    e0 = f.num_edges
    return _over_supergraphs(f, inj_table, lambda sup: (-1) ** (sup.num_edges - e0))


class BoundCheck(NamedTuple):
    gap: Fraction
    bound: Fraction
    ok: bool


def sampling_bound(f, g) -> Fraction:
    """Repeated-vertex bound v(f)^2 / (2 v(g)) on |t - t_inj|; the same
    for simple and directed graphs."""
    return Fraction(f.n ** 2, 2 * g.n)


def sampling_bound_check(f: GraphLike, g: LabelledGraph) -> BoundCheck:
    """|t - t_inj| against the repeated-vertex bound."""
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


class DensityEstimate(NamedTuple):
    point: float
    samples: int
    confidence_halfwidth: float
    alpha: float = 0.01

    def covers(self, exact: Fraction | float) -> bool:
        return abs(self.point - float(exact)) <= self.confidence_halfwidth


def mc_containment_hits(f: GraphLike, g: LabelledGraph, count: int, rng: np.random.Generator) -> int:
    """Number of uniform with-replacement k-samples whose pattern contains f;
    pair (vi, vj) is an edge iff bit vj of row vi of g.words is set."""
    f = _as_labelled(f)
    draws = rng.integers(0, g.n, size=(count, f.n))
    ok = np.ones(count, dtype=bool)
    for u, v in f.edges():
        vi, vj = draws[:, u - 1], draws[:, v - 1]
        ok &= (vi != vj) & word_bits(g.words, vi, vj)
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
