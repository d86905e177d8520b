"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates the defining sample space directly (all
vertex sequences, all subset pairs, all permutations) and never calls
the library code paths it is used to check. The one exception is
reference_count_maps, the recursive bitset search that
densities._count_maps replaced: it takes the same pair-row tables, so a
test can swap it in behind densities.host_count.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from graphonlab.graphs import LabelledGraph


def bit_loop_edges(rows) -> list[tuple[int, int]]:
    """1-based (i, j) for every set bit j-1 of the bitmask int rows[i-1],
    row by row, by a pure-Python bit loop."""
    out = []
    for i, r in enumerate(rows, 1):
        while r:
            low = r & -r
            out.append((i, low.bit_length()))
            r ^= low
    return out


def brute_t(f: LabelledGraph, g: LabelledGraph) -> Fraction:
    """t by enumerating all v(g)^v(f) vertex sequences."""
    k, n = f.n, g.n
    hits = 0
    fedges = f.edges()
    for seq in itertools.product(range(1, n + 1), repeat=k):
        if all(seq[u - 1] != seq[v - 1] and g.has_edge(seq[u - 1], seq[v - 1]) for u, v in fedges):
            hits += 1
    return Fraction(hits, n**k)


def brute_t_inj(f: LabelledGraph, g: LabelledGraph) -> Fraction:
    k, n = f.n, g.n
    if k > n:
        return Fraction(0)
    hits = total = 0
    fedges = f.edges()
    for seq in itertools.permutations(range(1, n + 1), k):
        total += 1
        if all(g.has_edge(seq[u - 1], seq[v - 1]) for u, v in fedges):
            hits += 1
    return Fraction(hits, total)


def brute_t_ind(f: LabelledGraph, g: LabelledGraph) -> Fraction:
    k, n = f.n, g.n
    if k > n:
        return Fraction(0)
    hits = total = 0
    for seq in itertools.permutations(range(1, n + 1), k):
        total += 1
        ok = True
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if g.has_edge(seq[i - 1], seq[j - 1]) != f.has_edge(i, j):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            hits += 1
    return Fraction(hits, total)


def brute_containment_hits(f: LabelledGraph, g: LabelledGraph, draws) -> int:
    """Rows of draws (0-based host vertices, one column per pattern vertex)
    under which every edge of f lands on an edge of g, by g.has_edge."""
    return sum(all(g.has_edge(int(d[u - 1]) + 1, int(d[v - 1]) + 1) for u, v in f.edges()) for d in draws)


def exact_sample_law(g: LabelledGraph, k: int) -> dict[tuple[int, ...], Fraction]:
    """Law of the with-replacement k-sample pattern, keyed by row tuples."""
    from graphonlab.graphs import induced_pattern

    law: dict[tuple[int, ...], int] = {}
    for seq in itertools.product(range(1, g.n + 1), repeat=k):
        rows = induced_pattern(g, seq).rows
        law[rows] = law.get(rows, 0) + 1
    return {rows: Fraction(c, g.n**k) for rows, c in law.items()}


def burnside_class_count(n: int) -> int:
    """Number of isomorphism classes of graphs on n vertices, by counting
    edge-orbit cycles of every vertex permutation."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: t for t, p in enumerate(pairs)}
    total = 0
    for perm in itertools.permutations(range(n)):
        mapped = []
        for i, j in pairs:
            a, b = perm[i], perm[j]
            mapped.append(index[(a, b) if a < b else (b, a)])
        seen = [False] * len(pairs)
        cycles = 0
        for start in range(len(pairs)):
            if seen[start]:
                continue
            cycles += 1
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = mapped[cur]
        total += 2**cycles
    return total // math.factorial(n)


def brute_cut_norm(mu: list[Fraction], d: list[list[Fraction]]) -> Fraction:
    """Cut norm by enumerating every (S, T) subset pair."""
    m = len(mu)
    best = Fraction(0)
    for s_mask in range(1 << m):
        s = [a for a in range(m) if s_mask >> a & 1]
        for t_mask in range(1 << m):
            tt = [b for b in range(m) if t_mask >> b & 1]
            val = sum((mu[a] * mu[b] * d[a][b] for a in s for b in tt), Fraction(0))
            best = max(best, abs(val))
    return best


def brute_hom_directed(f, g) -> Fraction:
    """Directed containment density by full map enumeration."""
    k, n = f.n, g.n
    hits = 0
    fedges = f.edges()
    for seq in itertools.product(range(1, n + 1), repeat=k):
        if all(g.has_edge(seq[u - 1], seq[v - 1]) for u, v in fedges):
            hits += 1
    return Fraction(hits, n**k)


def _maps(targets, k: int, injective: bool):
    return itertools.permutations(targets, k) if injective else itertools.product(targets, repeat=k)


def brute_bip(f, g, injective: bool = False, induced: bool = False) -> Fraction:
    """Bipartite t, t_inj (injective) or t_ind (injective and induced) by
    enumerating every part-respecting map, injective per part when asked."""
    if injective and (f.n1 > g.n1 or f.n2 > g.n2):
        return Fraction(0)
    hits = total = 0
    for m1 in _maps(range(1, g.n1 + 1), f.n1, injective):
        for m2 in _maps(range(1, g.n2 + 1), f.n2, injective):
            total += 1
            cells = [(g.has_edge(m1[u - 1], m2[v - 1]), f.has_edge(u, v))
                     for u in range(1, f.n1 + 1) for v in range(1, f.n2 + 1)]
            hits += all(got == want if induced else got or not want for got, want in cells)
    return Fraction(hits, total)


def brute_directed(f, g, injective: bool = False, induced: bool = False) -> Fraction:
    """Directed t, t_inj or t_ind by enumerating maps; every ordered pair of
    pattern vertices is checked, the diagonal (loops) included."""
    if injective and f.n > g.n:
        return Fraction(0)
    hits = total = 0
    for seq in _maps(range(1, g.n + 1), f.n, injective):
        total += 1
        cells = [(g.has_edge(seq[u - 1], seq[v - 1]), f.has_edge(u, v))
                 for u in range(1, f.n + 1) for v in range(1, f.n + 1)]
        hits += all(got == want if induced else got or not want for got, want in cells)
    return Fraction(hits, total)


def brute_masked_count(prows, hrows, masks, injective: bool = False, induced: bool = False) -> int:
    """Maps phi, phi(u) a set bit of masks[u], that keep every arc u -> v
    (u != v) of the pattern's bitmask rows prows as an arc of the host's
    rows hrows (and, induced, every non-arc as a non-arc), by enumerating
    every such map, injective when asked."""
    k = len(prows)
    hits = 0
    for phi in itertools.product(*([i for i in range(m.bit_length()) if m >> i & 1] for m in masks)):
        cells = [(hrows[phi[u]] >> phi[v] & 1, prows[u] >> v & 1) for u in range(k) for v in range(k) if u != v]
        hits += (not injective or len(set(phi)) == k) and all(
            got == want if induced else got or not want for got, want in cells)
    return hits


def reference_count_maps(masks, tables, injective: bool, adj) -> int:
    """densities._count_maps by one recursive call per partial map: maps
    phi, phi(u) in masks[u], with phi(v) in row phi(u) of every row table
    in tables[u, v], optionally injective, over the same vertex order
    (each next vertex touching as many placed ones in adj as it can)."""
    k, order, placed = len(masks), [], 0
    for _ in range(k):
        best = max((v for v in range(k) if not placed >> v & 1),
                   key=lambda v: ((adj[v] & placed).bit_count(), adj[v].bit_count(), -v))
        order.append(best)
        placed |= 1 << best
    steps = [(masks[u], [(e, table) for e, v in enumerate(order[:d]) for table in tables.get((v, u), ())])
             for d, u in enumerate(order)]
    assigned = [0] * k

    def rec(d: int, free: int) -> int:
        mask, checks = steps[d]
        cand = mask & free
        for e, table in checks:
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

    return rec(0, functools.reduce(operator.or_, masks))


def brute_kernel_sum(f: LabelledGraph, mu, w, induced: bool = False) -> Fraction:
    """Step-kernel t(f, W), or with induced the prefix-law mass of f, as the
    sum over every block tuple of the mu product times w per edge (and
    1 - w per non-edge)."""
    total = Fraction(0)
    for z in itertools.product(range(len(mu)), repeat=f.n):
        term = math.prod((mu[b] for b in z), start=Fraction(1))
        for i in range(1, f.n + 1):
            for j in range(i + 1, f.n + 1):
                p = w[z[i - 1]][z[j - 1]]
                if f.has_edge(i, j):
                    term *= p
                elif induced:
                    term *= 1 - p
        total += term
    return total


def brute_bip_kernel_sum(f, mu1, mu2, w, induced: bool = False) -> Fraction:
    """Bipartite kernel density (or prefix mass) over every pair of block
    tuples, one per part."""
    total = Fraction(0)
    for z1 in itertools.product(range(len(mu1)), repeat=f.n1):
        for z2 in itertools.product(range(len(mu2)), repeat=f.n2):
            term = math.prod((mu1[b] for b in z1), start=Fraction(1))
            term *= math.prod((mu2[b] for b in z2), start=Fraction(1))
            for u in range(1, f.n1 + 1):
                for v in range(1, f.n2 + 1):
                    p = w[z1[u - 1]][z2[v - 1]]
                    if f.has_edge(u, v):
                        term *= p
                    elif induced:
                        term *= 1 - p
            total += term
    return total


def brute_directed_kernel_sum(f, measures, flags, law, induced: bool = False) -> Fraction:
    """Directed kernel density (or prefix mass) over every tuple of latent
    states. A state s has measure measures[s] and loop flag flags[s];
    law[a, b][s][r] is the probability that a pair i < j in states (s, r)
    has X_ij = a and X_ji = b. Each pair's four outcomes are enumerated and
    kept when they contain (or, induced, equal) the pattern's arcs."""
    total = Fraction(0)
    for z in itertools.product(range(len(measures)), repeat=f.n):
        term = math.prod((measures[s] for s in z), start=Fraction(1))
        for v in range(1, f.n + 1):
            want, got = f.has_edge(v, v), flags[z[v - 1]]
            if (got != want) if induced else (want and not got):
                term = Fraction(0)
        for i in range(1, f.n + 1):
            for j in range(i + 1, f.n + 1):
                req = (f.has_edge(i, j), f.has_edge(j, i))
                term *= sum(
                    (law[a, b][z[i - 1]][z[j - 1]]
                     for a, b in itertools.product((0, 1), repeat=2)
                     if ((a, b) == req if induced else a >= req[0] and b >= req[1])),
                    Fraction(0),
                )
        total += term
    return total


def brute_plans(sizes, pairs, budget: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """(multiply-adds, peak cells) of every elimination order of a sum over
    vertices with these domain sizes, one factor per pair (u, v), whose
    arrays all fit `budget` cells, by trying all k! orders.

    Each order steps the tensors as vertex sets: one per weight and one per
    factor at the start, a tensor's cells the product of its vertices'
    sizes. Summing v out replaces the tensors holding v by their union less
    v. A lone tensor costs its cells and leaves one cell. Otherwise one of
    them, R, goes against the product X of the others (X the union of
    their sets, v included): building X costs (count - 2) * cells(X)
    multiplies, the matrix product cells(X | R) multiply-adds, and the step
    holds max(cells(X), cells((X | R) less v)) cells. R is the tensor of
    least held cells, then of least cost. An order holds at most the
    largest of its steps and of the starting tensors."""
    k = len(sizes)

    def cells(s) -> int:
        return math.prod(sizes[u] for u in s)

    fits = {}
    for order in itertools.permutations(range(k)):
        tensors = [frozenset({u}) for u in range(k)] + [frozenset(p) for p in pairs]
        cost, peak = 0, max(map(cells, tensors), default=1)
        for v in order:
            mine = [t for t in tensors if v in t]
            tensors = [t for t in tensors if v not in t] + [frozenset().union(*mine) - {v}]
            if len(mine) == 1:
                held, work = 1, cells(mine[0])
            else:
                held, work = min((max(cells(x), cells((x | r) - {v})), cells(x | r) + (len(mine) - 2) * cells(x))
                                 for i, r in enumerate(mine) for x in [frozenset().union(*mine[:i], *mine[i + 1:])])
            cost, peak = cost + work, max(peak, held)
        if peak <= budget:
            fits[order] = (cost, peak)
    return fits


def brute_canonical(g: LabelledGraph) -> LabelledGraph:
    """The relabelling of g with the least adjacency code, over all v(g)!
    permutations: the definition of the canonical form."""
    return min((g.permuted(p) for p in itertools.permutations(range(1, g.n + 1))), key=LabelledGraph.code)


def bip_canonical_rows(g) -> tuple[int, ...]:
    """Minimum row tuple of a bipartite graph over independent row and
    column permutations; equal exactly for graphs isomorphic as bipartite
    graphs."""
    best = None
    for cperm in itertools.permutations(range(g.n2)):
        remapped = []
        for r in g.rows:
            bits = 0
            for new_j, old_j in enumerate(cperm):
                bits |= (r >> old_j & 1) << new_j
            remapped.append(bits)
        cand = tuple(sorted(remapped))
        if best is None or cand < best:
            best = cand
    return best


def directed_canonical_rows(g) -> tuple[int, ...]:
    """Minimum row tuple of a directed graph over vertex permutations of
    the full adjacency matrix, diagonal included."""
    return min(
        tuple(sum((g.rows[perm[i]] >> perm[j] & 1) << j for j in range(g.n)) for i in range(g.n))
        for perm in itertools.permutations(range(g.n))
    )
