"""Simple labelled/unlabelled graphs, vertex sampling, pair-code isomorphism
classes, canonical forms and the enumeration of unlabelled graphs, all read
from one table of relabellings.

Vertices are labelled 1..n at the API surface. Internally each graph
stores one bitmask row per vertex (bit j-1 of rows[i-1] set iff i~j),
which keeps neighbourhood intersection at one word op per 64 vertices.
All graph values are immutable and hashable.

The edge-list files of simple, bipartite and directed graphs share one
core here: edge_rows checks and packs an edge array, row_edges undoes it.
row_words is the one packer of rows into numpy words, for every reader.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .exact import content_lines, parse_line, read_text

CANON_CAP = 8  # the largest simple pattern; its (8!, 28) relabelling table is 9 MB
CLASS_CAP = 7  # class scans and the enumeration relabel by all k! permutations
HOST_CAP = 1 << 16  # vertices per part of a host graph, read or sampled
ROW_BLOCK = 1 << 20  # cells of the boolean strip that rows are packed from or unpacked to
WORD = np.dtype("<u8")  # the word of packed rows; bit j of word w is column 64 w + j


def pair_order(k: int) -> list[tuple[int, int]]:
    """0-based vertex pairs (i, j), i < j, ordered (0,1),(0,2),(1,2),(0,3),...

    This colex order matches the chunk layout of canonical codes: pairs
    involving vertex j as the larger endpoint form one contiguous chunk.
    """
    return [(i, j) for j in range(1, k) for i in range(j)]


@dataclass(frozen=True)
class LabelledGraph:
    """Finite simple graph on vertex set {1..n}; adjacency as bitmask rows."""

    n: int
    rows: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabelledGraph":
        return cls(n, pair_rows(edges, (n, n), True))

    @classmethod
    def empty(cls, n: int) -> "LabelledGraph":
        return cls.from_edges(n, [])

    @classmethod
    def complete(cls, n: int) -> "LabelledGraph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << i) for i in range(n)))

    @classmethod
    def path(cls, n: int) -> "LabelledGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(1, n)])

    @classmethod
    def cycle(cls, n: int) -> "LabelledGraph":
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "LabelledGraph":
        return cls.from_edges(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u - 1] >> (v - 1) & 1)

    def degree(self, u: int) -> int:
        return self.rows[u - 1].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in row_bits(self.rows) if u < v]

    @cached_property
    def words(self) -> np.ndarray:
        """Read-only row_words of the rows, n^2/8 bytes, packed once and shared."""
        w = row_words(self.rows.__getitem__, self.n, 0, (self.n + 63) >> 6)
        w.flags.writeable = False
        return w

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def permuted(self, perm: Sequence[int]) -> "LabelledGraph":
        """Relabel: vertex u becomes perm[u-1] (perm is 1-based values)."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise InputError("not a permutation of 1..n")
        rows = [0] * self.n
        for u, v in self.edges():
            a, b = perm[u - 1] - 1, perm[v - 1] - 1
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return LabelledGraph(self.n, tuple(rows))

    def code(self) -> tuple[int, ...]:
        """Adjacency code in identity order: chunk j holds the bits towards
        vertices 1..j of vertex j+1, earliest vertex most significant."""
        return tuple(sum((self.rows[u] >> v & 1) << v - 1 - u for u in range(v)) for v in range(1, self.n))

    def to_text(self) -> str:
        return rows_text(str(self.n), self.rows, self.n, True)

    @classmethod
    def from_text(cls, text: str) -> "LabelledGraph":
        (n, _), rows = text_rows(text, "'n m' header", 2, True)
        return cls(n, rows)


def induced_pattern(g: LabelledGraph, verts: Sequence[int]) -> LabelledGraph:
    """Pattern on [k] pulled back along verts (1-based, repeats allowed).

    Edge {i,j} iff verts[i] != verts[j] and they are adjacent in g; a
    repeated vertex never yields an edge since g is loopless.
    """
    k = len(verts)
    for v in verts:
        if not 1 <= v <= g.n:
            raise InputError(f"vertex id {v} out of range 1..{g.n}")
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            a, b = verts[i], verts[j]
            if a != b and g.has_edge(a, b):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return LabelledGraph(k, tuple(rows))


def sample_with_replacement(g: LabelledGraph, k: int, rng: np.random.Generator) -> LabelledGraph:
    """Pattern of k vertices drawn uniformly with replacement."""
    if k < 1:
        raise InputError("k must be >= 1")
    verts = rng.integers(1, g.n + 1, size=k)
    return induced_pattern(g, [int(v) for v in verts])


def sample_without_replacement(g: LabelledGraph, k: int, rng: np.random.Generator) -> LabelledGraph:
    """Pattern of k distinct vertices in uniform random order; requires k <= v(g)."""
    if k < 1:
        raise InputError("k must be >= 1")
    if k > g.n:
        raise InputError(f"k={k} exceeds vertex count {g.n}")
    verts = rng.permutation(g.n)[:k] + 1
    return induced_pattern(g, [int(v) for v in verts])


def random_relabel(g: LabelledGraph, rng: np.random.Generator) -> LabelledGraph:
    """g with vertices renamed by a uniform random permutation of [v(g)]."""
    perm = [int(x) + 1 for x in rng.permutation(g.n)]
    return g.permuted(perm)


@dataclass(frozen=True)
class UnlabelledGraph:
    """Isomorphism class, represented by its canonical labelled form."""

    canon: LabelledGraph

    @property
    def n(self) -> int:
        return self.canon.n

    @property
    def code(self) -> tuple[int, ...]:
        return self.canon.code()

    def __repr__(self) -> str:
        return f"UnlabelledGraph(n={self.n}, edges={self.canon.edges()})"


def canonicalize(g: LabelledGraph) -> UnlabelledGraph:
    """Canonical form: the relabelling of g with the least adjacency code.

    code() reads the colex pairs with pair (1,2) most significant, the pair
    code with it least, so the least code() is the least bit-reversed pair
    code over the relabelling table. Isomorphic inputs map to identical
    outputs. Capped at v <= CANON_CAP; hosts never need canonicalising.
    """
    if g.n > CANON_CAP:
        raise CapacityError(f"canonicalization capped at {CANON_CAP} vertices, got {g.n}")
    images = _relabelled_edges(g)
    top = 1 << g.n * (g.n - 1) // 2 >> 1  # the reversed weight of pair 0
    best = images[np.argmin((top // images).sum(axis=1))]
    return UnlabelledGraph(graph_from_pair_bits(g.n, int(best.sum())))


def is_isomorphic(a: LabelledGraph, b: LabelledGraph) -> bool:
    return a.n == b.n and canonicalize(a) == canonicalize(b)


@dataclass(frozen=True)
class GraphEnumeration:
    """All isomorphism classes with v <= max_n in a fixed deterministic order:
    by vertex count, then canonical code."""

    max_n: int
    graphs: tuple[UnlabelledGraph, ...]

    def index_of(self, g: UnlabelledGraph) -> int:
        try:
            return _enum_index(self.max_n)[g]
        except KeyError as exc:
            raise InputError(f"graph on {g.n} vertices not in enumeration (max_n={self.max_n})") from exc

    def weight(self, i: int) -> Fraction:
        """Metric weight 2^-(i+1) of the i-th graph (0-based)."""
        return Fraction(1, 2 ** (i + 1))

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[UnlabelledGraph]:
        return iter(self.graphs)


@lru_cache(maxsize=None)
def enumerate_unlabelled(max_n: int) -> GraphEnumeration:
    """Complete duplicate-free enumeration of unlabelled graphs up to max_n:
    the canonical form of each pair-code class of every level n <= max_n."""
    if max_n < 1:
        raise InputError("max_n must be >= 1")
    if max_n > CLASS_CAP:
        raise CapacityError(f"enumeration capped at {CLASS_CAP} vertices, got {max_n}")
    graphs: list[UnlabelledGraph] = []
    for n in range(1, max_n + 1):
        level = [canonicalize(graph_from_pair_bits(n, members[0]))
                 for members in pair_code_classes(n, range(1 << n * (n - 1) // 2))]
        graphs += sorted(level, key=lambda g: g.code)
    return GraphEnumeration(max_n, tuple(graphs))


@lru_cache(maxsize=None)
def _enum_index(max_n: int) -> dict[UnlabelledGraph, int]:
    return {g: i for i, g in enumerate(enumerate_unlabelled(max_n).graphs)}


def pair_index(u: int, v: int) -> int:
    """Position of the 1-based pair {u, v} in the colex pair order; depends
    only on the pair, not on the ambient vertex count."""
    if u == v:
        raise InputError("no pairs on the diagonal")
    i, j = (u - 1, v - 1) if u < v else (v - 1, u - 1)
    return j * (j - 1) // 2 + i


def pair_bits_of(g: LabelledGraph) -> int:
    """Edge set packed into an int, bit pair_index(u,v) per edge."""
    bits = 0
    for u, v in g.edges():
        bits |= 1 << pair_index(u, v)
    return bits


def graph_from_pair_bits(k: int, bits: int) -> LabelledGraph:
    rows = [0] * k
    for idx, (i, j) in enumerate(pair_order(k)):
        if bits >> idx & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return LabelledGraph(k, tuple(rows))


def check_class_size(k: int) -> None:
    if k > CLASS_CAP:
        raise CapacityError(f"isomorphism classes capped at {CLASS_CAP} vertices, got {k}")


@lru_cache(maxsize=None)
def _relabel_weights(k: int) -> np.ndarray:
    """(k!, pairs) int64: 2^(pair index of the image) of every pair under
    each relabelling of [k], in itertools.permutations order."""
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    jj, ii = np.tril_indices(k, -1)  # colex pair order
    a, b = perms[:, ii], perms[:, jj]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return 1 << (hi * (hi - 1) // 2 + lo)


def _relabelled_edges(g: LabelledGraph) -> np.ndarray:
    """(n!, edges) int64: 2^(pair index of the image) of each edge of g under
    every relabelling of [n], in itertools.permutations order."""
    code = pair_bits_of(g)
    weights = _relabel_weights(g.n)
    return weights[:, [i for i in range(weights.shape[1]) if code >> i & 1]]


def isomorphism_class(g: LabelledGraph) -> list[int]:
    """Distinct pair codes of the relabellings of g on its own vertex set,
    in the order the relabellings first reach them: g's own code first."""
    check_class_size(g.n)
    codes = _relabelled_edges(g).sum(axis=1)
    _, first = np.unique(codes, return_index=True)
    return codes[np.sort(first)].tolist()


def pair_code_classes(k: int, codes: Iterable[int]) -> Iterator[list[int]]:
    """Each isomorphism class of graphs on [k] that meets `codes`, once, as
    the isomorphism_class of its first code there, in order of first
    appearance; codes of classes already found are skipped."""
    check_class_size(k)
    found = bytearray(1 << k * (k - 1) // 2)
    for code in codes:
        if not found[code]:
            members = isomorphism_class(graph_from_pair_bits(k, code))
            for m in members:
                found[m] = 1
            yield members


def restrict_prefix(g: LabelledGraph, n: int) -> LabelledGraph:
    """Induced subgraph on the first n vertices."""
    if not 1 <= n <= g.n:
        raise InputError(f"prefix size {n} out of range 1..{g.n}")
    mask = (1 << n) - 1
    return LabelledGraph(n, tuple(r & mask for r in g.rows[:n]))


def disjoint_union(parts: Sequence[LabelledGraph]) -> LabelledGraph:
    if not parts:
        raise InputError("disjoint union of nothing")
    rows: list[int] = []
    for p in parts:
        rows += [r << len(rows) for r in p.rows]
    return LabelledGraph(len(rows), tuple(rows))


def pack_rows(a: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as a bitmask: bit j of row i is a[i, j]."""
    packed = np.packbits(a, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(len(a)))


def row_words(row: Callable[[int], int], count: int, lo: int, width: int) -> np.ndarray:
    """(count, width) WORD array of words lo .. lo + width - 1 of the bitmasks
    row(0), ..., row(count - 1), which have no bits beyond them: the one place
    rows become numpy, in strips of about ROW_BLOCK bits held as bytes."""
    out = np.empty((count, width), dtype=WORD)
    step = max(1, ROW_BLOCK // (64 * width or 1))
    for a in range(0, count, step):
        data = b"".join((row(i) >> 64 * lo).to_bytes(8 * width, "little") for i in range(a, min(a + step, count)))
        out[a:a + step] = np.frombuffer(data, dtype=WORD).reshape(min(step, count - a), width)
    return out


def unpack_rows(rows: Sequence[int], width: int) -> np.ndarray:
    """Boolean matrix (len(rows), width) of bitmask rows: the inverse of pack_rows."""
    words = row_words(rows.__getitem__, len(rows), 0, (width + 63) >> 6)
    return np.unpackbits(words.view(np.uint8), axis=1, count=width, bitorder="little").view(bool)


def row_bits(rows: Sequence[int]) -> list[tuple[int, int]]:
    """1-based (i, j) for every set bit j-1 of rows[i-1], row by row: the
    edges of a small graph, by a pure-Python bit loop."""
    out = []
    for i, r in enumerate(rows, 1):
        while r:
            low = r & -r
            out.append((i, low.bit_length()))
            r ^= low
    return out


def row_edges(rows: Sequence[int], width: int) -> np.ndarray:
    """(m, 2) int64 array of 1-based (i, j), one per set bit j-1 of
    rows[i-1], in row-major order: the inverse of edge_rows. Non-empty rows
    are read as row_words one strip of about ROW_BLOCK cells at a time, and
    only their non-zero bytes are unpacked, so sparse rows cost O(edges) cells."""
    busy = np.flatnonzero(np.fromiter(map(bool, rows), dtype=bool, count=len(rows)))
    step = max(1, ROW_BLOCK // width)
    parts = [np.empty((0, 2), dtype=np.int64)]
    for a in range(0, len(busy), step):
        idx = busy[a:a + step]
        data = row_words(lambda i: rows[idx[i]], len(idx), 0, (width + 63) >> 6).view(np.uint8)
        i, j = np.nonzero(data)  # non-zero bytes, row-major
        bit = np.flatnonzero(np.unpackbits(data[i, j], bitorder="little"))
        byte = bit >> 3
        parts.append(np.column_stack([idx[i[byte]] + 1, j[byte] * 8 + (bit & 7) + 1]))
    return np.concatenate(parts)


def check_host_size(*sizes: int) -> None:
    """CapacityError for a part over HOST_CAP, before any allocation."""
    if max(sizes, default=0) > HOST_CAP:
        raise CapacityError(f"host graphs capped at {HOST_CAP} vertices per part, got {max(sizes)}")


def edge_rows(
    edges: np.ndarray, shape: tuple[int, int], symmetric: bool, name: Callable[[int], str]
) -> tuple[int, ...]:
    """Bitmask rows of shape[0] vertices over shape[1] columns from an (m, 2)
    int64 array of 1-based edges (u, v), scattered into a boolean strip of
    about ROW_BLOCK cells at a time and packed; strips without edges cost
    nothing. An edge must lie in range and not repeat an earlier one; in a
    symmetric graph (u, v) sets both bits, repeats an earlier (v, u), and
    u = v is a self edge. The first bad edge raises InputError, named by
    name(i).
    """
    n1, n2 = shape
    if n1 < 1 or n2 < 1:
        raise InputError(f"vertex count must be >= 1, got {min(n1, n2)}")
    check_host_size(n1, n2)
    u, v = edges[:, 0], edges[:, 1]
    outside = (u < 1) | (u > n1) | (v < 1) | (v > n2)
    lo, hi = (np.minimum(u, v), np.maximum(u, v)) if symmetric else (u, v)
    key = np.where(outside, -1 - np.arange(len(u)), lo * (n2 + 1) + hi)
    order = np.argsort(key, kind="stable")
    bad = (outside | (u == v)) if symmetric else outside.copy()
    bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True  # later copies
    if bad.any():
        i = int(np.argmax(bad))
        why = (f"out of range: u must lie in 1..{n1} and v in 1..{n2}" if outside[i]
               else "is a self edge" if symmetric and u[i] == v[i] else "repeats an earlier edge")
        raise InputError(f"{name(i)} {why}")
    if symmetric:
        u, v = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.argsort(u, kind="stable")
    u, v = u[order] - 1, v[order] - 1
    step = max(1, ROW_BLOCK // n2)
    rows = [0] * n1
    strip = u // step  # sorted, so each strip with edges is one run
    for top in (strip[np.diff(strip, prepend=-1) != 0] * step).tolist():
        first, last = np.searchsorted(u, [top, top + step])
        block = np.zeros((min(step, n1 - top), n2), dtype=bool)
        block[u[first:last] - top, v[first:last]] = True
        rows[top:top + len(block)] = pack_rows(block)
    return tuple(rows)


def column_rows(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """Rows of the transpose, `width` rows over len(rows) columns: the edges
    of row_edges with their columns swapped, repacked by edge_rows, so no
    len(rows) x width matrix is made."""
    return edge_rows(row_edges(rows, width)[:, ::-1], (width, len(rows)), False, str)


def _edge_array(pairs: Iterable[Sequence[int]]) -> np.ndarray:
    """(m, 2) int64 array of integer pairs; an endpoint beyond int64 becomes
    +-2^62, which no range check accepts."""
    pairs = list(pairs)
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.clip(np.array(pairs, dtype=object), -2**62, 2**62).astype(np.int64).reshape(-1, 2)


def pair_rows(
    pairs: Iterable[Sequence[int]], shape: tuple[int, int], symmetric: bool
) -> tuple[int, ...]:
    """edge_rows of integer pairs (u, v); an error names the pair."""
    edges = _edge_array(pairs)
    return edge_rows(edges, shape, symmetric, lambda i: f"edge ({edges[i, 0]},{edges[i, 1]})")


def _bulk_edges(text: str, fields: int) -> tuple[list[int], np.ndarray] | None:
    """(header numbers, (m, 2) edges) of an edge-list text made only of
    digits, spaces, tabs and newlines, with `fields` numbers on its first
    non-blank line, two on every other and none over 18 digits; None for
    any other text."""
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digit = (b - 48) < 10  # uint8 wraps below '0'
    newline = b == 10
    if not (digit | newline | (b == 32) | (b == 9)).all():
        return None
    step = np.diff(digit.view(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    per_line = np.bincount(np.searchsorted(np.flatnonzero(newline), starts))
    per_line = per_line[per_line > 0]
    if (stops - starts > 18).any() or list(per_line[:1]) != [fields] or (per_line[1:] != 2).any():
        return None
    numbers = np.fromstring(text, dtype=np.int64, sep=" ")
    return numbers[:fields].tolist(), numbers[fields:].reshape(-1, 2)


def text_rows(
    text: str, header: str, fields: int, symmetric: bool
) -> tuple[list[int], tuple[int, ...]]:
    """(header numbers, edge_rows) of an edge-list file: a header line of
    `fields` integers, the vertex counts first and the edge count m last,
    then m lines 'u v', with u < v in a symmetric graph. An error quotes
    the first bad line.

    A text of digits, blanks and newlines is read in bulk; any other text
    goes line by line through parse_line.
    """
    bulk = _bulk_edges(text, fields)
    if bulk is None:
        lines = content_lines(text) or [""]
        head = parse_line(lines[0], header, fields, int)
        bulk = head, _edge_array(parse_line(ln, "edge line 'u v'", 2, int) for ln in lines[1:])
    head, edges = bulk

    def line(i: int) -> str:  # non-blank line i, quoted; only an error reads it
        return repr(content_lines(text)[i])

    if len(edges) != head[-1]:
        raise InputError(f"header {line(0)} declares {head[-1]} edges, file has {len(edges)}")
    down = np.flatnonzero(edges[:, 0] >= edges[:, 1]) if symmetric else []
    if len(down):
        raise InputError(f"edge line {line(down[0] + 1)} must satisfy u < v")
    rows = edge_rows(edges, (head[0], head[-2]), symmetric, lambda i: f"edge line {line(i + 1)}")
    return head, rows


def rows_text(header: str, rows: Sequence[int], width: int, symmetric: bool) -> str:
    """The edge-list file of bitmask rows: the header, the edge count, then
    one line 'u v' per edge in row-major order (u < v when symmetric)."""
    edges = row_edges(rows, width)
    edges = edges[edges[:, 0] < edges[:, 1]] if symmetric else edges
    return f"{header} {len(edges)}\n" + ("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist())


def graph_from_bool_matrix(a: np.ndarray) -> LabelledGraph:
    """Build a graph from a symmetric boolean matrix with empty diagonal."""
    return LabelledGraph(a.shape[0], pack_rows(a))


def read_graph(path: str) -> LabelledGraph:
    return LabelledGraph.from_text(read_text(path))


def write_graph(g: LabelledGraph, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(g.to_text())
