"""Simple labelled/unlabelled graphs, vertex sampling, pair-code isomorphism
classes, canonical forms and the enumeration of unlabelled graphs, all read
from one table of relabellings.

Vertices are labelled 1..n at the API surface. A graph of every kind
stores only its `words`: a read-only WORD table, bit j of word w of row i
set iff vertex i + 1 is joined to vertex 64 w + j + 1. Every writer and
every engine works on words; `rows`, one Python int per row, is a lazy
view for patterns and API callers. All graph values are immutable and
hashable. The edge-list files of all three kinds share one core here:
edge_words checks an edge array and sets its bits, word_edges undoes it.
"""
from __future__ import annotations

import itertools
import operator
import zlib
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .exact import content_lines, parse_line, read_text

CANON_CAP = 8  # the largest simple pattern; its (8!, 28) relabelling table is 9 MB
CLASS_CAP = 7  # class scans and the enumeration relabel by all k! permutations
HOST_CAP = 1 << 16  # vertices per part of a host graph, read or sampled
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)])  # each byte, bit-reversed
WORD = np.dtype("<u8")  # the word of packed rows; bit j of word w is column 64 w + j


def pair_order(k: int) -> list[tuple[int, int]]:
    """0-based vertex pairs (i, j), i < j, ordered (0,1),(0,2),(1,2),(0,3),...

    This colex order matches the chunk layout of canonical codes: pairs
    involving vertex j as the larger endpoint form one contiguous chunk.
    """
    return [(i, j) for j in range(1, k) for i in range(j)]


class Packed:
    """What the three graph kinds share. A subclass is a frozen dataclass
    whose fields are its part sizes, then `words`, given as a WORD table
    or as bitmask rows (ints) for word_table to check and pack, and whose
    `shape` is (rows, columns). The writers here build through _of."""

    symmetric = False  # a simple graph: no loops, and bit j of row i iff bit i of row j

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", word_table(self.words, self.shape, self.symmetric))

    @classmethod
    def _of(cls, *values):
        """The graph of these part sizes and WORD table, made by a writer
        here (no bit past the last column; simple if symmetric): unchecked."""
        values[-1].flags.writeable = False
        graph = object.__new__(cls)
        graph.__dict__.update(zip([f.name for f in fields(cls)], values))
        return graph

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """The words as one bitmask int per row, made on first use."""
        return word_ints(self.words)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(int(self.words[u - 1, (v - 1) >> 6]) >> ((v - 1) & 63) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in word_edges(self.words).tolist() if u < v or not self.symmetric]

    @property
    def num_edges(self) -> int:
        w, step = self.words, 1 + (1 << 15) // (1 + self.words.shape[1])  # rows per popcount strip
        return sum(int(popcount(w[s:s + step]).sum()) for s in range(0, len(w), step)) // (1 + self.symmetric)

    def to_text(self) -> str:
        """The edge-list file: the part sizes and the edge count, then one
        line 'u v' per edge in row-major order (u < v when symmetric). Rows
        are written in blocks of about 1 MB of words, each edge as the bytes
        of its two endpoints' decimal tokens: no Python int per endpoint."""
        sizes = [getattr(self, f.name) for f in fields(self)[:-1]]
        tokens, keep = _decimal_tokens(max(sizes))
        step = 1 + (1 << 17) // (1 + self.words.shape[1])  # rows per block
        blocks, m = [], 0
        for s in range(0, len(self.words), step):
            lo = s >> 6 if self.symmetric else 0  # words left of the block's diagonal hold no u < v
            edges = word_edges(self.words[s:s + step, lo:])
            edges += (s, 64 * lo)
            edges = edges[edges[:, 0] < edges[:, 1]] if self.symmetric else edges
            m += len(edges)
            blocks.append(str(tokens[[0, 1], edges][keep[edges]], "ascii"))
        return "".join([" ".join(map(str, sizes)) + f" {m}\n", *blocks])

    @classmethod
    def from_text(cls, text: str):  # the header holds the part sizes, then the edge count m
        names = [f.name for f in fields(cls)[:-1]]
        head, words = text_words(text, f"'{' '.join(names)} m' header", len(names) + 1, cls.symmetric)
        return cls._of(*head[:-1], words)

    @classmethod
    def empty(cls, *sizes: int):
        """The graph of these part sizes (n, or n1 and n2) with no edges."""
        return cls._of(*sizes, word_rows((sizes[0], sizes[-1])))

    @classmethod
    def complete(cls, *sizes: int):
        """The graph of these part sizes with every edge (a directed one's loops too)."""
        words = word_rows((sizes[0], sizes[-1]))
        words[:] = ~np.uint64(0)
        words[:, -1] = tail_mask(sizes[-1])  # no bit past the last column
        if cls.symmetric:
            i = np.arange(sizes[0])
            words[i, i >> 6] &= ~bit_of(i)
        return cls._of(*sizes, words)

    def is_complete(self) -> bool:
        """Whether this is the complete graph of its part sizes."""
        return self == self.complete(*[getattr(self, f.name) for f in fields(self)[:-1]])

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.shape == other.shape and np.array_equal(self.words, other.words)

    def __hash__(self) -> int:
        return hash((self.shape, zlib.crc32(self.words)))  # read in place: the words are C-contiguous


@dataclass(frozen=True, eq=False)
class LabelledGraph(Packed):
    """Finite simple graph on vertex set {1..n}."""

    n: int
    words: np.ndarray

    symmetric = True
    shape = property(lambda self: (self.n, self.n))  # (rows, columns)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabelledGraph":
        return cls._of(n, pair_words(edges, (n, n), True))

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

    def degree(self, u: int) -> int:
        return int(popcount(self.words[u - 1]).sum())

    def permuted(self, perm: Sequence[int]) -> "LabelledGraph":
        """Relabel: vertex u becomes perm[u-1] (perm is 1-based values)."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise InputError("not a permutation of 1..n")
        p, e = np.array(perm, dtype=np.intp) - 1, word_edges(self.words) - 1
        return LabelledGraph._of(self.n, set_bits(np.zeros_like(self.words), p[e[:, 0]], p[e[:, 1]]))

    def code(self) -> tuple[int, ...]:
        """Adjacency code in identity order: chunk j holds the bits towards
        vertices 1..j of vertex j+1, earliest vertex most significant."""
        return tuple(sum((self.rows[u] >> v & 1) << v - 1 - u for u in range(v)) for v in range(1, self.n))


def induced_pattern(g: LabelledGraph, verts: Sequence[int]) -> LabelledGraph:
    """Pattern on [k] pulled back along verts (1-based, repeats allowed).

    Edge {i,j} iff verts[i] != verts[j] and they are adjacent in g; a
    repeated vertex never yields an edge since g is loopless.
    """
    for v in verts:
        if not 1 <= v <= g.n:
            raise InputError(f"vertex id {v} out of range 1..{g.n}")
    v = np.array(verts, dtype=np.intp) - 1
    return LabelledGraph._of(len(v), pack_bits(word_bits(g.words, v[:, None], v[None, :])))


def sample_with_replacement(g: LabelledGraph, k: int, rng: np.random.Generator) -> LabelledGraph:
    """Pattern of k vertices drawn uniformly with replacement."""
    if k < 1:
        raise InputError("k must be >= 1")
    return induced_pattern(g, rng.integers(1, g.n + 1, size=k).tolist())


def sample_without_replacement(g: LabelledGraph, k: int, rng: np.random.Generator) -> LabelledGraph:
    """Pattern of k distinct vertices in uniform random order; requires k <= v(g)."""
    if k < 1:
        raise InputError("k must be >= 1")
    if k > g.n:
        raise InputError(f"k={k} exceeds vertex count {g.n}")
    return induced_pattern(g, (rng.permutation(g.n)[:k] + 1).tolist())


def random_relabel(g: LabelledGraph, rng: np.random.Generator) -> LabelledGraph:
    """g with vertices renamed by a uniform random permutation of [v(g)]."""
    return g.permuted((rng.permutation(g.n) + 1).tolist())


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


def canonicalize(g: LabelledGraph, codes: Sequence[int] | None = None) -> UnlabelledGraph:
    """Canonical form: the relabelling of g with the least adjacency code.

    code() reads the colex pairs with pair (1,2) most significant, the pair
    code with it least, so the least code() is the least bit-reversed pair
    code among the relabellings: among `codes`, g's isomorphism_class from
    a caller that holds it, else over the relabelling table. Isomorphic
    inputs map to identical outputs. Capped at v <= CANON_CAP, so a code
    has at most 28 bits and is reversed as four bytes; hosts never need
    canonicalising.
    """
    if g.n > CANON_CAP:
        raise CapacityError(f"canonicalization capped at {CANON_CAP} vertices, got {g.n}")
    codes = _relabelled_edges(g).sum(axis=1) if codes is None else np.array(codes)
    reversed_codes = sum(_REVERSED_BYTES[codes >> 8 * b & 255] << 8 * (3 - b) for b in range(4))
    return UnlabelledGraph(graph_from_pair_bits(g.n, int(codes[np.argmin(reversed_codes)])))


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
    the canonical form of each pair-code class of every level n <= max_n,
    read from the class's own codes."""
    if max_n < 1:
        raise InputError("max_n must be >= 1")
    if max_n > CLASS_CAP:
        raise CapacityError(f"enumeration capped at {CLASS_CAP} vertices, got {max_n}")
    graphs: list[UnlabelledGraph] = []
    for n in range(1, max_n + 1):
        level = [canonicalize(graph_from_pair_bits(n, members[0]), members)
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
    """Edge set packed into an int, bit pair_index(u,v) per edge: the bits
    of row j below column j are the chunk of pairs (i, j), i < j."""
    return sum((r & (1 << j) - 1) << j * (j - 1) // 2 for j, r in enumerate(g.rows))


def graph_from_pair_bits(k: int, bits: int) -> LabelledGraph:
    """The graph on [k] of a pair code (k <= 64: one word per row)."""
    rows = [0] * k
    for idx, (i, j) in enumerate(pair_order(k)):
        if bits >> idx & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return LabelledGraph._of(k, np.array(rows, dtype=WORD).reshape(k, (k + 63) >> 6))


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
    words = g.words[:n, :(n + 63) >> 6].copy()
    words[:, -1] &= tail_mask(n)
    return LabelledGraph._of(n, words)


def disjoint_union(parts: Sequence[LabelledGraph]) -> LabelledGraph:
    if not parts:
        raise InputError("disjoint union of nothing")
    rows = [r << at for p, at in zip(parts, itertools.accumulate([p.n for p in parts], initial=0)) for r in p.rows]
    return LabelledGraph(len(rows), rows)


def bit_of(j: np.ndarray) -> np.ndarray:
    """Per column index j, the WORD with column j's bit set, for word j >> 6."""
    return np.left_shift(np.uint64(1), (j & 63).astype(WORD))


def word_bits(words: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Boolean array: bit j of row i of a WORD table, per pair of 0-based indices."""
    return (words[i, j >> 6] & bit_of(j)) != 0


def check_host_size(*sizes: int) -> None:
    """CapacityError for a part over HOST_CAP, before any allocation."""
    if max(sizes, default=0) > HOST_CAP:
        raise CapacityError(f"host graphs capped at {HOST_CAP} vertices per part, got {max(sizes)}")


def word_rows(shape: tuple[int, int]) -> np.ndarray:
    """The WORD table of a graph of shape (rows, columns) with every bit
    clear, after the size checks of every writer."""
    n1, n2 = shape
    if n1 < 1 or n2 < 1:
        raise InputError(f"vertex count must be >= 1, got {min(n1, n2)}")
    check_host_size(n1, n2)
    return np.zeros((n1, (n2 + 63) >> 6), dtype=WORD)


def word_table(data: np.ndarray | Iterable[int], shape: tuple[int, int], symmetric: bool) -> np.ndarray:
    """The read-only WORD table of a graph of shape (rows, columns) from
    `data`: a WORD table of that shape, copied, or its bitmask rows (ints),
    checked for their number, for bits past the last column and, in a
    symmetric graph, for loops and symmetry. The first bad row raises
    InputError."""
    n1, n2 = shape
    step = (n2 + 63) >> 6
    if isinstance(data, np.ndarray):
        if data.dtype != WORD or data.shape != (n1, step):
            raise InputError(f"not a WORD table of {n1} rows over {n2} columns")
        data = data.copy()
        bad = np.flatnonzero(data[:, -1] & ~tail_mask(n2)) if step else ()
    else:
        rows = [operator.index(r) for r in data]
        if len(rows) != n1:
            raise InputError(f"a graph of {n1} rows takes {n1} bitmask rows, got {len(rows)}")
        bad = [i for i, r in enumerate(rows) if r < 0 or r >> n2][:1]
        words = bytes(8 * n1 * step) if bad else b"".join(r.to_bytes(8 * step, "little") for r in rows)
        data = np.frombuffer(words, dtype=WORD).reshape(n1, step)
    if len(bad):
        raise InputError(f"row {bad[0] + 1} has a bit outside columns 1..{n2}")
    bad = np.flatnonzero((data != column_words(data, n2)).any(axis=1) | word_bits(data, *np.diag_indices(n1))
                         ) if symmetric and n1 else ()
    if len(bad):
        why = "has a loop" if word_bits(data, bad[0], bad[0]) else f"differs from column {bad[0] + 1}"
        raise InputError(f"row {bad[0] + 1} {why}: not a simple graph")
    data.flags.writeable = False
    return data


def tail_mask(width: int) -> np.uint64:
    """The columns of the last word of a WORD table `width` columns wide."""
    return ~np.uint64(0) >> np.uint64(-width & 63)


_SWAR = [np.uint64(c) for c in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                                0x0101010101010101, 1, 2, 4, 56)]


def popcount(w: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word, by SWAR: numpy 1.24 has no popcount ufunc."""
    m1, m2, m4, h01, s1, s2, s4, s56 = _SWAR
    w = w - ((w >> s1) & m1)
    w = (w & m2) + ((w >> s2) & m2)
    return (((w + (w >> s4)) & m4) * h01) >> s56


def word_ints(words: np.ndarray) -> tuple[int, ...]:
    """Each row of a WORD table as a bitmask int, as word_table reads them."""
    return tuple(int.from_bytes(row.tobytes(), "little") for row in words)


def _decimal_tokens(top: int) -> tuple[np.ndarray, np.ndarray]:
    """(tokens, keep) of the numbers 0..top, each len(str(top)) + 1 bytes
    wide: tokens[s, v] is v's decimal digits, then a space (s = 0) or a
    newline (s = 1), then padding; keep[v] marks the digits and separator."""
    width = len(str(top))
    v = np.arange(top + 1)
    digits = 1 + (v[:, None] >= 10 ** np.arange(1, width)).sum(axis=1)
    place = np.maximum(digits[:, None] - 1 - np.arange(width + 1), 0)  # the power of ten each byte shows
    tokens = np.empty((2, top + 1, width + 1), dtype=np.uint8)
    tokens[:] = v[:, None] // 10 ** place % 10 + 48
    tokens[:, v, digits] = [[32], [10]]
    return tokens, np.arange(width + 1) <= digits[:, None]


def pack_bits(a: np.ndarray) -> np.ndarray:
    """(rows, ceil(columns / 64)) WORD table of a boolean matrix: bit j of
    row i is a[i, j]. The one packer of bits into words."""
    out = np.zeros((len(a), 8 * ((a.shape[1] + 63) >> 6)), dtype=np.uint8)
    out[:, :(a.shape[1] + 7) >> 3] = np.packbits(a, axis=1, bitorder="little")
    return out.view(WORD)


def unpack_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Boolean matrix (rows, width) of a WORD table: the inverse of pack_bits."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=width, bitorder="little").view(bool)


def word_edges(words: np.ndarray) -> np.ndarray:
    """(m, 2) int64 array of 1-based (i, j), one per set bit j-1 of row i-1,
    row-major: the inverse of edge_words. It scans the words (a byte scan
    is six times slower) and unpacks only the non-zero bytes of non-zero words."""
    i, w = np.nonzero(words)
    data = words[i, w].view(np.uint8)
    byte = np.flatnonzero(data)
    bit = np.flatnonzero(np.unpackbits(data[byte], bitorder="little"))
    at = byte[bit >> 3]  # byte at & 7 of non-zero word at >> 3
    word = at >> 3
    return np.column_stack([i[word] + 1, w[word] * 64 + (at & 7) * 8 + (bit & 7) + 1]).astype(np.int64, copy=False)


def set_bits(words: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """words, with bit j of row i set for each pair of 0-based indices."""
    np.bitwise_or.at(words.reshape(-1), i * words.shape[1] + (j >> 6), bit_of(j))
    return words


def edge_words(
    edges: np.ndarray, shape: tuple[int, int], symmetric: bool, name: Callable[[int], str]
) -> np.ndarray:
    """WORD table of shape[0] rows over shape[1] columns from an (m, 2)
    int64 array of 1-based edges (u, v). An edge must lie in range and not
    repeat an earlier one; in a symmetric graph (u, v) sets both bits,
    repeats an earlier (v, u), and u = v is a self edge. The first bad
    edge raises InputError, named by name(i).
    """
    n1, n2 = shape
    words = word_rows(shape)
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
    return set_bits(words, u - 1, v - 1)


def column_words(words: np.ndarray, width: int) -> np.ndarray:
    """WORD table of the transpose, `width` rows over len(words) columns,
    from the swapped word_edges: no len(words) x width matrix is made."""
    e = word_edges(words) - 1
    return set_bits(word_rows((width, len(words))), e[:, 1], e[:, 0])


def _edge_array(pairs: Iterable[Sequence[int]]) -> np.ndarray:
    """(m, 2) int64 array of integer pairs; an endpoint beyond int64 becomes
    +-2^62, which no range check accepts."""
    pairs = list(pairs)
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.clip(np.array(pairs, dtype=object), -2**62, 2**62).astype(np.int64).reshape(-1, 2)


def pair_words(pairs: Iterable[Sequence[int]], shape: tuple[int, int], symmetric: bool) -> np.ndarray:
    """edge_words of integer pairs (u, v); an error names the pair."""
    edges = _edge_array(pairs)
    return edge_words(edges, shape, symmetric, lambda i: f"edge ({edges[i, 0]},{edges[i, 1]})")


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


def text_words(
    text: str, header: str, fields: int, symmetric: bool
) -> tuple[list[int], np.ndarray]:
    """(header numbers, edge_words) of an edge-list file: a header line of
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
    return head, edge_words(edges, (head[0], head[-2]), symmetric, lambda i: f"edge line {line(i + 1)}")


def strip_words(shape: tuple[int, int], draw: Callable[[int, np.ndarray, np.ndarray], None]) -> np.ndarray:
    """WORD table of a sampled graph of shape (rows, columns), the one writer of a
    sampler's bits, drawn 64 rows (a word column) at a time: draw(i, own, mirror)
    sets row i's bits in the clear bool row `own` and, in a square table, those it
    sets in column i of other rows in `mirror` (mirror[j]: bit i of row j)."""
    n1, n2 = shape
    words = word_rows(shape)
    for a in range(0, n1, 64):
        own, mirror = np.zeros((64, n2), dtype=bool), np.zeros((64, n1), dtype=bool)
        for i in range(a, min(a + 64, n1)):
            draw(i, own[i - a], mirror[i - a])
        words[a:a + 64] |= pack_bits(own[:n1 - a])
        # byte k of row j from strip rows 8k..8k+7, by einsum (np.packbits down columns is 20x slower);
        # a square bipartite table never sets its mirror
        if n1 == n2 and mirror.any():
            column = np.einsum("ktj,t->kj", mirror.view(np.uint8).reshape(8, 8, n1), 1 << np.arange(8, dtype=np.uint8))
            words[:, a >> 6] |= np.ascontiguousarray(column.T).view(WORD)[:, 0]
    return words


def graph_from_bool_matrix(a: np.ndarray) -> LabelledGraph:
    """Build a graph from a symmetric boolean matrix with empty diagonal."""
    return LabelledGraph._of(a.shape[0], pack_bits(a))


def read_graph(path: str) -> LabelledGraph:
    return LabelledGraph.from_text(read_text(path))


def write_graph(g: LabelledGraph, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(g.to_text())
