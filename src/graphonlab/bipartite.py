"""Bipartite graphs with an explicit bipartition and nonsymmetric kernels.

Patterns carry their own bipartition; maps respect parts. Sampling uses
independent latent sequences for the two sides, so nothing here assumes
kernel symmetry.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import CapacityError, InputError
from .exact import (Number, _checked_matrix, _normalized_measures, content_lines, number_rows, parse_line,
                    rows_lines, to_fraction)
from .graphs import Packed, column_words, pair_words, strip_words, unpack_bits
from .rng import bernoulli, draw_blocks, table_reader

if TYPE_CHECKING:  # the sampler never loads the contraction engine
    from .densities import BoundCheck

BIP_PATTERN_CAP = 6


@dataclass(frozen=True, eq=False)
class BipartiteGraph(Packed):
    """Vertex sets [n1] and [n2]; edges only across parts, one row per
    part-1 vertex over the n2 columns of part 2."""

    n1: int
    n2: int
    words: np.ndarray

    shape = property(lambda self: (self.n1, self.n2))  # (rows, columns)

    @classmethod
    def from_edges(cls, n1: int, n2: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        return cls._of(n1, n2, pair_words(edges, (n1, n2), False))


def _check_bip_pattern(f: BipartiteGraph) -> None:
    if f.n1 > BIP_PATTERN_CAP or f.n2 > BIP_PATTERN_CAP:
        raise CapacityError(
            f"bipartite pattern capped at {BIP_PATTERN_CAP} vertices per part, got {f.n1} and {f.n2}"
        )


def _bip_count(f: BipartiteGraph, g: BipartiteGraph, injective: bool, induced: bool) -> int:
    """Part-respecting maps preserving f's edges (optionally injective,
    optionally reflecting non-edges): f as one symmetric pattern, part 1
    first, into g's two parts, each over its own columns."""
    from .densities import host_count

    cols = column_words(g.words, g.n2)
    prows = [r << f.n1 for r in f.rows] + [sum((r >> v & 1) << u for u, r in enumerate(f.rows)) for v in range(f.n2)]
    doms = [np.arange(g.n1)] * f.n1 + [np.arange(g.n2)] * f.n2
    host = {(0, 1): (g.words, g.words), (1, 0): (cols, cols)}
    return host_count(prows, [0] * f.n1 + [1] * f.n2, doms, host, injective, induced)


def _density(f: BipartiteGraph, g: BipartiteGraph, injective: bool, induced: bool) -> Fraction:
    """_bip_count over all part-respecting maps, or over the injective
    ones; 0 when an injective pattern's part outnumbers the host's."""
    from .densities import falling

    _check_bip_pattern(f)
    maps = falling(g.n1, f.n1) * falling(g.n2, f.n2) if injective else g.n1**f.n1 * g.n2**f.n2
    return Fraction(_bip_count(f, g, injective, induced), maps) if maps else Fraction(0)


def bip_t(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Density over part-respecting maps drawn uniformly with replacement."""
    return _density(f, g, False, False)


def bip_t_inj(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Containment density over distinct vertices per part; 0 when a part
    of f outnumbers the matching part of g."""
    return _density(f, g, True, False)


def bip_t_ind(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Probability the sampled distinct vertices induce exactly f."""
    return _density(f, g, True, True)


def bip_sampling_bound(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Two-part repeated-vertex bound on |t - t_inj|."""
    return Fraction(f.n1**2, 2 * g.n1) + Fraction(f.n2**2, 2 * g.n2)


def bip_sampling_bound_check(f: BipartiteGraph, g: BipartiteGraph) -> BoundCheck:
    """|t - t_inj| against the two-part repeated-vertex bound."""
    from .densities import BoundCheck

    gap = abs(bip_t(f, g) - bip_t_inj(f, g))
    bound = bip_sampling_bound(f, g)
    return BoundCheck(gap, bound, gap <= bound)


@dataclass(frozen=True)
class BipartiteKernel:
    """Step kernel on [0,1]^2 with independent block structures per side;
    no symmetry requirement."""

    mu1: tuple[Fraction, ...]
    mu2: tuple[Fraction, ...]
    w: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        mu1 = _normalized_measures(self.mu1, "row block measures")
        mu2 = _normalized_measures(self.mu2, "column block measures")
        object.__setattr__(self, "w", _checked_matrix(self.w, len(mu1), len(mu2), "w"))
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)

    @property
    def m1(self) -> int:
        return len(self.mu1)

    @property
    def m2(self) -> int:
        return len(self.mu2)

    @classmethod
    def constant(cls, p: Number) -> "BipartiteKernel":
        return cls((Fraction(1),), (Fraction(1),), ((to_fraction(p),),))

    def to_text(self) -> str:
        return "\n".join([f"{self.m1} {self.m2}", *rows_lines([self.mu1, self.mu2, *self.w])]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BipartiteKernel":
        lines = content_lines(text) or [""]
        m1, m2 = parse_line(lines[0], "'m1 m2' header", 2, int)
        if not 0 < m1 < len(lines):  # before a list of m1 + 2 widths is built
            raise InputError(f"a bipartite kernel of {m1} row blocks takes {m1 + 3} lines, got {len(lines)}")
        mu1, mu2, *w = number_rows(lines[1:], [m1, m2] + [m2] * m1)
        return cls(mu1, mu2, w)


def bip_graph_as_kernel(g: BipartiteGraph) -> BipartiteKernel:
    """Adjacency kernel of a bipartite graph: uniform measures per side,
    0/1 values; reproduces bip_t(F, g) exactly for every pattern."""
    w = unpack_bits(g.words, g.n2).astype(int).tolist()
    return BipartiteKernel((Fraction(1, g.n1),) * g.n1, (Fraction(1, g.n2),) * g.n2, w)


def _bip_kernel_sum(f: BipartiteGraph, w: BipartiteKernel, induced: bool) -> Fraction:
    from .densities import kernel_sum

    _check_bip_pattern(f)
    comp = tuple(tuple(1 - x for x in row) for row in w.w)
    factors = {
        (u, f.n1 + v): w.w if f.rows[u] >> v & 1 else comp
        for u in range(f.n1)
        for v in range(f.n2)
        if induced or f.rows[u] >> v & 1
    }
    return kernel_sum([w.mu1] * f.n1 + [w.mu2] * f.n2, factors)


def bip_exact_density(f: BipartiteGraph, w: BipartiteKernel) -> Fraction:
    """Exact block-assignment sum for the bipartite density integral."""
    return _bip_kernel_sum(f, w, induced=False)


def bip_exact_ind_density(f: BipartiteGraph, w: BipartiteKernel) -> Fraction:
    """Exact probability that the sampled prefix equals f: kernel value per
    edge, complement per non-edge."""
    return _bip_kernel_sum(f, w, induced=True)


def sample_bip_w_random(
    w: BipartiteKernel, n1: int, n2: int, rng: np.random.Generator
) -> BipartiteGraph:
    """G(n1, n2, W): independent latent labels per side, then independent
    edges with the kernel's probabilities: bip_cell_bits_batch at count 1,
    row by row through graphs.strip_words."""
    if n1 < 1 or n2 < 1:
        raise InputError("both parts need at least one vertex")
    read = table_reader(w.w, draw_blocks(w.mu1, (1, n1), rng).T, draw_blocks(w.mu2, (1, n2), rng).T)
    cols = np.arange(n2)
    def draw(i, own, mirror):
        own[:] = bernoulli(lambda s: read(i, cols[s]), n2, 1, rng)[0]
    return BipartiteGraph._of(n1, n2, strip_words((n1, n2), draw))


def bip_cell_bits_batch(
    w: BipartiteKernel, k1: int, k2: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean array (count, k1*k2): edge indicators of iid (k1,k2)-prefixes,
    cells in row-major order."""
    read = table_reader(w.w, draw_blocks(w.mu1, (count, k1), rng).T, draw_blocks(w.mu2, (count, k2), rng).T)
    rows, cols = np.divmod(np.arange(k1 * k2), k2)
    return bernoulli(lambda s: read(rows[s], cols[s]), k1 * k2, count, rng)
