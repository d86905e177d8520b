"""Bipartite graphs with an explicit bipartition and nonsymmetric kernels.

Patterns carry their own bipartition; maps respect parts. Sampling uses
independent latent sequences for the two sides, so nothing here assumes
kernel symmetry.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .densities import BoundCheck, falling, host_count, kernel_sum
from .errors import CapacityError, InputError
from .exact import Number, content_lines, format_number, parse_line, to_fraction
from .graphon import _checked_matrix, _normalized_measures, bernoulli, draw_blocks
from .graphs import column_rows, pack_rows, pair_rows, row_bits, rows_text, text_rows, unpack_rows

BIP_PATTERN_CAP = 6


@dataclass(frozen=True)
class BipartiteGraph:
    """Vertex sets [n1] and [n2]; edges only across parts, as bitmask rows."""

    n1: int
    n2: int
    rows: tuple[int, ...]

    @classmethod
    def from_edges(cls, n1: int, n2: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        return cls(n1, n2, pair_rows(edges, (n1, n2), False))

    @classmethod
    def complete(cls, n1: int, n2: int) -> "BipartiteGraph":
        return cls(n1, n2, tuple((1 << n2) - 1 for _ in range(n1)))

    @classmethod
    def empty(cls, n1: int, n2: int) -> "BipartiteGraph":
        return cls(n1, n2, tuple(0 for _ in range(n1)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u - 1] >> (v - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return row_bits(self.rows)

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def to_text(self) -> str:
        return rows_text(f"{self.n1} {self.n2}", self.rows, self.n2, False)

    @classmethod
    def from_text(cls, text: str) -> "BipartiteGraph":
        (n1, n2, _), rows = text_rows(text, "'n1 n2 m' header", 3, False)
        return cls(n1, n2, rows)


def _check_bip_pattern(f: BipartiteGraph) -> None:
    if f.n1 > BIP_PATTERN_CAP or f.n2 > BIP_PATTERN_CAP:
        raise CapacityError(
            f"bipartite pattern capped at {BIP_PATTERN_CAP} vertices per part, got {f.n1} and {f.n2}"
        )


def _as_one_graph(g: BipartiteGraph) -> list[int]:
    """Both parts as one symmetric graph on n1 + n2 vertices, part 1 first."""
    return [*(r << g.n1 for r in g.rows), *column_rows(g.rows, g.n2)]


def _bip_count(f: BipartiteGraph, g: BipartiteGraph, injective: bool, induced: bool) -> int:
    """Part-respecting maps preserving f's edges (optionally injective,
    optionally reflecting non-edges): a side mask per pattern vertex."""
    rows = _as_one_graph(g)
    sides = [(1 << g.n1) - 1] * f.n1 + [((1 << g.n2) - 1) << g.n1] * f.n2
    return host_count(_as_one_graph(f), rows, rows, sides, injective, induced)


def bip_t(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Density over part-respecting maps drawn uniformly with replacement."""
    _check_bip_pattern(f)
    return Fraction(_bip_count(f, g, False, False), g.n1**f.n1 * g.n2**f.n2)


def bip_t_inj(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Containment density over distinct vertices per part; 0 when a part
    of f outnumbers the matching part of g."""
    _check_bip_pattern(f)
    if f.n1 > g.n1 or f.n2 > g.n2:
        return Fraction(0)
    return Fraction(_bip_count(f, g, True, False), falling(g.n1, f.n1) * falling(g.n2, f.n2))


def bip_t_ind(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Probability the sampled distinct vertices induce exactly f."""
    _check_bip_pattern(f)
    if f.n1 > g.n1 or f.n2 > g.n2:
        return Fraction(0)
    return Fraction(_bip_count(f, g, True, True), falling(g.n1, f.n1) * falling(g.n2, f.n2))


def bip_sampling_bound(f: BipartiteGraph, g: BipartiteGraph) -> Fraction:
    """Two-part repeated-vertex bound on |t - t_inj|."""
    return Fraction(f.n1**2, 2 * g.n1) + Fraction(f.n2**2, 2 * g.n2)


def bip_sampling_bound_check(f: BipartiteGraph, g: BipartiteGraph) -> BoundCheck:
    """|t - t_inj| against the two-part repeated-vertex bound."""
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
        mu1 = _normalized_measures(self.mu1)
        mu2 = _normalized_measures(self.mu2)
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
        lines = [f"{self.m1} {self.m2}"]
        lines.append(" ".join(format_number(x) for x in self.mu1))
        lines.append(" ".join(format_number(x) for x in self.mu2))
        lines += [" ".join(format_number(x) for x in row) for row in self.w]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BipartiteKernel":
        lines = content_lines(text)
        if len(lines) < 3:
            raise InputError("bipartite kernel file too short")
        m1, m2 = parse_line(lines[0], "'m1 m2' header", 2, int)
        if len(lines) != 3 + m1:
            raise InputError(f"expected {m1} matrix rows, got {len(lines) - 3}")
        mu1 = parse_line(lines[1], f"{m1} measures", m1, Fraction)
        mu2 = parse_line(lines[2], f"{m2} measures", m2, Fraction)
        w = [parse_line(ln, f"a matrix row of {m2} values", m2, Fraction) for ln in lines[3:]]
        return cls(mu1, mu2, w)


def bip_graph_as_kernel(g: BipartiteGraph) -> BipartiteKernel:
    """Adjacency kernel of a bipartite graph: uniform measures per side,
    0/1 values; reproduces bip_t(F, g) exactly for every pattern."""
    w = unpack_rows(g.rows, g.n2).astype(int).tolist()
    return BipartiteKernel((Fraction(1, g.n1),) * g.n1, (Fraction(1, g.n2),) * g.n2, w)


def _bip_kernel_sum(f: BipartiteGraph, w: BipartiteKernel, induced: bool) -> Fraction:
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
    edges with the kernel's probabilities."""
    if n1 < 1 or n2 < 1:
        raise InputError("both parts need at least one vertex")
    bits = bip_cell_bits_batch(w, n1, n2, 1, rng)[0].reshape(n1, n2)
    return BipartiteGraph(n1, n2, pack_rows(bits))


def bip_cell_bits_batch(
    w: BipartiteKernel, k1: int, k2: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean array (count, k1*k2): edge indicators of iid (k1,k2)-prefixes,
    cells in row-major order."""
    xt = draw_blocks(w.mu1, (count, k1), rng).T
    yt = draw_blocks(w.mu2, (count, k2), rng).T
    wf = np.array([float(v) for row in w.w for v in row])
    rows, cols = np.divmod(np.arange(k1 * k2), k2)
    return bernoulli(lambda s: wf[xt[rows[s]] * w.m2 + yt[cols[s]]], k1 * k2, count, rng)
