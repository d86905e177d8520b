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

from .densities import BoundCheck, _assignment_sum, _count_maps, _transpose, falling
from .errors import CapacityError, InputError
from .exact import Number, format_number, parse_ints, to_fraction
from .graphon import _normalized_measures, bernoulli, draw_blocks
from .graphs import pack_rows

BIP_PATTERN_CAP = 6


@dataclass(frozen=True)
class BipartiteGraph:
    """Vertex sets [n1] and [n2]; edges only across parts, as bitmask rows."""

    n1: int
    n2: int
    rows: tuple[int, ...]

    @classmethod
    def from_edges(cls, n1: int, n2: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        if n1 < 1 or n2 < 1:
            raise InputError("both parts need at least one vertex")
        rows = [0] * n1
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n1 and 1 <= v <= n2):
                raise InputError(f"edge ({u},{v}) out of range for parts {n1},{n2}")
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            rows[u - 1] |= 1 << (v - 1)
        return cls(n1, n2, tuple(rows))

    @classmethod
    def complete(cls, n1: int, n2: int) -> "BipartiteGraph":
        return cls(n1, n2, tuple((1 << n2) - 1 for _ in range(n1)))

    @classmethod
    def empty(cls, n1: int, n2: int) -> "BipartiteGraph":
        return cls(n1, n2, tuple(0 for _ in range(n1)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u - 1] >> (v - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n1):
            r = self.rows[i]
            j = 0
            while r:
                if r & 1:
                    out.append((i + 1, j + 1))
                r >>= 1
                j += 1
        return out

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def to_text(self) -> str:
        edges = self.edges()
        lines = [f"{self.n1} {self.n2} {len(edges)}"]
        lines += [f"{u} {v}" for u, v in edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BipartiteGraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty bipartite graph file")
        n1, n2, m = parse_ints(lines[0], "'n1 n2 m' header", 3)
        if len(lines) - 1 != m:
            raise InputError(f"header declares {m} edges, file has {len(lines) - 1}")
        edges = [tuple(parse_ints(ln, "edge line 'u v'", 2)) for ln in lines[1:]]
        return cls.from_edges(n1, n2, edges)


def _check_bip_pattern(f: BipartiteGraph) -> None:
    if f.n1 > BIP_PATTERN_CAP or f.n2 > BIP_PATTERN_CAP:
        raise CapacityError(f"bipartite pattern capped at {BIP_PATTERN_CAP} per part")


def _as_one_graph(g: BipartiteGraph) -> list[int]:
    """Both parts as one symmetric graph on n1 + n2 vertices, part 1 first."""
    return [r << g.n1 for r in g.rows] + _transpose(g.rows, g.n2)


def _bip_count(f: BipartiteGraph, g: BipartiteGraph, injective: bool, induced: bool) -> int:
    """Part-respecting maps preserving f's edges (optionally injective,
    optionally reflecting non-edges): a side mask per pattern vertex."""
    rows = _as_one_graph(g)
    sides = [(1 << g.n1) - 1] * f.n1 + [((1 << g.n2) - 1) << g.n1] * f.n2
    return _count_maps(_as_one_graph(f), rows, rows, sides, injective, induced)


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
        w = tuple(tuple(to_fraction(x) for x in row) for row in self.w)
        if len(w) != len(mu1) or any(len(row) != len(mu2) for row in w):
            raise InputError(f"value matrix must be {len(mu1)}x{len(mu2)}")
        if any(not 0 <= x <= 1 for row in w for x in row):
            raise InputError("kernel values must lie in [0,1]")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "w", w)

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
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 3:
            raise InputError("bipartite kernel file too short")
        m1, m2 = parse_ints(lines[0], "'m1 m2' header", 2)
        if len(lines) != 3 + m1:
            raise InputError(f"expected {m1} matrix rows, got {len(lines) - 3}")
        mu1 = tuple(to_fraction(tok) for tok in lines[1].split())
        mu2 = tuple(to_fraction(tok) for tok in lines[2].split())
        if len(mu1) != m1 or len(mu2) != m2:
            raise InputError("measure line lengths do not match the header")
        w = []
        for ln in lines[3:]:
            row = tuple(to_fraction(tok) for tok in ln.split())
            if len(row) != m2:
                raise InputError(f"matrix row {ln!r} has wrong length")
            w.append(row)
        return cls(mu1, mu2, tuple(w))


def bip_graph_as_kernel(g: BipartiteGraph) -> BipartiteKernel:
    """Adjacency kernel of a bipartite graph: uniform measures per side,
    0/1 values; reproduces bip_t(F, g) exactly for every pattern."""
    mu1 = tuple(Fraction(1, g.n1) for _ in range(g.n1))
    mu2 = tuple(Fraction(1, g.n2) for _ in range(g.n2))
    w = tuple(
        tuple(Fraction(1 if g.rows[i] >> j & 1 else 0) for j in range(g.n2)) for i in range(g.n1)
    )
    return BipartiteKernel(mu1, mu2, w)


def _bip_kernel_sum(f: BipartiteGraph, w: BipartiteKernel, induced: bool) -> Fraction:
    _check_bip_pattern(f)
    comp = tuple(tuple(1 - x for x in row) for row in w.w)
    factors = {
        (u, f.n1 + v): w.w if f.rows[u] >> v & 1 else comp
        for u in range(f.n1)
        for v in range(f.n2)
        if induced or f.rows[u] >> v & 1
    }
    return _assignment_sum([w.mu1] * f.n1 + [w.mu2] * f.n2, factors)


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
