"""Directed graphs with loops, quintuple/quadruple kernels, and samplers.

A pair of vertices can carry up to two opposite edges whose indicators
are typically dependent, so the kernel is a quintuple: four functions
giving the joint law of the two indicators per unordered pair, plus a
0/1 loop function. The quadruple-plus-p variant moves the loop flag
into the latent space with an iid Bernoulli(p) coordinate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import CapacityError, InputError
from .exact import (Number, _checked_matrix, _normalized_measures, content_lines, number_rows, parse_line,
                    rows_lines, to_fraction)
from .graphs import Packed, column_words, pair_order, pair_words, strip_words, word_bits
from .rng import draw_blocks

# densities, the contraction engine, is imported inside the functions that
# count or sum, so that the samplers never load it.

DIR_PATTERN_CAP = 6

PAIR_STATES = ((0, 0), (0, 1), (1, 0), (1, 1))  # (alpha, beta) = (X_ij, X_ji), i < j


@dataclass(frozen=True, eq=False)
class DirectedGraph(Packed):
    """Directed graph on [n] with loops allowed; bit j of row i set iff
    there is an edge (i+1) -> (j+1)."""

    n: int
    words: np.ndarray

    shape = property(lambda self: (self.n, self.n))  # (rows, columns)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        return cls._of(n, pair_words(edges, (n, n), False))

    def has_loop(self, u: int) -> bool:
        return self.has_edge(u, u)

    def loops(self) -> list[int]:
        return [i + 1 for i in range(self.n) if self.has_loop(i + 1)]


class QuintupleVerdict(NamedTuple):
    ok: bool
    detail: str | None


@dataclass(frozen=True)
class DirectedKernelQuintuple:
    """Blocks with measures mu; per block pair, w00..w11 give the joint law
    of the two directed indicators; loop_flags is a 0/1 vector."""

    mu: tuple[Fraction, ...]
    w00: tuple[tuple[Fraction, ...], ...]
    w01: tuple[tuple[Fraction, ...], ...]
    w10: tuple[tuple[Fraction, ...], ...]
    w11: tuple[tuple[Fraction, ...], ...]
    loop_flags: tuple[int, ...]

    def __post_init__(self) -> None:
        mu = _normalized_measures(self.mu, "block measures")
        for name in ("w00", "w01", "w10", "w11"):
            object.__setattr__(self, name, _checked_matrix(getattr(self, name), len(mu), len(mu), name))
        flags = tuple(int(x) for x in self.loop_flags)
        if len(flags) != len(mu) or any(x not in (0, 1) for x in flags):
            raise InputError("loop flags must be a 0/1 vector of length m")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "loop_flags", flags)

    @property
    def m(self) -> int:
        return len(self.mu)

    def pair_matrix(self, alpha: int, beta: int) -> tuple[tuple[Fraction, ...], ...]:
        return (self.w00, self.w01, self.w10, self.w11)[2 * alpha + beta]

    def to_text(self) -> str:
        lines = [str(self.m), *rows_lines([self.mu])]
        for name in ("W00", "W01", "W10", "W11"):
            lines += [name, *rows_lines(getattr(self, name.lower()))]
        return "\n".join([*lines, "w", *rows_lines([self.loop_flags])]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DirectedKernelQuintuple":
        lines = [ln.strip() for ln in content_lines(text)] or [""]
        (m,) = parse_line(lines[0], "block count", 1, int)
        if m < 1 or len(lines) != 4 * m + 8:
            raise InputError(f"a quintuple of {m} blocks takes {4 * m + 8} lines, got {len(lines)}")
        labels = range(2, 4 * m + 7, m + 1)  # W00, W01, W10, W11, then w and the loop vector
        for pos, name in zip(labels, ("W00", "W01", "W10", "W11", "w")):
            if lines[pos] != name:
                raise InputError(f"expected label {name!r} at line {pos + 1}, got {lines[pos]!r}")
        (mu,) = number_rows(lines[1:2], [m])
        mats = [number_rows(lines[pos + 1:pos + m + 1], [m] * m) for pos in labels[:4]]
        flags = parse_line(lines[-1], f"a 0/1 loop vector of length {m}", m, int)
        kernel = cls(mu, *mats, flags)
        _check_kernel(kernel)
        return kernel


def validate_quintuple(k: DirectedKernel) -> QuintupleVerdict:
    """Check normalisation (the four values sum to 1 per pair of latent
    states) and the transpose symmetry W_ab(x,y) = W_ba(y,x); reports the
    first violation. The states are the blocks of a quintuple and the
    extended (block, flag) states of a quadruple-plus-p kernel."""
    laws = {ab: k.pair_matrix(*ab) for ab in PAIR_STATES}
    states = list(itertools.product(range(len(k.w00)), repeat=2))
    for a, b in states:
        if (total := sum(law[a][b] for law in laws.values())) != 1:
            return QuintupleVerdict(False, f"pair law at states ({a},{b}) sums to {total}, not 1")
    for (alpha, beta), mat in laws.items():
        for a, b in states:
            if (x := mat[a][b]) != (y := laws[beta, alpha][b][a]):
                return QuintupleVerdict(False, f"W{alpha}{beta}({a},{b}) = {x} != W{beta}{alpha}({b},{a}) = {y}")
    return QuintupleVerdict(True, None)


def _check_kernel(k: DirectedKernel) -> None:
    """Raise InputError naming the first violation validate_quintuple finds;
    reading, sampling and summing a directed kernel all check it here."""
    verdict = validate_quintuple(k)
    if not verdict.ok:
        raise InputError(f"invalid kernel: {verdict.detail}")


def tournament_kernel() -> DirectedKernelQuintuple:
    """One block; each pair gets exactly one edge with fair direction; no loops."""
    half = Fraction(1, 2)
    zero = Fraction(0)
    return DirectedKernelQuintuple(
        (Fraction(1),), ((zero,),), ((half,),), ((half,),), ((zero,),), (0,)
    )


@dataclass(frozen=True)
class DirectedKernelQuadruplePlusP:
    """Quadruple over the extended latent space (block, loop flag) plus the
    loop probability p. Extended index e = 2*block + flag."""

    mu: tuple[Fraction, ...]
    p: Fraction
    w00: tuple[tuple[Fraction, ...], ...]
    w01: tuple[tuple[Fraction, ...], ...]
    w10: tuple[tuple[Fraction, ...], ...]
    w11: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        mu = _normalized_measures(self.mu, "block measures")
        p = to_fraction(self.p)
        if not 0 <= p <= 1:
            raise InputError("loop probability must lie in [0,1]")
        ext = 2 * len(mu)  # the (block, flag) states
        for name in ("w00", "w01", "w10", "w11"):
            object.__setattr__(self, name, _checked_matrix(getattr(self, name), ext, ext, name))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "p", p)

    m = DirectedKernelQuintuple.m
    pair_matrix = DirectedKernelQuintuple.pair_matrix

    def ext_measure(self, e: int) -> Fraction:
        block, flag = divmod(e, 2)
        return self.mu[block] * (self.p if flag else 1 - self.p)


def quadruple_from_quintuple(k: DirectedKernelQuintuple, p: Number) -> DirectedKernelQuadruplePlusP:
    """Lift a quintuple's pair law to the extended space (ignoring its loop
    vector) and attach an independent loop probability."""
    ext = 2 * k.m

    def lift(mat):
        return tuple(tuple(mat[a // 2][b // 2] for b in range(ext)) for a in range(ext))

    return DirectedKernelQuadruplePlusP(
        k.mu, to_fraction(p), lift(k.w00), lift(k.w01), lift(k.w10), lift(k.w11)
    )


DirectedKernel = Union[DirectedKernelQuintuple, DirectedKernelQuadruplePlusP]


def _latent_states(
    kernel: DirectedKernel, n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(loops, states), each (count, n): iid latent blocks, extended by an
    iid Bernoulli(p) loop flag under the quadruple-plus-p model."""
    if n < 1:
        raise InputError("n must be >= 1")
    blocks = draw_blocks(kernel.mu, (count, n), rng)
    if isinstance(kernel, DirectedKernelQuintuple):
        return np.array(kernel.loop_flags, dtype=np.int8)[blocks], blocks
    flags = (rng.random((count, n)) < float(kernel.p)).astype(np.int8)
    return flags, 2 * blocks + flags


def _pair_coder(kernel: DirectedKernel, states: np.ndarray):
    """codes(i, j, u): 2 X_ij + X_ji of the pairs (i, j) at uniforms u, the
    number of the running sums of W00, W01, W10 at states[..., i], states[..., j] at or below u."""
    cdf = np.cumsum([np.array(kernel.pair_matrix(a, b), dtype=float) for a, b in PAIR_STATES[:3]], axis=0)
    table, size = cdf.reshape(3, -1), cdf.shape[1]  # states (s, r) at column s * size + r
    return lambda i, j, u: (u >= table.take(states[..., i] * size + states[..., j], axis=1)).sum(axis=0, dtype=np.int8)


def sample_directed_pair_codes(
    kernel: DirectedKernel, n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sampler core: (loops, codes) for `count` iid n-prefixes.

    loops is (count, n) in {0,1}; codes is (count, npairs) in 0..3 over the
    colex pair order, encoding (X_ij, X_ji) as 2*X_ij + X_ji for i < j.
    """
    _check_kernel(kernel)
    loops, states = _latent_states(kernel, n, count, rng)
    jj, ii = np.tril_indices(n, -1)  # colex pair order
    return loops, _pair_coder(kernel, states)(ii, jj, rng.random((count, len(ii))))


def sample_directed(kernel: DirectedKernel, n: int, rng: np.random.Generator) -> DirectedGraph:
    """One draw of the n-prefix under either kernel, sample_directed_pair_codes
    at count 1 through graphs.strip_words: row j draws the colex pairs (i, j),
    i < j, X_ji and its loop into its own row and X_ij into the mirror."""
    _check_kernel(kernel)
    loops, states = _latent_states(kernel, n, 1, rng)
    codes = _pair_coder(kernel, states[0])
    def draw(j, own, mirror):
        c = codes(slice(0, j), j, rng.random(j))
        own[:j], mirror[:j], own[j] = c & 1, c >> 1, loops[0, j]
    return DirectedGraph._of(n, strip_words((n, n), draw))


def loop_sequence_law(kernel: DirectedKernel, n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Diagonal of one sampled graph: a binary exchangeable sequence.

    The off-diagonal indicators are conditionally independent of the
    diagonal given the latents, so only latents and loop flags are drawn.
    """
    return tuple(int(x) for x in _latent_states(kernel, n, 1, rng)[0][0])


def _check_dir_pattern(f: DirectedGraph) -> None:
    if f.n > DIR_PATTERN_CAP:
        raise CapacityError(f"directed pattern capped at {DIR_PATTERN_CAP} vertices, got {f.n}")


def _density(f: DirectedGraph, g: DirectedGraph, injective: bool, induced: bool) -> Fraction:
    """The maps [k]->[n] pulling g's edge indicators back onto f's
    requirements, over the n^k maps, or over the n!/(n-k)! injective ones;
    0 when an injective pattern has more vertices than the host.

    Containment asks every f-edge (u,v), loops included, to be present at
    (phi(u), phi(v)); induced asks for exact equality of the pulled-back
    indicator matrix. A looped vertex of f ranges over g's looped vertices,
    any other over all (induced: the unlooped); g keeps its loops in its
    words, since a non-injective map may send an arc onto a loop.
    """
    from .densities import falling, host_count

    _check_dir_pattern(f)
    maps = falling(g.n, f.n) if injective else g.n**f.n
    if not maps:
        return Fraction(0)
    every = np.arange(g.n)
    looped = word_bits(g.words, every, every)
    loops, others = np.flatnonzero(looped), np.flatnonzero(~looped) if induced else every
    doms = [loops if f.has_loop(u + 1) else others for u in range(f.n)]
    host = {(0, 0): (g.words, column_words(g.words, g.n))}
    return Fraction(host_count(f.rows, [0] * f.n, doms, host, injective, induced), maps)


def _kernel_sum(f: DirectedGraph, kernel: DirectedKernel, induced: bool) -> Fraction:
    """Block-assignment sum: one latent state per pattern vertex, weighted by its measure where its loop
    flag meets f's loop requirement, and per unordered pair the probability of the required joint
    indicators; a containment sum leaves out each pair without an arc, whose four pair laws sum to 1."""
    from .densities import kernel_sum

    _check_dir_pattern(f)
    _check_kernel(kernel)
    states = range(len(kernel.w00))
    measures, flags = ((kernel.mu, kernel.loop_flags) if isinstance(kernel, DirectedKernelQuintuple)
                       else ([kernel.ext_measure(s) for s in states], [s % 2 for s in states]))
    weights = [[x if flag in ((1,) if f.has_loop(v) else (0,) if induced else (0, 1)) else 0
                for x, flag in zip(measures, flags)] for v in range(1, f.n + 1)]
    factors = {}
    for i, j in pair_order(f.n):
        req = (int(f.has_edge(i + 1, j + 1)), int(f.has_edge(j + 1, i + 1)))
        if induced or any(req):
            laws = [kernel.pair_matrix(a, b) for a, b in PAIR_STATES
                    if (a, b) == req or not induced and a >= req[0] and b >= req[1]]
            factors[i, j] = [[sum(law[s][r] for law in laws) for r in states] for s in states]
    return kernel_sum(weights, factors)


DirectedHost = Union[DirectedGraph, DirectedKernelQuintuple, DirectedKernelQuadruplePlusP]


def directed_t(f: DirectedGraph, host: DirectedHost) -> Fraction:
    """Containment density of a directed pattern in a finite host or the
    limit object of a kernel."""
    return _density(f, host, False, False) if isinstance(host, DirectedGraph) else _kernel_sum(f, host, False)


def directed_t_inj(f: DirectedGraph, g: DirectedGraph) -> Fraction:
    return _density(f, g, True, False)


def directed_t_ind(f: DirectedGraph, host: DirectedHost) -> Fraction:
    """Induced density: exact equality of the pulled-back indicator matrix
    (finite host) or the prefix-law mass of f (kernel)."""
    return _density(f, host, True, True) if isinstance(host, DirectedGraph) else _kernel_sum(f, host, True)
