"""Step graphons, W-random sampling, exact kernel densities, cut norms.

Step functions are the exact computational class: the density integral
over a step kernel is a finite sum over block assignments, evaluated in
rational arithmetic. General kernels are sampled and integrated by
Monte Carlo only.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .exact import (Number, _checked_matrix, _normalized_measures, content_lines, exact_dtype, number_rows,
                    parse_line, read_text, rows_lines, to_fraction)
from .rng import bernoulli, draw_blocks, skip, table_reader

if TYPE_CHECKING:  # the samplers and cut norms never load the contraction engine, nor cut norms the graphs
    from .densities import DensityEstimate, GraphLike
    from .graphs import LabelledGraph

CUT_NORM_CAP = 16
CUT_DIST_CAP = 8
CUT_CELLS = 1 << 18  # column sums per block of the all-subsets cut norm


@dataclass(frozen=True)
class StepGraphon:
    """Symmetric step kernel: block measures mu and value matrix w."""

    mu: tuple[Fraction, ...]
    w: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        mu = _normalized_measures(self.mu, "block measures")
        m = len(mu)
        w = _checked_matrix(self.w, m, m, "w")
        for a in range(m):
            for b in range(m):
                if w[a][b] != w[b][a]:
                    raise InputError(f"kernel not symmetric at blocks ({a},{b})")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return len(self.mu)

    @cached_property
    def _scaled(self) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, int]:
        """(mu, dm, w, 1 - w, dw): the measures as integers over their denominator dm,
        the values and their complement over theirs, dw; made once for every exact sum."""
        from .densities import _numerators

        (mu,), dm = _numerators([self.mu])
        (w,), dw = _numerators([self.w])
        return mu, dm, w, dw - w, dw

    @classmethod
    def constant(cls, p: Number) -> "StepGraphon":
        return cls((Fraction(1),), ((to_fraction(p),),))

    def to_text(self) -> str:
        return "\n".join([str(self.m), *rows_lines([self.mu, *self.w])]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StepGraphon":
        lines = content_lines(text) or [""]
        (m,) = parse_line(lines[0], "block count", 1, int)
        if not 0 < m < len(lines):  # before a list of m + 1 widths is built
            raise InputError(f"a step graphon of {m} blocks takes {m + 2} lines, got {len(lines)}")
        mu, *w = number_rows(lines[1:], [m] * (m + 1))
        return cls(mu, w)


@dataclass(frozen=True)
class GeneralGraphon:
    """Arbitrary symmetric kernel given by a callable; Monte Carlo only."""

    eval: Callable[[float, float], float]

    def __post_init__(self) -> None:
        grid = [0.05, 0.3, 0.55, 0.8, 0.95]
        for x in grid:
            for y in grid:
                a, b = float(self.eval(x, y)), float(self.eval(y, x))
                if not (0.0 <= a <= 1.0):
                    raise InputError(f"kernel value {a} at ({x},{y}) outside [0,1]")
                if abs(a - b) > 1e-9:
                    raise InputError(f"kernel asymmetric at ({x},{y}): {a} vs {b}")

    def values(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Kernel values at paired points: one vectorised call, or one call
        per pair when the callable takes floats only (a type or shape
        failure on arrays, or a result of the wrong shape)."""
        try:
            out = np.asarray(self.eval(xs, ys), dtype=float)
            if out.shape == xs.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([self.eval(float(a), float(b)) for a, b in zip(xs, ys)])


def boys_girls(theta: Number, p: Number, p_prime: Number, p_dblprime: Number) -> StepGraphon:
    """Two-type kernel: within-type densities p and p', cross density p''.

    Degenerate theta in {0,1} collapses to a single block.
    """
    th, a, b, c = (to_fraction(x) for x in (theta, p, p_prime, p_dblprime))
    for name, val in (("theta", th), ("p", a), ("p_prime", b), ("p_dblprime", c)):
        if not 0 <= val <= 1:
            raise InputError(f"{name}={float(val)} outside [0,1]")
    if th == 1:
        return StepGraphon((Fraction(1),), ((a,),))
    if th == 0:
        return StepGraphon((Fraction(1),), ((b,),))
    return StepGraphon((th, 1 - th), ((a, c), (c, b)))


def graph_as_graphon(g: LabelledGraph) -> StepGraphon:
    """Adjacency-matrix kernel: uniform blocks, 0/1 values; has the same
    density t(F, .) as g for every pattern F."""
    from .graphs import unpack_bits

    return StepGraphon((Fraction(1, g.n),) * g.n, unpack_bits(g.words, g.n).astype(int).tolist())


def exact_density(f: GraphLike, w: StepGraphon) -> Fraction:
    """Exact pattern density of the step kernel: the block-assignment sum
    of mu-weights times edge factors, in rational arithmetic."""
    from .densities import _check_pattern, kernel_sum

    fl, (mu, dm, mat, _, dw) = _check_pattern(f), w._scaled
    return kernel_sum([mu] * fl.n, {(u - 1, v - 1): mat for u, v in fl.edges()}) / (dm ** fl.n * dw ** fl.num_edges)


def exact_ind_density(f: GraphLike, w: StepGraphon) -> Fraction:
    """Exact probability that the v(f)-prefix of the W-random graph is f:
    the kernel value per edge, its complement per non-edge."""
    from .densities import _check_pattern, kernel_sum
    from .graphs import pair_order

    fl, (mu, dm, mat, comp, dw) = _check_pattern(f), w._scaled
    factors = {(i, j): mat if fl.has_edge(i + 1, j + 1) else comp for i, j in pair_order(fl.n)}
    return kernel_sum([mu] * fl.n, factors) / (dm ** fl.n * dw ** len(factors))


def _latent_reader(w: StepGraphon | GeneralGraphon, shape: tuple[int, int], rng: np.random.Generator):
    """read(i, j): kernel values at iid latents xt[i] and xt[j] of shape (count, k), the
    same for rows and columns (ints or index arrays); drawn here, so that no caller holds
    them where a one-value reader does not. A general kernel sees its latents flat, for
    its per-pair fallback; a step kernel is read by rng.table_reader, and a one-block
    kernel's reader is that value, so its latents are skipped, not drawn."""
    if isinstance(w, GeneralGraphon):
        xt = rng.random(shape).T
        def read(i, j):
            xi, yj = np.broadcast_arrays(xt[i], xt[j])
            return w.values(xi.ravel(), yj.ravel()).reshape(xi.shape)
        return read
    if w.m > 1:
        xt = draw_blocks(w.mu, shape, rng).T
    else:
        skip(rng, shape[0] * shape[1])
        xt = None
    return table_reader(w.w, xt, xt)


def pair_bits(
    w: StepGraphon | GeneralGraphon, k: int, count: int, ii: np.ndarray, jj: np.ndarray,
    rng: np.random.Generator, used: Sequence[int] | None = None,
) -> np.ndarray:
    """Boolean array (count, len(ii)): edge indicators of `count` iid
    W-random graphs on k vertices at the 0-based vertex pairs (ii, jj), or
    only at the increasing pair indices `used`, as bernoulli draws them."""
    read = _latent_reader(w, (count, k), rng)
    return bernoulli(lambda s: read(ii[s], jj[s]), len(ii), count, rng, used)


def sample_w_random(w: StepGraphon | GeneralGraphon, n: int, rng: np.random.Generator) -> LabelledGraph:
    """G(n, W): iid latent labels, then conditionally independent edges over
    the pairs i < j in row-major order, row i's pairs (i, j > i) drawn into its
    row and its column by graphs.strip_words: no array of all pairs, no n x n
    matrix. The uniforms are those of one draw over all pairs, as
    Generator.random(a) then random(b) gives the doubles of random(a + b)."""
    if n < 1:
        raise InputError("n must be >= 1")
    from .graphs import LabelledGraph, strip_words

    read, cols = _latent_reader(w, (1, n), rng), np.arange(n)
    def draw(i, own, mirror):
        own[i + 1:] = mirror[i + 1:] = bernoulli(lambda s: read(i, cols[i + 1:][s]), n - 1 - i, 1, rng)[0]
    return LabelledGraph._of(n, strip_words((n, n), draw))


def mc_density_product_sum(
    f: GraphLike, w: StepGraphon | GeneralGraphon, count: int, rng: np.random.Generator
) -> float:
    """Sum over iid uniform tuples of the product of kernel values along
    f's edges; chunk-mergeable core of mc_density."""
    from .densities import _check_pattern

    fl = _check_pattern(f)
    read = _latent_reader(w, (count, fl.n), rng)
    prod = np.ones(count)
    for u, v in fl.edges():
        prod *= read(u - 1, v - 1)
    return float(prod.sum())


def mc_density(
    f: GraphLike,
    w: StepGraphon | GeneralGraphon,
    samples: int,
    rng: np.random.Generator,
    alpha: float = 0.01,
) -> DensityEstimate:
    """Monte Carlo quadrature of the density integral: the average over iid
    uniform tuples of the product of kernel values along f's edges."""
    from .densities import DensityEstimate, hoeffding_halfwidth

    if samples < 1:
        raise InputError("samples must be >= 1")
    total = mc_density_product_sum(f, w, samples, rng)
    return DensityEstimate(total / samples, samples, hoeffding_halfwidth(samples, alpha), alpha)


@dataclass(frozen=True)
class BlockMap:
    """Measure-preserving block refinement/relabelling.

    Each entry (source_block, measure) defines one block of the refined
    graphon mapping into `source_block`. Against a given graphon the total
    measure assigned to each source block must equal that block's measure.
    """

    source_m: int
    assignments: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        if self.source_m < 1:
            raise InputError("source block count must be >= 1")
        assignments = tuple((int(b), to_fraction(m)) for b, m in self.assignments)
        for b, meas in assignments:
            if not 0 <= b < self.source_m:
                raise InputError(f"source block {b} out of range")
            if meas <= 0:
                raise InputError("assigned measures must be positive")
        object.__setattr__(self, "assignments", assignments)

    @classmethod
    def permutation(cls, perm: Sequence[int], mu: Sequence[Fraction]) -> "BlockMap":
        """New block a maps to source block perm[a] (0-based)."""
        m = len(mu)
        if sorted(perm) != list(range(m)):
            raise InputError("not a permutation of block indices")
        return cls(m, tuple((perm[a], to_fraction(mu[perm[a]])) for a in range(m)))

    @classmethod
    def identity(cls, mu: Sequence[Fraction]) -> "BlockMap":
        return cls.permutation(list(range(len(mu))), mu)

    @classmethod
    def split(cls, mu: Sequence[Fraction], block: int, parts: Sequence[Number]) -> "BlockMap":
        """Split one block into the given positive measures (summing to it)."""
        m = len(mu)
        if not 0 <= block < m:
            raise InputError(f"block {block} out of range")
        part_meas = [to_fraction(x) for x in parts]
        if sum(part_meas) != to_fraction(mu[block]):
            raise InputError("split parts must sum to the block measure exactly")
        entries: list[tuple[int, Fraction]] = []
        for b in range(m):
            if b == block:
                entries += [(b, x) for x in part_meas]
            else:
                entries.append((b, to_fraction(mu[b])))
        return cls(m, tuple(entries))

    @classmethod
    def equal_refinement(cls, mu: Sequence[Fraction]) -> "BlockMap":
        """Refine all blocks to a common equal-measure grid."""
        meas = [to_fraction(x) for x in mu]
        cell = Fraction(1, math.lcm(*(x.denominator for x in meas)))
        return cls(len(meas), tuple((b, cell) for b, x in enumerate(meas) for _ in range(int(x / cell))))


def pushforward(w: StepGraphon, bm: BlockMap) -> StepGraphon:
    """W composed with the block map; all pattern densities are unchanged."""
    if bm.source_m != w.m:
        raise InputError(f"block map expects {bm.source_m} source blocks, graphon has {w.m}")
    pushed = [Fraction(0)] * w.m
    for b, meas in bm.assignments:
        pushed[b] += meas
    if pushed != list(w.mu):
        raise InputError("block map is not measure-preserving for this graphon")
    mu = tuple(meas for _, meas in bm.assignments)
    mat = tuple(
        tuple(w.w[src_a][src_b] for src_b, _ in bm.assignments) for src_a, _ in bm.assignments
    )
    return StepGraphon(mu, mat)


@dataclass(frozen=True)
class SignedStepKernel:
    """Step kernel with values in [-1, 1]; typically a graphon difference."""

    mu: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        mu = _normalized_measures(self.mu, "block measures")
        object.__setattr__(self, "values", _checked_matrix(self.values, len(mu), len(mu), "values", -1))
        object.__setattr__(self, "mu", mu)

    @property
    def m(self) -> int:
        return len(self.mu)


def kernel_difference(w1: StepGraphon, w2: StepGraphon) -> SignedStepKernel:
    if w1.m != w2.m or w1.mu != w2.mu:
        raise InputError("kernels must share block structure to be subtracted")
    vals = tuple(
        tuple(w1.w[a][b] - w2.w[a][b] for b in range(w1.m)) for a in range(w1.m)
    )
    return SignedStepKernel(w1.mu, vals)


def _scaled_q(mu: Sequence[Fraction], mats: Sequence[Sequence[Sequence[Fraction]]]) -> tuple[np.ndarray, int]:
    """The stack of q = mu mu^T o d over the d in mats, as integers over one
    denominator (also returned), in the exact_dtype of the sum of |q|, which
    bounds every subset sum that _cut_norms takes, also of a difference of two."""
    q = [[mu[a] * mu[b] * x for b, x in enumerate(row)] for d in mats for a, row in enumerate(d)]
    den = math.lcm(*(x.denominator for row in q for x in row))
    ints = [[int(x * den) for x in row] for row in q]
    dtype = exact_dtype(sum(abs(x) for row in ints for x in row))
    return np.array(ints, dtype=dtype).reshape(len(mats), len(mu), len(mu)), den


def _cut_norms(q: np.ndarray) -> np.ndarray:
    """Cut norms of a stack q (p, m, m) of integer-valued matrices: for a
    row set S the best column set takes the positive or the negative column
    sums of q over S, and all 2^m sets S go at once, as the subset matrix
    times q, in blocks of about CUT_CELLS column sums."""
    p, m, _ = q.shape
    step = max(1, CUT_CELLS // (p * m))
    best = np.zeros(p, dtype=q.dtype)
    for lo in range(0, 1 << m, step):
        sets = (np.arange(lo, min(lo + step, 1 << m))[:, None] >> np.arange(m) & 1).astype(q.dtype)
        cols = sets @ q  # (p, sets, m)
        pos = (cols * (cols > 0)).sum(axis=-1)
        best = np.maximum(best, np.maximum(pos, pos - cols.sum(axis=-1)).max(axis=-1))
    return best


def cut_norm(d: SignedStepKernel) -> Fraction:
    """Exact cut norm: max over block-set pairs S,T of |sum mu_a mu_b d(a,b)|."""
    if d.m > CUT_NORM_CAP:
        raise CapacityError(f"cut norm capped at {CUT_NORM_CAP} blocks, got {d.m}")
    q, den = _scaled_q(d.mu, [d.values])
    return Fraction(int(_cut_norms(q)[0]), den)


def cut_distance_upper(w1: StepGraphon, w2: StepGraphon) -> Fraction:
    """Upper bound on the cut distance: min cut norm of w1 - w2 over block
    permutations. Exact whenever an optimal overlay is a permutation.
    Permutations are scored in blocks in scaled integers; cut_norm gives
    the value of the best."""
    if w1.m != w2.m or w1.mu != w2.mu:
        raise InputError("cut distance needs matching block counts and measures")
    m = w1.m
    if m > CUT_DIST_CAP:
        raise CapacityError(f"cut distance capped at {CUT_DIST_CAP} blocks, got {m}")
    (q1, q2), _ = _scaled_q(w1.mu, [w1.w, w2.w])
    perms = np.array([p for p in itertools.permutations(range(m)) if all(w1.mu[p[a]] == w1.mu[a] for a in range(m))])
    step = max(1, CUT_CELLS // (m << m))
    norms = np.concatenate([_cut_norms(q1 - q2[p[:, :, None], p[:, None, :]])
                            for p in (perms[lo:lo + step] for lo in range(0, len(perms), step))])
    perm = perms[min(range(len(norms)), key=norms.__getitem__)]
    permuted = StepGraphon(w1.mu, tuple(tuple(w2.w[perm[a]][perm[b]] for b in range(m)) for a in range(m)))
    return cut_norm(kernel_difference(w1, permuted))


def read_step_graphon(path: str) -> StepGraphon:
    return StepGraphon.from_text(read_text(path))


def write_step_graphon(w: StepGraphon, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(w.to_text())
