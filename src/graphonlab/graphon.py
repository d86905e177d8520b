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
from typing import Callable, Sequence

import numpy as np

from .densities import (
    DensityEstimate,
    GraphLike,
    _as_labelled,
    _check_pattern,
    hoeffding_halfwidth,
    kernel_sum,
)
from .errors import CapacityError, InputError
from .exact import Number, content_lines, format_number, parse_line, read_text, to_fraction
from .graphs import LabelledGraph, graph_from_bool_matrix, pair_order, unpack_rows

CUT_NORM_CAP = 16
CUT_DIST_CAP = 8
MEASURE_TOL = Fraction(1, 10**12)
STRIP = 1 << 15  # uniforms per Bernoulli strip
CUT_CELLS = 1 << 18  # column sums per block of the all-subsets cut norm


def _normalized_measures(raw: Sequence[Number]) -> tuple[Fraction, ...]:
    mu = tuple(to_fraction(x) for x in raw)
    if not mu:
        raise InputError("need at least one block")
    if any(x <= 0 for x in mu):
        raise InputError("block measures must be positive")
    total = sum(mu)
    if abs(total - 1) > MEASURE_TOL:
        raise InputError(f"block measures sum to {float(total)}, not 1")
    # renormalise exactly so downstream laws sum to exactly 1
    return tuple(x / total for x in mu)


def _checked_matrix(raw: Sequence[Sequence[Number]], rows: int, cols: int, name: str,
                    low: int = 0) -> tuple[tuple[Fraction, ...], ...]:
    """A kernel's value matrix as exact rationals; a shape other than rows x
    cols, or an entry outside [low, 1], raises InputError naming the first
    bad entry."""
    mat = tuple(tuple(to_fraction(x) for x in row) for row in raw)
    if len(mat) != rows or any(len(row) != cols for row in mat):
        raise InputError(f"{name} must be a {rows}x{cols} matrix")
    for a, row in enumerate(mat):
        for b, x in enumerate(row):
            if not low <= x <= 1:
                raise InputError(f"{name}[{a}][{b}] = {x} outside [{low},1]")
    return mat


@dataclass(frozen=True)
class StepGraphon:
    """Symmetric step kernel: block measures mu and value matrix w."""

    mu: tuple[Fraction, ...]
    w: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        mu = _normalized_measures(self.mu)
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

    @classmethod
    def constant(cls, p: Number) -> "StepGraphon":
        return cls((Fraction(1),), ((to_fraction(p),),))

    def to_text(self) -> str:
        lines = [str(self.m), " ".join(format_number(x) for x in self.mu)]
        lines += [" ".join(format_number(x) for x in row) for row in self.w]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StepGraphon":
        lines = content_lines(text)
        if len(lines) < 2:
            raise InputError("step-graphon file needs a block count and measures")
        (m,) = parse_line(lines[0], "block count", 1, int)
        if len(lines) != 2 + m:
            raise InputError(f"expected {m} matrix rows, got {len(lines) - 2}")
        mu = parse_line(lines[1], f"{m} measures", m, Fraction)
        rows = [parse_line(ln, f"a matrix row of {m} values", m, Fraction) for ln in lines[2:]]
        return cls(mu, rows)


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
    return StepGraphon((Fraction(1, g.n),) * g.n, unpack_rows(g.rows, g.n).astype(int).tolist())


def exact_density(f: GraphLike, w: StepGraphon) -> Fraction:
    """Exact pattern density of the step kernel: the block-assignment sum
    of mu-weights times edge factors, in rational arithmetic."""
    fl = _as_labelled(f)
    _check_pattern(fl)
    return kernel_sum([w.mu] * fl.n, {(u - 1, v - 1): w.w for u, v in fl.edges()})


def exact_ind_density(f: GraphLike, w: StepGraphon) -> Fraction:
    """Exact probability that the v(f)-prefix of the W-random graph is f:
    the kernel value per edge, its complement per non-edge."""
    fl = _as_labelled(f)
    _check_pattern(fl)
    comp = tuple(tuple(1 - x for x in row) for row in w.w)
    return kernel_sum(
        [w.mu] * fl.n,
        {(i, j): w.w if fl.has_edge(i + 1, j + 1) else comp for i, j in pair_order(fl.n)},
    )


def draw_blocks(mu: Sequence[Number], shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Latent block labels of the given shape, iid with block measures mu;
    every latent block draw and every mixture component pick goes through
    here. The labels are rng.choice(len(mu), size=shape, p=mu), by choice's
    own step without its checks: the same normalised cdf, the same uniforms,
    and for each uniform the number of cdf points at or below it."""
    cdf = np.array([float(x) for x in mu]).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(shape), side="right").astype(np.int64, copy=False)


def bernoulli(
    probs_of: Callable[[slice], np.ndarray | float], cells: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Boolean array (count, cells) of independent indicators; probs_of(s)
    gives the probabilities of the cells in slice s as (cells, count), or
    one float for all of them. The uniforms are drawn cell-major, all of
    cell 0 first, in strips of about STRIP values so that the arrays of a
    strip stay in cache."""
    out = np.empty((cells, count), dtype=bool)
    step = max(1, STRIP // max(1, count))
    for a in range(0, cells, step):
        b = min(a + step, cells)
        np.less(rng.random((b - a, count)), probs_of(slice(a, b)), out=out[a:b])
    return out.T


def _latents(w: StepGraphon | GeneralGraphon, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    return draw_blocks(w.mu, shape, rng) if isinstance(w, StepGraphon) else rng.random(shape)


def _reader(w: StepGraphon | GeneralGraphon, xt: np.ndarray) -> Callable[[object, object], np.ndarray | float]:
    """read(i, j): kernel values at the latents xt[i], xt[j] of vertex rows
    i and j (ints or index arrays). A step kernel's float table and row
    offsets xt * m are built once, and a one-block kernel gives its value;
    a general kernel sees its latents flat, for its per-pair fallback."""
    if isinstance(w, GeneralGraphon):
        def read(i, j):
            xi, xj = np.broadcast_arrays(xt[i], xt[j])
            return w.values(xi.ravel(), xj.ravel()).reshape(xi.shape)
        return read
    if w.m == 1:
        p = float(w.w[0][0])
        return lambda i, j: p
    table, offsets = np.array([float(x) for row in w.w for x in row]), xt * w.m
    return lambda i, j: table[offsets[i] + xt[j]]


def pair_bits(
    w: StepGraphon | GeneralGraphon, k: int, count: int, ii: np.ndarray, jj: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Boolean array (count, len(ii)): edge indicators of `count` iid
    W-random graphs on k vertices at the 0-based vertex pairs (ii, jj)."""
    read = _reader(w, _latents(w, (count, k), rng).T)
    return bernoulli(lambda s: read(ii[s], jj[s]), len(ii), count, rng)


def sample_w_random(w: StepGraphon | GeneralGraphon, n: int, rng: np.random.Generator) -> LabelledGraph:
    """G(n, W): iid latent labels, then conditionally independent edges
    over the pairs i < j in row-major order, drawn row by row straight into
    the adjacency matrix, so no index array of all n(n-1)/2 pairs is built.
    The uniforms are those of one draw over all pairs: Generator.random(a)
    then random(b) gives the doubles of random(a + b)."""
    if n < 1:
        raise InputError("n must be >= 1")
    read = _reader(w, _latents(w, (1, n), rng).T)
    cols = np.arange(n)
    a = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        a[i, i + 1:] = bernoulli(lambda s: read(i, cols[i + 1:][s]), n - 1 - i, 1, rng)[0]
    a |= a.T
    return graph_from_bool_matrix(a)


def mc_density_product_sum(
    f: GraphLike, w: StepGraphon | GeneralGraphon, count: int, rng: np.random.Generator
) -> float:
    """Sum over iid uniform tuples of the product of kernel values along
    f's edges; chunk-mergeable core of mc_density."""
    fl = _as_labelled(f)
    _check_pattern(fl)
    read = _reader(w, _latents(w, (count, fl.n), rng).T)
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
        lcm = 1
        for x in meas:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        cell = Fraction(1, lcm)
        entries = []
        for b, x in enumerate(meas):
            entries += [(b, cell)] * int(x / cell)
        return cls(len(meas), tuple(entries))


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
        mu = _normalized_measures(self.mu)
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
    denominator (also returned): int64 if the sum of |q| fits, else objects."""
    q = [[mu[a] * mu[b] * x for b, x in enumerate(row)] for d in mats for a, row in enumerate(d)]
    den = math.lcm(*(x.denominator for row in q for x in row))
    ints = [[int(x * den) for x in row] for row in q]
    big = sum(abs(x) for row in ints for x in row) >= 2**63
    return np.array(ints, dtype=object if big else np.int64).reshape(len(mats), len(mu), len(mu)), den


def _cut_norms(q: np.ndarray) -> np.ndarray:
    """Cut norms of a stack q (p, m, m) of integer matrices: for a row set S
    the best column set takes the positive or the negative column sums of
    q over S, and all 2^m sets S go at once, as the subset matrix times q,
    in blocks of about CUT_CELLS column sums."""
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
