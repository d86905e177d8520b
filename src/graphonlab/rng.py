"""Seeded RNG streams, the samplers' draws, and deterministic chunked Monte Carlo.

Reproducibility contract: a (seed, stream) pair defines every draw
bit-for-bit; draw_blocks and bernoulli fix the samplers' order of draws.
Parallel estimators split their sample budget into fixed-size chunks, one
stream per chunk, so the merged result does not depend on the thread count.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import InputError
from .exact import Number, parse_line

CHUNK = 32768
STRIP = 1 << 15  # uniforms per Bernoulli strip
COUNTED_BLOCKS = 224  # draw_blocks counts labels (in uint8, so below 256) up to this many blocks, then searches

T = TypeVar("T")


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for stream `index` of `seed`; same pair, same bits."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def skip(gen: np.random.Generator, n: int) -> None:
    """Move gen past n float64 draws: every later draw is the one that
    follows gen.random(n). A PCG64 steps once per double, so it jumps
    ahead in O(log n) by advance(n). Any other bit generator (Philox's
    advance counts blocks of four words), or a PCG64 holding a buffered
    32-bit value, which advance would drop, draws and discards in chunks."""
    if n <= 0:
        return
    bits = getattr(gen, "bit_generator", None)
    if isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)) and not bits.state["has_uint32"]:
        bits.advance(n)
        return
    for size in chunk_sizes(n):
        gen.random(size)


def draw_blocks(mu: Sequence[Number], shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Latent block labels of the given shape, iid with block measures mu;
    every latent block draw and every mixture component pick goes through
    here. The labels are rng.choice(len(mu), size=shape, p=mu), by choice's
    own step without its checks: the same normalised cdf, the same uniforms,
    and for each uniform the number of cdf points at or below it. Up to
    COUNTED_BLOCKS blocks that number is counted, one vector compare per
    inner cut point (the last point, 1, lies above every uniform), in uint8;
    above, each uniform is binary-searched."""
    cdf = np.array([float(x) for x in mu]).cumsum()
    cdf /= cdf[-1]
    u = rng.random(shape)
    if len(cdf) > COUNTED_BLOCKS:
        return cdf.searchsorted(u, side="right").astype(np.int64, copy=False)
    labels = np.zeros(shape, dtype=np.uint8)
    for cut in cdf[:-1]:
        labels += u >= cut
    return labels.astype(np.int64)


def bernoulli(
    probs_of: Callable[[slice], np.ndarray | float], cells: int, count: int, rng: np.random.Generator,
    used: Sequence[int] | None = None,
) -> np.ndarray:
    """Boolean array (count, cells) of independent indicators; probs_of(s)
    gives the probabilities of the cells in slice s as (cells, count), or
    one float for all of them. The uniforms are drawn cell-major, all of
    cell 0 first, in strips of about STRIP values so that the arrays of a
    strip stay in cache. Given `used`, increasing cell indices, only those
    columns are drawn and returned, (count, len(used)): strips cover runs of
    used cells and every other cell's uniforms are skipped in place, so each
    indicator and the draws after the call are those of the full draw."""
    runs = [[0, cells]] if used is None else []
    for c in [] if used is None else used:
        if runs and runs[-1][1] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, c + 1])
    out = np.empty((sum(b - a for a, b in runs), count), dtype=bool)
    step = max(1, STRIP // max(1, count))
    row = done = 0
    for a, b in runs:
        skip(rng, (a - done) * count)
        for s in range(a, b, step):
            e = min(s + step, b)
            np.less(rng.random((e - s, count)), probs_of(slice(s, e)), out=out[row:row + e - s])
            row += e - s
        done = b
    skip(rng, (cells - done) * count)
    return out.T


def table_reader(w, xt: np.ndarray | None, yt: np.ndarray | None) -> Callable[[object, object], np.ndarray | float]:
    """read(i, j): values of the step table w (a kernel's value matrix) at
    the row latents xt[i] and column latents yt[j] (ints or index arrays).
    The table becomes floats with row offsets once, or one value when 1x1,
    which reads no latents (they may be None)."""
    table = np.array(w, dtype=float)
    if table.size == 1:
        p = float(table[0, 0])
        return lambda i, j: p
    offsets, table = xt * table.shape[1], table.ravel()
    return lambda i, j: table[offsets[i] + yt[j]]


def thread_count(explicit: int | None = None) -> int:
    """Resolve a thread cap: explicit flag, else GRAPHONLAB_THREADS, else 1."""
    env = os.environ.get("GRAPHONLAB_THREADS")
    if explicit is None and env:
        (explicit,) = parse_line(env, "an integer GRAPHONLAB_THREADS", 1, int)
    if explicit is not None and explicit < 1:
        raise InputError(f"thread count must be >= 1, got {explicit}")
    return explicit or 1


def chunk_sizes(total: int) -> list[int]:
    sizes = [CHUNK] * (total // CHUNK)
    if total % CHUNK:
        sizes.append(total % CHUNK)
    return sizes


def run_chunked(
    fn: Callable[[int, int, np.random.Generator], T],
    total: int,
    seed: int,
    threads: int = 1,
    stream_base: int = 0,
) -> list[T]:
    """Run fn(chunk_index, count, rng) over fixed chunks; results in chunk order.

    The chunk layout depends only on `total`, never on `threads`, so any
    thread count produces identical results. `stream_base` offsets the
    stream indices so independent estimators never share a stream.
    """
    jobs = list(enumerate(chunk_sizes(total)))
    if threads <= 1 or len(jobs) <= 1:
        return [fn(i, count, stream(seed, stream_base + i)) for i, count in jobs]
    from concurrent.futures import ThreadPoolExecutor  # here, so one-thread runs never load it

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, i, count, stream(seed, stream_base + i)) for i, count in jobs]
        return [f.result() for f in futures]
