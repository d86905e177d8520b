"""Seeded RNG streams and deterministic chunked Monte Carlo.

Reproducibility contract: a (seed, stream) pair defines every draw
bit-for-bit. Parallel estimators split their sample budget into
fixed-size chunks, one stream per chunk, so the merged result does not
depend on the number of worker threads.
"""
from __future__ import annotations

import os
from typing import Callable, TypeVar

import numpy as np

from .errors import InputError
from .exact import parse_line

CHUNK = 32768

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
