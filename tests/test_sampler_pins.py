"""Seed-to-bytes pins for every sampler.

A fixed seed must keep its draws: the CLI promises byte-identical reports
for a fixed --seed, so a change that reorders, adds or drops a draw in a
sampler breaks that promise even when every statistical test still
passes. Each case below draws boolean, integer or graph outputs from one
seeded stream (several calls in a row, so how much of the stream a call
consumes is pinned too) and compares their sha256 with a recorded value.
Float Monte Carlo sums are left out: their last bits may depend on the
numpy build.

Run this file as a script to print the digests of the current code.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from graphonlab.bipartite import BipartiteKernel, bip_cell_bits_batch, sample_bip_w_random
from graphonlab.directed import (
    DirectedKernelQuintuple,
    loop_sequence_law,
    quadruple_from_quintuple,
    sample_directed,
    sample_directed_pair_codes,
)
from graphonlab.exchangeable import GraphSource
from graphonlab.graphon import GeneralGraphon, StepGraphon, sample_w_random
from graphonlab.rng import stream

F = Fraction
STEP = StepGraphon(
    (F(1, 5), F(3, 10), F(1, 2)),
    ((F(9, 10), F(1, 5), F(1, 2)), (F(1, 5), F(3, 5), F(1, 10)), (F(1, 2), F(1, 10), F(3, 10))),
)
VECTORISED = GeneralGraphon(lambda x, y: np.exp(-(x + y)))
SCALAR_ONLY = GeneralGraphon(lambda x, y: math.exp(-(x + y)))
KERNELS = {"step": STEP, "vectorised": VECTORISED, "scalar": SCALAR_ONLY}
MIXTURE = GraphSource.mixture([(F(1, 4), STEP), (F(1, 4), VECTORISED), (F(1, 2), StepGraphon.constant(F(7, 10)))])
SOURCES = {"w_random": GraphSource.w_random(STEP), "mixture": MIXTURE}
BIP = BipartiteKernel(
    (F(1, 3), F(2, 3)),
    (F(1, 4), F(1, 4), F(1, 2)),
    ((F(1, 5), F(9, 10), F(1, 2)), (F(7, 10), F(0), F(1))),
)
QUINTUPLE = DirectedKernelQuintuple(
    (F(1, 2), F(1, 2)),
    ((F(6, 10), F(4, 10)), (F(4, 10), F(4, 10))),
    ((F(1, 10), F(3, 10)), (F(2, 10), F(1, 10))),
    ((F(1, 10), F(2, 10)), (F(3, 10), F(1, 10))),
    ((F(2, 10), F(1, 10)), (F(1, 10), F(4, 10))),
    (0, 1),
)
DIRECTED = {"quintuple": QUINTUPLE, "quadruple": quadruple_from_quintuple(QUINTUPLE, F(3, 10))}


def _arrays(*arrays: np.ndarray) -> bytes:
    return b"".join(f"{a.dtype.str}{a.shape}".encode() + a.tobytes() for a in arrays)


def _cases() -> dict[str, object]:
    cases = {}
    for name, w in KERNELS.items():
        cases[f"sample_w_random/{name}"] = lambda w=w: b"".join(
            sample_w_random(w, n, rng).to_text().encode() for rng in [stream(11)] for n in (1, 2, 17, 60)
        )
    for name, src in SOURCES.items():
        for k in range(2, 6):
            cases[f"pair_bits_batch/{name}/k{k}"] = lambda src=src, k=k: b"".join(
                _arrays(src.pair_bits_batch(k, count, rng)) for rng in [stream(12, k)] for count in (1, 300)
            )
        cases[f"sample_prefix/{name}"] = lambda src=src: b"".join(
            src.sample_prefix(n, rng).to_text().encode() for rng in [stream(13)] for n in (1, 9, 30)
        )
    cases["sample_bip_w_random"] = lambda: b"".join(
        sample_bip_w_random(BIP, n1, n2, rng).to_text().encode()
        for rng in [stream(14)] for n1, n2 in ((1, 1), (3, 7), (40, 25))
    )
    cases["bip_cell_bits_batch"] = lambda: b"".join(
        _arrays(bip_cell_bits_batch(BIP, k1, k2, count, rng))
        for rng in [stream(15)] for k1, k2, count in ((1, 1, 1), (2, 3, 1), (2, 3, 400))
    )
    for name, kernel in DIRECTED.items():
        cases[f"sample_directed/{name}"] = lambda kernel=kernel: b"".join(
            sample_directed(kernel, n, rng).to_text().encode() for rng in [stream(16)] for n in (1, 6, 25)
        )
        cases[f"loop_sequence_law/{name}"] = lambda kernel=kernel: repr(
            [loop_sequence_law(kernel, n, rng) for rng in [stream(17)] for n in (1, 8, 50)]
        ).encode()
        for count in (1, 200):
            cases[f"sample_directed_pair_codes/{name}/count{count}"] = lambda kernel=kernel, count=count: b"".join(
                _arrays(*sample_directed_pair_codes(kernel, n, count, rng)) for rng in [stream(18)] for n in (1, 2, 5)
            )
    return cases


CASES = _cases()

DIGESTS = {
    "bip_cell_bits_batch": "b7ec1ef7e96b38af78a1d674f8df7debbe8e8e805637e9e25c9bc14c6f5e7d86",
    "loop_sequence_law/quadruple": "4b8cbcb8a2788801785295fed670a0a6f7b3e4c51e270010864feb1105796007",
    "loop_sequence_law/quintuple": "25fdcfe665374e9b8a42f11c4948ab7ede3975494e231715e1566ab1b9f96122",
    "pair_bits_batch/mixture/k2": "d5d527d64c5ce313e96773556cc9a5cd6704690808cb307aada67a0ba895d70d",
    "pair_bits_batch/mixture/k3": "0ee296065385fb0361da8ec4e62b5303fea923d8058c2adb338bfed06d5edf24",
    "pair_bits_batch/mixture/k4": "31c0422c45b34e595571d5f82bc59ac33bbb6394ddd88ef0bb2f038b2e779f8b",
    "pair_bits_batch/mixture/k5": "07e0ef6e5a263250b5c3a137787bf06159c489991f0250be8d59917822b4d0cf",
    "pair_bits_batch/w_random/k2": "f0d28fb8fda0794961e05e566dc799095940128d3b20c03476db27a6cbc609b1",
    "pair_bits_batch/w_random/k3": "8b373f8ef99ba0782db46caf011486500cf07b198bb8819edf208a4f89e09f73",
    "pair_bits_batch/w_random/k4": "12831d9020c70cd622538260d52529876543a556a8f437b201ee8d9e89d36ae7",
    "pair_bits_batch/w_random/k5": "a8a696db55fb2d4c2426fe1029576355a0f2c44eb2942fe179139dbf68d146ab",
    "sample_bip_w_random": "3a454e0e037bc505b576d8f16be9f7574a334e04225a4def655e4df8ed2d7189",
    "sample_directed/quadruple": "95a1f0615ada6fc1eae3950646ffc6058aecc284eb8aab6151f09e482a720106",
    "sample_directed/quintuple": "b95b9d2436abec9e0c870f38e2d2f7c8838ade3ac44fa8ed75007705aa380edf",
    "sample_directed_pair_codes/quadruple/count1": "8ae18dbacfa46739d17a088c1a5d351f3d6baa7ede974875601be60d11bbf3ee",
    "sample_directed_pair_codes/quadruple/count200": "75fcb5240e095319152b8a8cd90e662de20f77b4e37eb38864a4dc0863d9a376",
    "sample_directed_pair_codes/quintuple/count1": "8c215b2a1865958b955c5d236ee1e15a916df801a98efa162326d9baccf59e3b",
    "sample_directed_pair_codes/quintuple/count200": "22f8dffef8e0900dcef8546233c1e1567f2eae4d402fcb0ddd09d2a6efec7dd6",
    "sample_prefix/mixture": "7d02e5885ae7455c6d3809078265b7ad76563f7c33f07dd1e139bafc2496ca2b",
    "sample_prefix/w_random": "69715b537279bbdb728e21f5e46d7f93006505f20f450c3adca08848b25ae88b",
    "sample_w_random/scalar": "64f2872e059b91ceadf824cbb26b9b4748440eecbebf6c37f2ddcfb48a0c5546",
    "sample_w_random/step": "6037ec1f1d7ce5e5c6cafdca5add16a43e17c456110726f7bc4a82cac6ba9494",
    "sample_w_random/vectorised": "64f2872e059b91ceadf824cbb26b9b4748440eecbebf6c37f2ddcfb48a0c5546",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seed_keeps_its_draws(name):
    assert hashlib.sha256(CASES[name]()).hexdigest() == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{hashlib.sha256(CASES[name]()).hexdigest()}",')
