"""Input-to-bytes pins for the seeded empirical reports.

A report of empirical `test-exchangeable` ends in the smallest chi-square
p-value over the isomorphism classes, printed to six significant digits,
and its verdict compares that p-value with a Bonferroni threshold. A
change to how the chi-square tail is computed must not move either. The
cases below cover prefix sizes 3 to 7 and smallest p-values from about
0.5 down to about 1e-7, plus one `test-extreme` report (normal tail)
and two Monte Carlo `density --mc` reports, one against a host graph and
one against a two-block kernel.
The k = 7 case draws more than one chunk of samples, so its support
order is "sorted within each chunk, new codes appended", and it is
rejected, so its report names the first support graph of a class.
Each case writes small fixed inputs, runs one seeded command in process
and compares the sha256 of its exit code and report with a recorded value.

Run this file as a script to print the digests of the current code.
"""
from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import pytest

from graphonlab.cli import main

FILES = {
    "half.txt": "1\n1\n1/2\n",
    "half_src.txt": "wrandom half.txt\n",
    "two.txt": "2\n1/3 2/3\n3/5 1/5\n1/5 1/2\n",
    "two_src.txt": "wrandom two.txt\n",
    "sparse_a.txt": "1\n1\n3/100\n",
    "sparse_b.txt": "1\n1\n1/10\n",
    "sparse.txt": "mixture\n1/2 sparse_a.txt\n1/2 sparse_b.txt\n",
    "low.txt": "1\n1\n3/10\n",
    "high.txt": "1\n1\n3/5\n",
    "separated.txt": "mixture\n1/2 low.txt\n1/2 high.txt\n",
    "pairs.txt": "1-2 | 3-4\n1-3 2-3 | 4-5\n",
    "edge.txt": "2 1\n1 2\n",
    "triangle.txt": "3 3\n1 2\n1 3\n2 3\n",
    "host.txt": "6 8\n1 2\n1 3\n1 5\n2 3\n3 4\n4 5\n4 6\n5 6\n",
}


def _exchangeable(src: str, k: int, samples: int, seed: int) -> list[str]:
    return ["test-exchangeable", "-src", src, "-k", str(k), "--samples", str(samples), "--seed", str(seed)]


# the smallest p-value each case reported when it was pinned, in the comment
CASES = {
    "exchangeable/k3": _exchangeable("half_src.txt", 3, 2000, 0),  # 0.534189
    "exchangeable/k4": _exchangeable("two_src.txt", 4, 5000, 2),  # 0.0369577
    "exchangeable/k5": _exchangeable("sparse.txt", 5, 8000, 3),  # 0.0101812
    "exchangeable/k6": _exchangeable("two_src.txt", 6, 6000, 8),  # 0.00012816
    "exchangeable/k6-rejected": _exchangeable("half_src.txt", 6, 3000, 6),  # 1.97657e-05
    "exchangeable/k6-deep": _exchangeable("two_src.txt", 6, 6000, 9),  # 6.724e-08
    "exchangeable/k7-chunks": _exchangeable("half_src.txt", 7, 40000, 0),  # 6.29982e-09
    "extreme": ["test-extreme", "-src", "separated.txt", "--pairs", "pairs.txt",
                "--samples", "20000", "--seed", "5"],
    "density-mc/host": ["density", "-F", "edge.txt", "-F", "triangle.txt", "-G", "host.txt",
                        "--mc", "40000", "--seed", "3"],
    "density-mc/kernel": ["density", "-F", "edge.txt", "-F", "triangle.txt", "-W", "two.txt",
                          "--mc", "40000", "--seed", "3"],
}


def report(name: str, d: Path) -> bytes:
    """The exit code and report of case `name`, run in d after writing every input file there."""
    for fname, text in FILES.items():
        (d / fname).write_text(text)
    old = os.getcwd()
    os.chdir(d)
    try:
        code = main([*CASES[name], "-o", "report.txt"])
    finally:
        os.chdir(old)
    return f"exit {code}\n".encode() + (d / "report.txt").read_bytes()


DIGESTS = {
    "density-mc/host": "6beecfa6ea36027a49ac8d6fa313218155806200298e288255abfc1c837f5f0d",
    "density-mc/kernel": "2667f929a88884fe7bf9057dd9dce5e59a324a34a9cdad1b513cd7cf52285da9",
    "exchangeable/k3": "c06678339446d0bfc4de52385ef5ff74420228ce9b8c9f8ca7584e7d89475f7e",
    "exchangeable/k4": "a57ac547f848f31d162e5a77cf6917b8da64e4f9a87432fbb27bcba2cd780110",
    "exchangeable/k5": "8e5e9af09b2d961bbb0f38472621897a81b450b6e800353e3c09445c9b86e74a",
    "exchangeable/k6": "c1f91a1c41eb268e0ce88d7d263aece7f4becc4048d8cba3c898b429f5cd6b26",
    "exchangeable/k6-deep": "05c3a66edaa2dec37313143cef88230ea23561c88e6f2936cdeb042c18f030a9",
    "exchangeable/k6-rejected": "bf49f566e716b60df250a81165a36de3ddb3a9fb0a89a3376537e6478c1931e1",
    "exchangeable/k7-chunks": "4d0ece1a55bf85ae02b597c8a4fa8c00d72b193b53cc1fccf78016fe54edfbbf",
    "extreme": "dedf338a0d6c4dccd8134407d356657fc69d15576bd8a3f443fbdda2519c7196",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_empirical_report_keeps_its_bytes(name, tmp_path):
    assert hashlib.sha256(report(name, tmp_path)).hexdigest() == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            data = report(name, Path(tmp))
        print(f'    "{name}": "{hashlib.sha256(data).hexdigest()}",')
