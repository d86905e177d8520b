"""Input-to-bytes pins for every exact CLI report.

Exact results stay exact: a change to how a density, a cut norm or an
exact prefix law is computed must not move a single digit of a report.
Each case below writes small fixed inputs, runs one exact command in
process and compares the sha256 of its report with a recorded value.
The inputs include a kernel whose denominators are large enough that
scaled integer products leave int64.

Run this file as a script to print the digests of the current code.
"""
from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import pytest

from graphonlab.cli import main


def _graph(n: int, edges) -> str:
    edges = list(edges)
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _pairs(n: int, keep) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if keep(u, v)]


def _step(mu, rows) -> str:
    return "\n".join([str(len(mu)), " ".join(mu)] + [" ".join(r) for r in rows]) + "\n"


BIG = "1000000000039"  # a prime denominator: products of a few values leave int64

FILES = {
    # simple patterns, one with an isolated vertex
    "edge.txt": _graph(2, [(1, 2)]),
    "p3.txt": _graph(3, [(1, 2), (2, 3)]),
    "k3.txt": _graph(3, [(1, 2), (1, 3), (2, 3)]),
    "c4.txt": _graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "k4.txt": _graph(4, _pairs(4, lambda u, v: True)),
    "c5.txt": _graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "p3iso.txt": _graph(4, [(1, 2), (2, 3)]),
    # simple hosts
    "h9.txt": _graph(9, _pairs(9, lambda u, v: (u * v + u) % 3 != 0)),
    "h14.txt": _graph(14, _pairs(14, lambda u, v: (u + 2 * v) % 5 < 3)),
    # step kernels
    "w4.txt": _step(["1/10", "1/5", "3/10", "2/5"],
                    [["1/2", "1/7", "3/4", "0"], ["1/7", "1", "2/9", "5/11"],
                     ["3/4", "2/9", "1/3", "3/8"], ["0", "5/11", "3/8", "9/10"]]),
    "wbig.txt": _step(["1/3", "2/3"],
                      [[f"999999999989/{BIG}", f"1/{BIG}"], [f"1/{BIG}", f"777777777777/{BIG}"]]),
    "cut_a.txt": _step(["1/5"] * 5, [[f"{(3 * (a + b) + a * b) % 11}/10" for b in range(5)] for a in range(5)]),
    "cut_b.txt": _step(["1/5"] * 5, [[f"{(a + b + 2 * a * b) % 10}/9" for b in range(5)] for a in range(5)]),
    "cut_c.txt": _step(["1/6", "1/6", "1/3", "1/3"],
                       [["1/2", "1/3", "0", "1"], ["1/3", "1/4", "2/3", "1/5"],
                        ["0", "2/3", "3/7", "1/9"], ["1", "1/5", "1/9", "0"]]),
    "cut_d.txt": _step(["1/6", "1/6", "1/3", "1/3"],
                       [["1/4", "1", "1/2", "0"], ["1", "0", "1/3", "2/3"],
                        ["1/2", "1/3", "5/6", "1/2"], ["0", "2/3", "1/2", "1/7"]]),
    "cut_big.txt": _step(["1/3", "2/3"],
                         [[f"5/{BIG}", f"999999999999/{BIG}"], [f"999999999999/{BIG}", "1/3"]]),
    # bipartite
    "K22.txt": "2 2 4\n1 1\n1 2\n2 1\n2 2\n",
    "bpath.txt": "2 3 3\n1 1\n1 2\n2 2\n",
    "bhost.txt": "".join([f"5 6 {sum(1 for u in range(5) for v in range(6) if (u * v + v) % 4 < 2)}\n"]
                         + [f"{u + 1} {v + 1}\n" for u in range(5) for v in range(6) if (u * v + v) % 4 < 2]),
    "bkernel.txt": "2 3\n1/3 2/3\n1/4 1/4 1/2\n1/5 9/10 1/2\n7/10 0 1\n",
    # directed
    "dloop.txt": "3 3\n1 1\n1 2\n2 3\n",
    "dtwo.txt": "2 2\n1 2\n2 1\n",
    "dhost.txt": _graph(7, [(u, v) for u in range(1, 8) for v in range(1, 8) if (u * 3 + v * v) % 4 < 2]),
    "quintuple.txt": ("2\n1/3 2/3\nW00\n3/5 2/5\n2/5 2/5\nW01\n1/10 3/10\n1/5 1/10\n"
                      "W10\n1/10 1/5\n3/10 1/10\nW11\n1/5 1/10\n1/10 2/5\nw\n1 0\n"),
    # exact prefix-law source
    "exch.txt": _step(["1/4", "3/4"], [["2/5", "1/10"], ["1/10", "7/10"]]),
    "exch_src.txt": "wrandom exch.txt\n",
    # a constant kernel: at k = 7 its law meets every class, up to the 5,040-member ones
    "const10.txt": _step(["1"], [["1/10"]]),
    "const10_src.txt": "wrandom const10.txt\n",
}

SIMPLE_PATTERNS = ["edge", "p3", "k3", "c4", "k4", "c5", "p3iso"]


def _patterns(names) -> list[str]:
    return [a for name in names for a in ("-F", f"{name}.txt")]


CASES = {
    "converge/hosts": ["converge", "-G", "h9.txt", "-G", "h14.txt", "--max-pattern", "4"],
    "converge/ref-graphon": ["converge", "-G", "h9.txt", "-G", "h14.txt", "--ref-graphon", "w4.txt",
                             "--max-pattern", "4"],
    "density/simple/host": ["density", *_patterns(SIMPLE_PATTERNS), "-G", "h9.txt", "-G", "h14.txt"],
    "density/simple/kernel": ["density", *_patterns(SIMPLE_PATTERNS), "-W", "w4.txt"],
    "density/simple/kernel-big": ["density", *_patterns(SIMPLE_PATTERNS), "-W", "wbig.txt"],
    "density/bipartite/host": ["density", "--kind", "bipartite", *_patterns(["K22", "bpath"]),
                               "-G", "bhost.txt"],
    "density/bipartite/kernel": ["density", "--kind", "bipartite", *_patterns(["K22", "bpath"]),
                                 "-W", "bkernel.txt"],
    "density/directed/host": ["density", "--kind", "directed", *_patterns(["dloop", "dtwo"]),
                              "-G", "dhost.txt"],
    "density/directed/kernel": ["density", "--kind", "directed", *_patterns(["dloop", "dtwo"]),
                                "-W", "quintuple.txt"],
    "cutdist/equal": ["cutdist", "-W", "cut_a.txt", "-W2", "cut_b.txt"],
    "cutdist/unequal": ["cutdist", "-W", "cut_c.txt", "-W2", "cut_d.txt"],
    "cutdist/big": ["cutdist", "-W", "wbig.txt", "-W2", "cut_big.txt"],
    "test-exchangeable/exact": ["test-exchangeable", "-src", "exch_src.txt", "-k", "4"],
    "test-exchangeable/exact-k6": ["test-exchangeable", "-src", "exch_src.txt", "-k", "6"],
    "test-exchangeable/exact-k7": ["test-exchangeable", "-src", "const10_src.txt", "-k", "7"],
}


def report(name: str, d: Path) -> bytes:
    """The report of case `name`, run in d after writing every input file there."""
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
    "converge/hosts": "8882e1b6caf76e8aaa1606f07fc622639db4ef852ae175c0ef8412c1a0ff6ff0",
    "converge/ref-graphon": "e46ccb739b6aed4b32142188fe20c3c0b60c6cddb95012620ec026da4b973205",
    "cutdist/big": "0d72ee4b7fcdba5bddb123f373822a8678b7d34759c48fa0fa428a1d5d7dd4e9",
    "cutdist/equal": "cd91211efefac756b638c0ccff108f68f52196102da19fa1d5983312d1fea0ed",
    "cutdist/unequal": "37c79817a38bdd5709213f6e66d68ec8d8b0214e9dd83b12d733346437fb8734",
    "density/bipartite/host": "e87860498bb4ea426f598965898500ffa61cd314d9f21446c3178fe006126e06",
    "density/bipartite/kernel": "3ff17c70c8c7ca4fabc0c4dfdf13ab95d624b07a0a1d2fc551a599c83045a14e",
    "density/directed/host": "c4732c8f37e4ae40ae506b0056dec3be52da7e22a819cc7c30b334437744c60d",
    "density/directed/kernel": "295d3e85d8617d67304c783ce9662bfcd446416922f289bee489268d9e4fe23b",
    "density/simple/host": "3f593a8da2409db0ab713f582be147491b04ace119c07fd56f1f7cc519520eab",
    "density/simple/kernel": "024c0e3d33a3b170627a1e5fb25fffbd12a0fa40f5cd035fd76ece85de1fdfed",
    "density/simple/kernel-big": "7a1b41b765e98c2a65371c94b780deda4caa2a0528d4c3ce15086e3b499379cb",
    "test-exchangeable/exact": "7f0bd2f0bb290d79a663627a0e52ba2c444e930262942b58eb9eec3bcda8ef90",
    "test-exchangeable/exact-k6": "50c6c6b3cecd10b9e86dfab97cf762cb2085e19527cf5523064ae51e153b2c3b",
    "test-exchangeable/exact-k7": "b48e306aa6f7c999d2abd1fedc061a08305640b16f32fdd00f4edea6f62ac61a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_report_keeps_its_bytes(name, tmp_path):
    assert hashlib.sha256(report(name, tmp_path)).hexdigest() == DIGESTS[name]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            data = report(name, Path(tmp))
        print(f'    "{name}": "{hashlib.sha256(data).hexdigest()}",')
