"""Benchmark workloads: seeded inputs, command sequences and output checks.

Each workload writes every input file itself (hosts, kernels, sources,
patterns, pairs) from its seed and returns the graphonlab command sequence
to run on them. Checks never call the library: exact rows are recomputed
here with numpy integer counts or Fraction sums over the kernel blocks,
reports that are hard to recompute are compared with digests pinned for
the default seed, and randomized rows are checked only where the outcome
is certain (a Monte Carlo row within its Hoeffding interval of the exact
value is not left to an alpha-level chance at these sample sizes).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0

Check = Callable[[Path, str], list[str]]


@dataclass(frozen=True)
class Step:
    """One graphonlab invocation; its report goes to `out` in the work dir."""

    name: str
    args: tuple[str, ...]
    out: str
    check: Check
    codes: tuple[int, ...] = (0,)
    pinned: bool = False  # exact report: digest pinned for the default seed
    threads: int | None = None  # chunked command: re-run at the other count

    def argv(self, threads: int | None = None, out: str | None = None) -> list[str]:
        argv = [*self.args, "-o", out or self.out]
        t = threads or self.threads
        return argv + ["--threads", str(t)] if t else argv


# --------------------------------------------------------------- file formats


def dec(x: Fraction, places: int = 12) -> str:
    """The CLI's decimal cell: round half up to a fixed number of places."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    q, r = divmod(x.numerator * 10**places, x.denominator)
    if 2 * r >= x.denominator:
        q += 1
    whole, frac = divmod(q, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def graph_text(n: int, edges: np.ndarray) -> str:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges.tolist()]
    return "\n".join(lines) + "\n"


def step_text(mu: list[Fraction], w: list[list[Fraction]]) -> str:
    lines = [str(len(mu)), " ".join(map(str, mu))] + [" ".join(map(str, row)) for row in w]
    return "\n".join(lines) + "\n"


def read_ints(path: Path) -> np.ndarray:
    return np.array(path.read_text().split(), dtype=np.int64)


def parse_graph(path: Path, directed: bool = False) -> tuple[int, np.ndarray, list[str]]:
    """(n, edges, problems) of a simple or directed graph file."""
    vals = read_ints(path)
    n, m = int(vals[0]), int(vals[1])
    edges = vals[2:].reshape(-1, 2)
    problems = []
    if len(edges) != m:
        problems.append(f"{path.name}: header declares {m} edges, file has {len(edges)}")
    if len(edges) and (edges.min() < 1 or edges.max() > n):
        problems.append(f"{path.name}: vertex out of range 1..{n}")
    if not directed and len(edges) and np.any(edges[:, 0] >= edges[:, 1]):
        problems.append(f"{path.name}: edge line with u >= v")
    if len(np.unique(edges[:, 0] * (n + 1) + edges[:, 1])) != len(edges):
        problems.append(f"{path.name}: duplicate edge")
    return n, edges, problems


def csv_rows(text: str) -> list[list[str]]:
    return [ln.split(",") for ln in text.splitlines()]


def expect_text(expected: str) -> Check:
    def check(_d: Path, text: str) -> list[str]:
        if text == expected:
            return []
        got, want = text.splitlines(), expected.splitlines()
        diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return [f"line {diff + 1}: got {got[diff:diff + 1]} want {want[diff:diff + 1]}"]
    return check


# ---------------------------------------------------------- exact references


def kernel_prefix_prob(mu, w, k: int, edges: set[tuple[int, int]], induced: bool) -> Fraction:
    """Block-assignment sum of a step kernel for a labelled pattern on [k]:
    the homomorphism density, or with `induced` the probability that the
    k-prefix of the W-random graph is exactly the pattern."""
    total = Fraction(0)
    pairs = [(i, j) for j in range(k) for i in range(j)]
    for z in itertools.product(range(len(mu)), repeat=k):
        weight = math.prod((mu[b] for b in z), start=Fraction(1))
        for i, j in pairs:
            p = w[z[i]][z[j]]
            if (i + 1, j + 1) in edges:
                weight *= p
            elif induced:
                weight *= 1 - p
        total += weight
    return total


def mc_row_check(row: list[str], exact_t: Fraction, samples: int) -> list[str]:
    """Monte Carlo row: bound_ok, the Hoeffding half-width at alpha = 0.01
    for the sample count, and the estimate within it of the exact density."""
    problems = []
    if row[6] != "bound_ok":
        problems.append(f"{row[0]}: {row[6]}")
    halfwidth = math.sqrt(math.log(2.0 / 0.01) / (2.0 * samples))
    if row[7] != dec(Fraction(repr(halfwidth))):
        problems.append(f"{row[0]}: half-width {row[7]} for {samples} samples")
    if abs(float(row[2]) - float(exact_t)) > float(row[7]):
        problems.append(f"{row[0]}: estimate {row[2]} not within {row[7]} of {float(exact_t)}")
    return problems


def falling(n: int, k: int) -> int:
    return math.prod(range(n - k + 1, n + 1))


def host_counts(n: int, edges: np.ndarray) -> tuple[int, int]:
    """(edges, triangles) of a simple graph, by numpy integer counts: each
    triangle is counted once per edge through common-neighbour popcounts."""
    words = (n + 63) // 64
    adj = np.zeros((n, words * 64), dtype=bool)
    u, v = edges[:, 0] - 1, edges[:, 1] - 1
    adj[u, v] = adj[v, u] = True
    packed = np.packbits(adj, axis=1, bitorder="little").view(np.uint64)
    common = 0
    for lo in range(0, len(u), 1 << 15):
        hits = packed[u[lo:lo + (1 << 15)]] & packed[v[lo:lo + (1 << 15)]]
        common += int(np.bitwise_count(hits).sum())
    return len(edges), common // 3


def simple_host_rows(pid: str, n: int, k: int, hom: int, inj: int, ind: int, hid: str) -> str:
    t, tinj, tind = Fraction(hom, n**k), Fraction(inj, falling(n, k)), Fraction(ind, falling(n, k))
    bound = Fraction(k * k, 2 * n)
    flag = "bound_ok" if abs(t - tinj) <= bound else "bound_violated"
    return f"{pid},{hid},{dec(t)},{dec(tinj)},{dec(tind)},{dec(bound)},{flag}"


# ------------------------------------------------------------------ generators


def pct(rng: np.random.Generator, lo: int, hi: int) -> Fraction:
    """Uniform percentage in lo..hi, as an exact fraction."""
    return Fraction(int(rng.integers(lo, hi + 1)), 100)


def random_measures(rng: np.random.Generator, m: int) -> list[Fraction]:
    """Block measures 1..m over their sum, in a seeded order: seeds relabel
    blocks rather than change how much work a kernel makes."""
    return [Fraction(int(x), m * (m + 1) // 2) for x in rng.permutation(m) + 1]


def random_symmetric(rng: np.random.Generator, m: int, lo: int, hi: int) -> list[list[Fraction]]:
    w = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            w[i][j] = w[j][i] = pct(rng, lo, hi)
    return w


def random_graph(rng: np.random.Generator, n: int, p_in: float, p_out: float) -> np.ndarray:
    """Two-community random graph; edges (u, v), u < v, 1-based."""
    side = rng.random(n) < 0.5
    iu, ju = np.triu_indices(n, 1)
    probs = np.where(side[iu] == side[ju], p_in, p_out)
    keep = rng.random(len(iu)) < probs
    return np.column_stack([iu[keep], ju[keep]]) + 1


def write(d: Path, name: str, text: str) -> str:
    (d / name).write_text(text)
    return name


EDGE = "2 1\n1 2\n"
TRIANGLE = "3 3\n1 2\n1 3\n2 3\n"
C4 = "4 4\n1 2\n2 3\n3 4\n1 4\n"
K4 = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


# ------------------------------------------------------------------ host-scale


def host_scale(rng: np.random.Generator, seed: int, d: Path, size: dict) -> list[Step]:
    n, grid = size["host_n"], size["trace_grid"]
    # a sparse 3-block kernel, its blocks in a seeded order
    base_mu = [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
    base_w = [[Fraction(x, 100) for x in row] for row in ((12, 2, 3), (2, 10, 1), (3, 1, 15))]
    order = rng.permutation(3)
    mu = [base_mu[i] for i in order]
    w = [[base_w[i][j] for j in order] for i in order]
    write(d, "kernel.txt", step_text(mu, w))
    write(d, "src.txt", "wrandom kernel.txt\n")
    write(d, "edge.txt", EDGE)
    write(d, "triangle.txt", TRIANGLE)
    tri_edges = {(1, 2), (1, 3), (2, 3)}
    kernel_t = {
        "edge": kernel_prefix_prob(mu, w, 2, {(1, 2)}, False),
        "triangle": kernel_prefix_prob(mu, w, 3, tri_edges, False),
    }

    def host_exact(d: Path) -> tuple[int, int, dict[str, str]]:
        hn, edges, _ = parse_graph(d / "host.txt")
        e, tri = host_counts(hn, edges)
        rows = {
            "edge": simple_host_rows("edge", hn, 2, 2 * e, 2 * e, 2 * e, "host"),
            "triangle": simple_host_rows("triangle", hn, 3, 6 * tri, 6 * tri, 6 * tri, "host"),
        }
        return hn, tri, rows

    def check_sample(d: Path, _text: str) -> list[str]:
        hn, _, problems = parse_graph(d / "host.txt")
        if hn != n:
            problems.append(f"host has {hn} vertices, asked for {n}")
        return problems

    def check_exact(d: Path, text: str) -> list[str]:
        _, _, rows = host_exact(d)
        header = "pattern_id,host_id,t,t_inj,t_ind,bound,bound_check"
        return expect_text("\n".join([header, rows["edge"], rows["triangle"]]) + "\n")(d, text)

    def check_host_mc(d: Path, text: str) -> list[str]:
        hn, tri, rows = host_exact(d)
        got = csv_rows(text)
        want = rows["triangle"].split(",")
        problems = [] if len(got) == 2 else [f"expected one row, got {len(got) - 1}"]
        if got[1][3:6] != want[3:6]:
            problems.append(f"exact cells {got[1][3:6]} != {want[3:6]}")
        return problems + mc_row_check(got[1], Fraction(6 * tri, hn**3), size["host_mc"])

    def check_trace(_d: Path, text: str) -> list[str]:
        rows = csv_rows(text)
        if rows[0] != ["n", "t_ind"] or [int(r[0]) for r in rows[1:]] != list(grid):
            return [f"trace rows do not follow the grid {grid}"]
        return [f"t_ind {r[1]} outside [0,1]" for r in rows[1:] if not 0 <= float(r[1]) <= 1]

    def check_kernel_mc(_d: Path, text: str) -> list[str]:
        rows = csv_rows(text)
        problems = []
        for row in rows[1:]:
            exact = kernel_t[row[0]]
            if row[4] != dec(exact) or row[2] != row[3]:
                problems.append(f"{row[0]}: t_ind {row[4]} != {dec(exact)} or t != t_inj")
            problems += mc_row_check(row, exact, size["kernel_mc"])
        return problems if len(rows) == 3 else problems + ["expected two rows"]

    s = str(seed)
    return [
        Step("sample", ("sample", "-W", "kernel.txt", "-n", str(n), "--seed", s),
             "host.txt", check_sample),
        Step("density-exact", ("density", "-F", "edge.txt", "-F", "triangle.txt", "-G", "host.txt"),
             "density_exact.csv", check_exact),
        Step("density-mc", ("density", "-F", "triangle.txt", "-G", "host.txt",
                            "--mc", str(size["host_mc"]), "--seed", s),
             "density_mc.csv", check_host_mc, threads=2),
        Step("trace-martingale", ("trace-martingale", "-src", "src.txt", "-F", "triangle.txt",
                                  "--grid", ",".join(map(str, grid)), "--seed", s),
             "trace.csv", check_trace),
        Step("kernel-mc", ("density", "-F", "edge.txt", "-F", "triangle.txt", "-W", "kernel.txt",
                           "--mc", str(size["kernel_mc"]), "--seed", s),
             "kernel_mc.csv", check_kernel_mc, threads=2),
    ]


# ---------------------------------------------------------------- exact-kernel


def cut_distance(m: int, w1, w2) -> Fraction:
    """min over block permutations of the cut norm of w1 - w2 permuted, for
    m equal blocks and percentage values: brute force over all row and
    column sets in integers scaled by 100 m^2."""
    a = np.array([[int(x * 100) for x in row] for row in w1], dtype=np.int64)
    b = np.array([[int(x * 100) for x in row] for row in w2], dtype=np.int64)
    perms = np.array(list(itertools.permutations(range(m))))
    diff = a[None] - b[perms[:, :, None], perms[:, None, :]]
    sets = np.array([[s >> i & 1 for i in range(m)] for s in range(1 << m)], dtype=np.int64)
    cols = np.einsum("si,pij->psj", sets, diff)
    best = np.maximum(np.clip(cols, 0, None).sum(-1), np.clip(-cols, 0, None).sum(-1)).max(-1)
    return Fraction(int(best.min()), 100 * m * m)


def exact_kernel(rng: np.random.Generator, seed: int, d: Path, size: dict) -> list[Step]:
    hosts = []
    for n in size["converge_hosts"]:
        hosts.append(write(d, f"host{n}.txt", graph_text(n, random_graph(rng, n, 0.6, 0.35))))
    m = size["ref_blocks"]
    write(d, "ref.txt", step_text(random_measures(rng, m), random_symmetric(rng, m, 20, 80)))
    m = size["density_blocks"]
    mu5, w5 = random_measures(rng, m), random_symmetric(rng, m, 5, 95)
    write(d, "dens.txt", step_text(mu5, w5))
    write(d, "C4.txt", C4)
    write(d, "K4.txt", K4)
    m = size["exch_blocks"]
    write(d, "exch.txt", step_text(random_measures(rng, m), random_symmetric(rng, m, 5, 95)))
    write(d, "exch_src.txt", "wrandom exch.txt\n")
    m = size["cut_blocks"]
    mu_cut = [Fraction(1, m)] * m
    w_a, w_b = random_symmetric(rng, m, 0, 100), random_symmetric(rng, m, 0, 100)
    write(d, "cut_a.txt", step_text(mu_cut, w_a))
    write(d, "cut_b.txt", step_text(mu_cut, w_b))

    def check_converge(_d: Path, text: str) -> list[str]:
        lines = text.splitlines()
        want = [f"host{n}" for n in size["converge_hosts"]]
        if lines[:2] != ["# reference: ref", "graph_id,d"] or [ln.split(",")[0] for ln in lines[2:]] != want:
            return ["converge report layout"]
        return []

    c4 = {(1, 2), (2, 3), (3, 4), (1, 4)}
    k4 = {(i, j) for j in range(1, 5) for i in range(1, j)}
    rows = ["pattern_id,host_id,t,t_inj,t_ind,bound,bound_check"]
    for pid, edges in (("C4", c4), ("K4", k4)):
        tv = kernel_prefix_prob(mu5, w5, 4, edges, False)
        tind = kernel_prefix_prob(mu5, w5, 4, edges, True)
        rows.append(f"{pid},dens,{dec(tv)},{dec(tv)},{dec(tind)},{dec(Fraction(0))},bound_ok")

    k = size["exch_k"]

    def check_exchangeable(_d: Path, text: str) -> list[str]:
        lines = text.splitlines()
        table = [ln.split(",") for ln in lines[1:-1]]
        problems = []
        if lines[0] != "class_code,cells,count,probability" or lines[-1] != "VERDICT consistent p_min=":
            problems.append(f"exact-mode layout or verdict: {lines[0]!r} ... {lines[-1]!r}")
        # every kernel value lies strictly inside (0,1): all labelled graphs have mass
        if sum(int(r[1]) for r in table) != 2 ** (k * (k - 1) // 2):
            problems.append("class sizes do not cover every labelled graph")
        if abs(sum(Fraction(r[3]) for r in table) - 1) > Fraction(len(table), 10**12):
            problems.append("class probabilities do not sum to 1")
        return problems

    cutdist = f"METRIC cutdist_upper={dec(cut_distance(m, w_a, w_b))}\n"

    graph_args = tuple(a for h in hosts for a in ("-G", h))
    return [
        Step("converge", ("converge", *graph_args, "--ref-graphon", "ref.txt",
                          "--max-pattern", str(size["max_pattern"])),
             "converge.csv", check_converge, pinned=True),
        Step("density-kernel", ("density", "-F", "C4.txt", "-F", "K4.txt", "-W", "dens.txt"),
             "density.csv", expect_text("\n".join(rows) + "\n"), pinned=True),
        Step("test-exchangeable", ("test-exchangeable", "-src", "exch_src.txt", "-k", str(k)),
             "exchangeable.csv", check_exchangeable, pinned=True),
        Step("cutdist", ("cutdist", "-W", "cut_a.txt", "-W2", "cut_b.txt"),
             "cutdist.txt", expect_text(cutdist), pinned=True),
    ]


# ---------------------------------------------------------------- prefix-tests


def prefix_tests(rng: np.random.Generator, seed: int, d: Path, size: dict) -> list[Step]:
    write(d, "sparse_a.txt", step_text([Fraction(1)], [[Fraction(3, 100)]]))
    write(d, "sparse_b.txt", step_text([Fraction(1)], [[Fraction(8, 100)]]))
    write(d, "sparse.txt", "mixture\n1/2 sparse_a.txt\n1/2 sparse_b.txt\n")
    for name, vals in (("two_a.txt", ((60, 20), (20, 50))), ("two_b.txt", ((30, 70), (70, 40)))):
        order = rng.permutation(2)
        write(d, name, step_text(random_measures(rng, 2),
                                 [[Fraction(vals[i][j], 100) for j in order] for i in order]))
    write(d, "two.txt", "mixture\n1/2 two_a.txt\n1/2 two_b.txt\n")
    write(d, "low.txt", step_text([Fraction(1)], [[Fraction(3, 10)]]))
    write(d, "high.txt", step_text([Fraction(1)], [[Fraction(3, 5)]]))
    write(d, "separated.txt", "mixture\n1/2 low.txt\n1/2 high.txt\n")
    write(d, "pairs.txt", "1-2 | 3-4\n1-3 2-3 | 4-5\n")

    def empirical(k: int, samples: int) -> Check:
        def check(_d: Path, text: str) -> list[str]:
            lines = text.splitlines()
            table = [ln.split(",") for ln in lines[1:-1]]
            problems = []
            if lines[0] != "class_code,cells,count,probability":
                problems.append(f"header {lines[0]!r}")
            if not lines[-1].startswith(("VERDICT consistent p_min=", "VERDICT rejected p_min=")):
                problems.append(f"verdict line {lines[-1]!r}")
            if sum(int(r[2]) for r in table) != samples:
                problems.append("class counts do not add up to the sample count")
            bad = [r[0] for r in table if r[3] != dec(Fraction(int(r[2]), samples))]
            if bad:
                problems.append(f"probability != count/samples in classes {bad[:3]}")
            if any(not 1 <= int(r[1]) <= math.factorial(k) for r in table):
                problems.append("class size outside 1..k!")
            return problems
        return check

    def check_extreme(_d: Path, text: str) -> list[str]:
        lines = text.splitlines()
        # constant kernels 0.3 and 0.6 mixed: P(both edges) - P(e)^2 = 0.0225,
        # hundreds of standard errors at these sample sizes
        if len(lines) != 4 or not lines[-1].startswith("VERDICT non-extreme p_min="):
            return [f"test-extreme report {lines[-1:]!r}"]
        return []

    s = str(seed)
    k6, k5 = size["sparse"], size["two"]
    return [
        Step("exchangeable-sparse", ("test-exchangeable", "-src", "sparse.txt", "-k", str(k6[0]),
                                     "--samples", str(k6[1]), "--seed", s),
             "sparse.csv", empirical(*k6), codes=(0, 1)),
        Step("exchangeable-two", ("test-exchangeable", "-src", "two.txt", "-k", str(k5[0]),
                                  "--samples", str(k5[1]), "--seed", s),
             "two.csv", empirical(*k5), codes=(0, 1)),
        Step("test-extreme", ("test-extreme", "-src", "separated.txt", "--pairs", "pairs.txt",
                              "--samples", str(size["extreme_samples"]), "--seed", s),
             "extreme.csv", check_extreme, codes=(1,), threads=2),
    ]


# -------------------------------------------------------------------- variants


def quintuple_text(rng: np.random.Generator, m: int) -> tuple[str, list, list[int]]:
    """Directed kernel: per block pair a joint law of (X_ij, X_ji) with the
    transpose symmetry W_ab(x, y) = W_ba(y, x)."""
    laws = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            raw = [int(x) for x in rng.integers(1, 10, size=4)]
            if a == b:
                raw[2] = raw[1]
            law = [Fraction(x, sum(raw)) for x in raw]
            laws[a][b] = law
            laws[b][a] = [law[0], law[2], law[1], law[3]]
    flags = [1] + [int(x) for x in rng.integers(0, 2, size=m - 1)]
    mu = random_measures(rng, m)
    lines = [str(m), " ".join(map(str, mu))]
    for s, name in enumerate(("W00", "W01", "W10", "W11")):
        lines.append(name)
        lines += [" ".join(str(laws[a][b][s]) for b in range(m)) for a in range(m)]
    lines += ["w", " ".join(map(str, flags))]
    return "\n".join(lines) + "\n", (mu, laws), flags


# pattern on 3 vertices: a loop at 1, then 1 -> 2 -> 3
DIR_PATTERN = "3 3\n1 1\n1 2\n2 3\n"
DIR_EDGES = {(1, 1), (1, 2), (2, 3)}


def directed_kernel_density(mu, laws, flags, induced: bool) -> Fraction:
    total = Fraction(0)
    for z in itertools.product(range(len(mu)), repeat=3):
        weight = math.prod((mu[b] for b in z), start=Fraction(1))
        for v in range(3):
            has = (v + 1, v + 1) in DIR_EDGES
            if (has and not flags[z[v]]) or (induced and not has and flags[z[v]]):
                weight = Fraction(0)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            req = (int((i + 1, j + 1) in DIR_EDGES), int((j + 1, i + 1) in DIR_EDGES))
            law = laws[z[i]][z[j]]
            if induced:
                weight *= law[2 * req[0] + req[1]]
            else:
                weight *= sum(law[2 * a + b] for a in (0, 1) for b in (0, 1)
                              if a >= req[0] and b >= req[1])
        total += weight
    return total


def directed_host_row(n: int, edges: np.ndarray) -> str:
    """Counts of the looped 3-vertex pattern in a directed host, by numpy
    matrix products over the adjacency matrix (loops on its diagonal)."""
    a = np.zeros((n, n), dtype=np.int64)
    a[edges[:, 0] - 1, edges[:, 1] - 1] = 1
    loop = np.diag(a).copy()
    a0 = a - np.diag(loop)
    hom = int(loop @ a @ a.sum(axis=1))
    # distinct images: drop maps with 1 = 2 or 2 = 3 (a0), then those with 1 = 3
    inj = int(loop @ a0 @ a0.sum(axis=1)) - int(loop @ (a0 * a0.T).sum(axis=1))
    one_way = a0 * (1 - a0.T)
    apart = (1 - a0) * (1 - a0.T) - np.eye(n, dtype=np.int64)
    walks = (loop[:, None] * one_way * (1 - loop)[None, :]) @ (one_way * (1 - loop)[None, :])
    ind = int((walks * apart).sum())
    t, tinj, tind = Fraction(hom, n**3), Fraction(inj, falling(n, 3)), Fraction(ind, falling(n, 3))
    bound = Fraction(9, 2 * n)
    flag = "bound_ok" if abs(t - tinj) <= bound else "bound_violated"
    return f"pattern,dhost,{dec(t)},{dec(tinj)},{dec(tind)},{dec(bound)},{flag}"


def bipartite_host_row(n1: int, n2: int, edges: np.ndarray) -> str:
    """K_{2,2} counts in a bipartite host from common-neighbour counts."""
    a = np.zeros((n1, n2), dtype=np.int64)
    a[edges[:, 0] - 1, edges[:, 1] - 1] = 1
    common = a @ a.T
    hom = int((common**2).sum())
    off = common - np.diag(np.diag(common))
    inj = int((off * (off - 1)).sum())
    t = Fraction(hom, n1**2 * n2**2)
    tinj = Fraction(inj, falling(n1, 2) * falling(n2, 2))
    bound = Fraction(4, 2 * n1) + Fraction(4, 2 * n2)
    flag = "bound_ok" if abs(t - tinj) <= bound else "bound_violated"
    return f"K22,bhost,{dec(t)},{dec(tinj)},{dec(tinj)},{dec(bound)},{flag}"


def variants(rng: np.random.Generator, seed: int, d: Path, size: dict) -> list[Step]:
    qtext, (mu, laws), flags = quintuple_text(rng, size["dir_blocks"])
    write(d, "quintuple.txt", qtext)
    write(d, "pattern.txt", DIR_PATTERN)
    n = size["dir_host"]
    dir_edges = np.argwhere(rng.random((n, n)) < np.where(np.eye(n, dtype=bool), 0.3, 0.1)) + 1
    write(d, "dhost.txt", graph_text(n, dir_edges))
    m1, m2 = 2, 3
    bmu1, bmu2 = random_measures(rng, m1), random_measures(rng, m2)
    bw = [[pct(rng, 5, 95) for _ in range(m2)] for _ in range(m1)]
    write(d, "bkernel.txt", "\n".join([f"{m1} {m2}", " ".join(map(str, bmu1)), " ".join(map(str, bmu2))]
                                      + [" ".join(map(str, row)) for row in bw]) + "\n")
    write(d, "K22.txt", "2 2 4\n1 1\n1 2\n2 1\n2 2\n")
    b1, b2 = size["bip_host"]
    bip_edges = np.argwhere(rng.random((b1, b2)) < 0.3) + 1
    write(d, "bhost.txt", f"{b1} {b2} {len(bip_edges)}\n" + "".join(f"{u} {v}\n" for u, v in bip_edges.tolist()))

    dir_rows = ["pattern_id,host_id,t,t_inj,t_ind,bound,bound_check"]
    tv = directed_kernel_density(mu, laws, flags, False)
    tind = directed_kernel_density(mu, laws, flags, True)
    dir_rows.append(f"pattern,quintuple,{dec(tv)},{dec(tv)},{dec(tind)},{dec(Fraction(0))},bound_ok")
    bip_rows = ["pattern_id,host_id,t,t_inj,t_ind,bound,bound_check"]
    kt = Fraction(0)
    for a, a2 in itertools.product(range(m1), repeat=2):
        for b, b2_ in itertools.product(range(m2), repeat=2):
            kt += bmu1[a] * bmu1[a2] * bmu2[b] * bmu2[b2_] * bw[a][b] * bw[a][b2_] * bw[a2][b] * bw[a2][b2_]
    bip_rows.append(f"K22,bkernel,{dec(kt)},{dec(kt)},{dec(kt)},{dec(Fraction(0))},bound_ok")
    header = "pattern_id,host_id,t,t_inj,t_ind,bound,bound_check\n"

    def check_dsample(d: Path, _text: str) -> list[str]:
        dn, _, problems = parse_graph(d / "dsample.txt", directed=True)
        return problems + ([] if dn == size["dir_sample"] else [f"directed sample has {dn} vertices"])

    def check_bsample(d: Path, _text: str) -> list[str]:
        vals = read_ints(d / "bsample.txt")
        p1, p2, m = (int(x) for x in vals[:3])
        edges = vals[3:].reshape(-1, 2)
        problems = [] if (p1, p2) == size["bip_sample"] else [f"bipartite sample is {p1}x{p2}"]
        if len(edges) != m or (m and (edges[:, 0].max() > p1 or edges[:, 1].max() > p2 or edges.min() < 1)):
            problems.append("bipartite sample edge list")
        return problems

    s = str(seed)
    bs = size["bip_sample"]
    return [
        Step("directed-sample", ("sample", "--kind", "directed", "-W", "quintuple.txt",
                                 "-n", str(size["dir_sample"]), "--seed", s),
             "dsample.txt", check_dsample),
        Step("directed-host", ("density", "--kind", "directed", "-F", "pattern.txt", "-G", "dhost.txt"),
             "dhost.csv", expect_text(header + directed_host_row(n, dir_edges) + "\n"), pinned=True),
        Step("directed-kernel", ("density", "--kind", "directed", "-F", "pattern.txt", "-W", "quintuple.txt"),
             "dkernel.csv", expect_text("\n".join(dir_rows) + "\n"), pinned=True),
        Step("bipartite-sample", ("sample", "--kind", "bipartite", "-W", "bkernel.txt",
                                  "-n", str(bs[0]), "--n2", str(bs[1]), "--seed", s),
             "bsample.txt", check_bsample),
        Step("bipartite-host", ("density", "--kind", "bipartite", "-F", "K22.txt", "-G", "bhost.txt"),
             "bhost.csv", expect_text(header + bipartite_host_row(b1, b2, bip_edges) + "\n"), pinned=True),
        Step("bipartite-kernel", ("density", "--kind", "bipartite", "-F", "K22.txt", "-W", "bkernel.txt"),
             "bkernel.csv", expect_text("\n".join(bip_rows) + "\n"), pinned=True),
    ]


WORKLOADS: dict[str, Callable[[np.random.Generator, int, Path, dict], list[Step]]] = {
    "host-scale": host_scale,
    "exact-kernel": exact_kernel,
    "prefix-tests": prefix_tests,
    "variants": variants,
}

SIZES = {
    "full": {
        "host_n": 1000, "host_mc": 65536, "trace_grid": (100, 400, 1000), "kernel_mc": 100000,
        "converge_hosts": (35, 60), "ref_blocks": 5, "max_pattern": 4, "density_blocks": 4,
        "exch_blocks": 2, "exch_k": 5, "cut_blocks": 5,
        "sparse": (6, 4000), "two": (5, 50000), "extreme_samples": 1500000,
        "dir_blocks": 5, "dir_sample": 600, "dir_host": 300,
        "bip_sample": (500, 500), "bip_host": (90, 90),
    },
    "tiny": {
        "host_n": 60, "host_mc": 40000, "trace_grid": (10, 30), "kernel_mc": 40000,
        "converge_hosts": (8, 12), "ref_blocks": 2, "max_pattern": 3, "density_blocks": 2,
        "exch_blocks": 2, "exch_k": 3, "cut_blocks": 3,
        "sparse": (4, 2000), "two": (3, 2000), "extreme_samples": 40000,
        "dir_blocks": 2, "dir_sample": 10, "dir_host": 8,
        "bip_sample": (6, 5), "bip_host": (6, 5),
    },
}


def make(workload: str, seed: int, d: Path, size: str = "full") -> list[Step]:
    """Write the workload's inputs for `seed` into d; return its commands."""
    index = list(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[workload](rng, seed, d, SIZES[size])
