"""Command-line surface: one binary, deterministic output given a seed.

Subcommands: density, sample, converge, test-exchangeable, test-extreme,
cutdist, trace-martingale. Exit codes: 0 success, 1 rejected test
verdict, 2 input error, 3 capacity, 4 internal fault.
Randomized commands are byte-reproducible for a fixed --seed regardless
of --threads.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import CapacityError, InputError, InvariantError
from .exact import content_lines, fraction_to_decimal, parse_line, read_text, to_fraction

# Each command imports the modules it runs when it runs, so `--help` loads
# no numpy and a command loads no module it does not use.
DEC = fraction_to_decimal


def _stem(path: str) -> str:
    return Path(path).stem


def load_source(path: str) -> GraphSource:
    """Source file: 'wrandom FILE', read as the one mixture line '1 FILE', or
    'mixture' followed by 'WEIGHT FILE' lines. Kernel paths resolve
    relative to the source file."""
    from .exchangeable import GraphSource
    from .graphon import read_step_graphon

    base = Path(path).parent
    lines = [ln.strip() for ln in content_lines(read_text(path)) if not ln.strip().startswith("#")]
    if not lines:
        raise InputError(f"empty source file {path}")
    kind, *rest = lines[0].split()
    if kind == "wrandom":
        if len(rest) != 1 or len(lines) != 1:
            raise InputError("wrandom source takes exactly one kernel file")
        lines = [f"1 {rest[0]}"]
    elif kind == "mixture":
        if rest:
            raise InputError(f"mixture header takes no tokens, got {' '.join(rest)!r}")
        lines = lines[1:]
        if not lines:
            raise InputError("mixture source needs at least one component")
    else:
        raise InputError(f"unknown source kind {kind!r}")
    parts = []
    for ln in lines:
        toks = ln.split()
        if len(toks) != 2:
            raise InputError(f"bad mixture line {ln!r}")
        parts.append((to_fraction(toks[0]), read_step_graphon(str(base / toks[1]))))
    return GraphSource.mixture(parts)


def load_pairs(path: str) -> list[PatternPair]:
    """Pattern-pair file: one pair per line, 'u-v u-v ... | u-v ...'."""
    from .exchangeable import PatternPair

    pairs = []
    for ln in read_text(path).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        halves = ln.split("|")
        if len(halves) != 2:
            raise InputError(f"pair line {ln!r} needs exactly one '|'")
        sides = []
        for half in halves:
            edges = []
            for tok in half.split():
                try:
                    u, v = (int(x) for x in tok.split("-"))
                except ValueError as exc:
                    raise InputError(f"bad edge token {tok!r} in pair line {ln!r}") from exc
                edges.append((u, v))
            sides.append(tuple(edges))
        pairs.append(PatternPair(sides[0], sides[1]))
    if not pairs:
        raise InputError(f"no pattern pairs in {path}")
    return pairs


ROW_STRIDE = 1 << 20  # stream indices per CSV row; chunks never collide


def _mc_row(chunk_sum, samples: int, seed: int, threads: int, row: int) -> DensityEstimate:
    """Mean of chunk_sum(index, count, rng) over fixed chunks of the row's streams."""
    from .densities import DensityEstimate, hoeffding_halfwidth
    from .rng import run_chunked

    parts = run_chunked(chunk_sum, samples, seed, threads, stream_base=row * ROW_STRIDE)
    return DensityEstimate(sum(parts) / samples, samples, hoeffding_halfwidth(samples))


def _density_row(kind: str, kernel: bool) -> tuple:
    """The pattern class of a kind, then for its host graphs (or, with
    `kernel`, for its kernels): class, t, t_inj (None: t), t_ind, bound
    (None: 0), Monte Carlo t sum (None: no --mc). Only that row's modules
    are imported."""
    if kind == "bipartite":
        from .bipartite import (BipartiteGraph, BipartiteKernel, bip_exact_density, bip_exact_ind_density,
                                bip_sampling_bound, bip_t, bip_t_ind, bip_t_inj)

        return BipartiteGraph, (
            (BipartiteKernel, bip_exact_density, None, bip_exact_ind_density, None, None) if kernel
            else (BipartiteGraph, bip_t, bip_t_inj, bip_t_ind, bip_sampling_bound, None))
    if kind == "directed":
        from .densities import sampling_bound
        from .directed import (DirectedGraph, DirectedKernelQuintuple, directed_t, directed_t_ind,
                               directed_t_inj)

        return DirectedGraph, (
            (DirectedKernelQuintuple, directed_t, None, directed_t_ind, None, None) if kernel
            else (DirectedGraph, directed_t, directed_t_inj, directed_t_ind, sampling_bound, None))
    from .graphs import LabelledGraph

    if kernel:
        from .graphon import StepGraphon, exact_density, exact_ind_density, mc_density_product_sum

        return LabelledGraph, (StepGraphon, exact_density, None, exact_ind_density, None,
                               mc_density_product_sum)
    from .densities import mc_containment_hits, sampling_bound, t, t_ind, t_inj

    return LabelledGraph, (LabelledGraph, t, t_inj, t_ind, sampling_bound, mc_containment_hits)


def cmd_density(args) -> tuple[list[str], int]:
    if not args.patterns:
        raise InputError("density needs at least one -F pattern file")
    if bool(args.hosts) == bool(args.kernel):
        raise InputError("density needs -G host files or a -W kernel, not both")
    mc = args.mc
    pattern_cls, row = _density_row(args.kind, bool(args.kernel))
    cls, t_of, inj_of, ind_of, bound_of, mc_sum = row
    if mc is not None and mc_sum is None:
        raise InputError("--mc is only available for simple graphs and kernels")
    patterns = [(_stem(p), pattern_cls.from_text(read_text(p))) for p in args.patterns]
    lines = ["pattern_id,host_id,t,t_inj,t_ind,bound,bound_check" + ("" if mc is None else ",hoeffding_halfwidth")]
    for path in args.hosts or [args.kernel]:
        host = cls.from_text(read_text(path))
        for pid, pat in patterns:
            complete, tiv, halfwidth = pat.is_complete(), None, None  # complete: t_ind = t_inj in every kind
            if mc is not None:
                est = _mc_row(lambda _i, count, gen: mc_sum(pat, host, count, gen),
                              mc, args.seed, args.threads, row=len(lines) - 1)
                tv, halfwidth = to_fraction(est.point), est.confidence_halfwidth
            elif complete and inj_of and args.kind == "simple":  # no loops: every hom of K_k is injective
                tiv = inj_of(pat, host)
                tv = tiv * Fraction(math.perm(host.n, pat.n), host.n ** pat.n)
            else:
                tv = t_of(pat, host)
            tiv = tv if inj_of is None else inj_of(pat, host) if tiv is None else tiv
            tdv = tiv if complete and (inj_of or mc is None) else ind_of(pat, host)  # when tiv is exact
            bound = Fraction(0) if bound_of is None else bound_of(pat, host)
            cells = [pid, _stem(path), DEC(tv), DEC(tiv), DEC(tdv), DEC(bound),
                     "bound_ok" if abs(tv - tiv) <= bound else "bound_violated"]
            lines.append(",".join(cells + ([] if mc is None else [DEC(halfwidth)])))
    return lines, 0


def cmd_sample(args) -> tuple[str, int]:  # the edge-list text whole, not split into lines
    from .graphs import check_host_size
    from .rng import stream

    if (args.n2 is None) == (args.kind == "bipartite"):
        raise InputError("--n2 is needed for bipartite sampling and taken by no other kind")
    check_host_size(*(n for n in (args.n, args.n2) if n is not None))
    rng = stream(args.seed, 0)
    if args.kind == "simple":
        from .graphon import read_step_graphon, sample_w_random

        w = read_step_graphon(args.kernel)
        text = sample_w_random(w, args.n, rng).to_text()
    elif args.kind == "bipartite":
        from .bipartite import BipartiteKernel, sample_bip_w_random

        w = BipartiteKernel.from_text(read_text(args.kernel))
        text = sample_bip_w_random(w, args.n, args.n2, rng).to_text()
    else:
        from .directed import DirectedKernelQuintuple, sample_directed

        w = DirectedKernelQuintuple.from_text(read_text(args.kernel))
        text = sample_directed(w, args.n, rng).to_text()
    return text, 0


def cmd_converge(args) -> tuple[list[str], int]:
    from .densities import DensityVector, TauPlus, metric_d, tau_plus
    from .graphs import enumerate_unlabelled, read_graph

    if not args.graphs:
        raise InputError("converge needs at least one -G graph file")
    if args.ref and args.ref_graphon:
        raise InputError("converge takes --ref or --ref-graphon, not both")
    enum = enumerate_unlabelled(args.max_pattern)
    if args.ref_graphon:
        from .graphon import exact_density, read_step_graphon

        w = read_step_graphon(args.ref_graphon)
        ref = TauPlus(
            DensityVector(enum, tuple(exact_density(f, w) for f in enum.graphs)), Fraction(0)
        )
        ref_id = _stem(args.ref_graphon)
    else:
        ref_path = args.ref if args.ref else args.graphs[-1]
        ref = tau_plus(read_graph(ref_path), enum)
        ref_id = _stem(ref_path)
    lines = [f"# reference: {ref_id}", "graph_id,d"]
    for path in args.graphs:
        emb = tau_plus(read_graph(path), enum)
        lines.append(f"{_stem(path)},{DEC(metric_d(emb, ref))}")
    return lines, 0


def cmd_test_exchangeable(args) -> tuple[list[str], int]:
    from .exchangeable import (check_alpha, check_class_size, exchangeability_test, prefix_law_empirical,
                               prefix_law_exact)
    from .rng import stream

    check_class_size(args.k)  # both before any law is sampled or summed
    check_alpha(args.alpha)
    src = load_source(args.src)
    if args.samples is not None:
        law = prefix_law_empirical(src, args.k, args.samples, stream(args.seed, 0))
    else:
        if len(src.components) != 1:
            raise InputError("exact mode needs a single step-graphon source")
        law = prefix_law_exact(src.components[0][1], args.k)
    verdict = exchangeability_test(law, args.alpha)
    lines = ["class_code,cells,count,probability"]
    # one row per class, keyed by its smallest code, in order of its smallest support code
    for members in sorted(law.classes, key=lambda ms: min(filter(law.mass.__contains__, ms))):
        mass = sum(law.mass.get(m, 0) for m in members)
        count = mass if law.is_empirical else ""
        lines.append(f"{min(members)},{len(members)},{count},{DEC(Fraction(mass, law.total))}")
    p_txt = "" if verdict.p_min is None else format(verdict.p_min, ".6g")
    if verdict.consistent:
        lines.append(f"VERDICT consistent p_min={p_txt}")
        return lines, 0
    lines.append(f"VERDICT rejected p_min={p_txt} detail={verdict.detail!r}")
    return lines, 1


def cmd_test_extreme(args) -> tuple[list[str], int]:
    from .exchangeable import extremality_test

    src = load_source(args.src)
    pairs = load_pairs(args.pairs)
    verdict = extremality_test(
        src, pairs, args.samples, args.alpha,
        seed=args.seed, threads=args.threads,
    )
    lines = ["pair_id,p1,p2,p12,z,p_value"]
    for i, s in enumerate(verdict.pair_stats):
        lines.append(
            f"{i},{DEC(s.p1)},{DEC(s.p2)},{DEC(s.p12)},{format(s.z, '.6g')},{format(s.p_value, '.6g')}"
        )
    label = "extreme-consistent" if verdict.extreme_consistent else "non-extreme"
    lines.append(f"VERDICT {label} p_min={format(verdict.p_min, '.6g')}")
    return lines, 0 if verdict.extreme_consistent else 1


def cmd_cutdist(args) -> tuple[list[str], int]:
    from .graphon import cut_distance_upper, read_step_graphon

    w1 = read_step_graphon(args.kernel)
    w2 = read_step_graphon(args.kernel2)
    val = cut_distance_upper(w1, w2)
    return [f"METRIC cutdist_upper={DEC(val)}"], 0


def cmd_trace_martingale(args) -> tuple[list[str], int]:
    from .exchangeable import martingale_trace
    from .graphs import read_graph
    from .rng import stream

    src = load_source(args.src)
    pattern = read_graph(args.pattern)
    grid = parse_line(args.grid.replace(",", " "), "a comma-separated grid",
                      args.grid.count(",") + 1, int)
    trace = martingale_trace(src, pattern, grid, stream(args.seed, 0))
    lines = ["n,t_ind"]
    lines += [f"{n},{DEC(x)}" for n, x in zip(grid, trace)]
    return lines, 0


def _at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _non_negative(text: str) -> int:
    return _at_least(text, 0)


def _positive(text: str) -> int:
    return _at_least(text, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphonlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn, seeded=True):  # the options every command shares, and the command it runs
        p.add_argument("-o", "--output", help="write the report here instead of stdout")
        if seeded:
            p.add_argument("--seed", type=_non_negative, default=0)
            p.add_argument("--threads", type=int, default=None,
                           help="worker cap; results do not depend on it")
        p.set_defaults(fn=fn)

    p = sub.add_parser("density", help="pattern densities against hosts or a kernel")
    p.add_argument("-F", dest="patterns", action="append", default=[], metavar="PATTERN")
    p.add_argument("-G", dest="hosts", action="append", default=[], metavar="HOST")
    p.add_argument("-W", dest="kernel", metavar="KERNEL")
    p.add_argument("--kind", choices=["simple", "bipartite", "directed"], default="simple")
    p.add_argument("--mc", "--samples", dest="mc", type=_positive, default=None, metavar="N",
                   help="Monte Carlo samples instead of exact t")
    common(p, cmd_density)

    p = sub.add_parser("sample", help="draw one W-random graph")
    p.add_argument("-W", dest="kernel", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--n2", type=int, default=None, help="second part size (bipartite)")
    p.add_argument("--kind", choices=["simple", "bipartite", "directed"], default="simple")
    common(p, cmd_sample)

    p = sub.add_parser("converge", help="metric distance of graph embeddings to a reference")
    p.add_argument("-G", dest="graphs", action="append", default=[], metavar="GRAPH")
    p.add_argument("--ref", default=None, help="reference graph file (default: last -G)")
    p.add_argument("--ref-graphon", default=None, help="step-graphon reference instead")
    p.add_argument("--max-pattern", type=int, default=3,
                   help="enumeration depth; exact counting of dense 4/5-vertex "
                        "patterns is slow on hosts beyond a few hundred vertices")
    common(p, cmd_converge, seeded=False)

    p = sub.add_parser("test-exchangeable", help="isomorphism-class homogeneity of a prefix law")
    p.add_argument("-src", dest="src", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--samples", type=_positive, default=None,
                   help="empirical mode sample count (omit for exact mode)")
    p.add_argument("--alpha", type=float, default=0.01)
    common(p, cmd_test_exchangeable)

    p = sub.add_parser("test-extreme", help="product-criterion extremality test")
    p.add_argument("-src", dest="src", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.01)
    common(p, cmd_test_extreme)

    p = sub.add_parser("cutdist", help="cut-distance upper bound between step graphons")
    p.add_argument("-W", dest="kernel", required=True)
    p.add_argument("-W2", dest="kernel2", required=True)
    common(p, cmd_cutdist, seeded=False)

    p = sub.add_parser("trace-martingale", help="induced-density trace along one nested prefix")
    p.add_argument("-src", dest="src", required=True)
    p.add_argument("-F", dest="pattern", required=True)
    p.add_argument("--grid", required=True, help="comma-separated prefix sizes")
    common(p, cmd_trace_martingale)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "threads" in vars(args):  # a seeded command
            from .rng import thread_count

            args.threads = thread_count(args.threads)
        report, code = args.fn(args)  # report lines, or a report's whole text
        text = report if isinstance(report, str) else "\n".join(report) + "\n"
        if args.output:
            try:
                with open(args.output, "w", encoding="ascii", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a fault in the program, not in its input
        import traceback  # here, so that no run that succeeds loads it
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    if not args.output:
        sys.stdout.write(text)
    return code


# BLAS thread-count variables: the CLI sets them to 1 unless the user set one
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def entry() -> None:
    """The `graphonlab` script and `python -m graphonlab`. Before any command
    imports numpy it pins BLAS to one thread, unless the user set one of
    BLAS_THREADS: --threads is the CLI's one pool, and an idle OpenBLAS worker
    would spin on a second core through every run."""
    if not any(name in os.environ for name in BLAS_THREADS):
        os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    sys.exit(main())


if __name__ == "__main__":
    entry()
