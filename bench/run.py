"""graphonlab benchmark: one workload, end to end through `python -m graphonlab`.

    python3 bench/run.py --workload host-scale --seed 3 --seconds 20 --trace 0

The load is a closed loop from this one process: it runs the workload's
commands in sequence, each as a fresh child, and never asks for more than
two worker threads. With --trace 0 it runs `--help` (set-up time) and the
commands of the sequence in turn, each followed by a fixed reference
child, until --seconds is used, and prints medians of the end-to-end
metrics: sequence times are the sum over the commands of each command's
median, in reference seconds (see REFERENCE_S). With --trace 1 it
alternates an untraced and a traced pass of the sequence and prints
medians of the per-layer metrics. Every report is checked; a failed
invocation lowers ok_ratio. The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import layers
import proc
import workloads

BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
WORK = BENCH / "_work"

# The speed of a small shared machine drifts by up to half for minutes at a
# time and jitters from second to second. End-to-end times are therefore
# given in reference seconds: each invocation's seconds x REFERENCE_S / the
# mean time of a fixed reference child run just before and just after it.
# The reference imports numpy and runs no graphonlab code, so it does not
# depend on the commit measured.
REFERENCE = "import numpy"
REFERENCE_S = 0.25


class Tally:
    """Invocation counts and the reasons invocations failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def ok_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class Pass:
    """One run of a workload's command sequence."""

    def __init__(self, runs: list[proc.Run], reports: dict[str, bytes], wall: float) -> None:
        self.runs = runs
        self.reports = reports
        self.wall = wall


def read_report(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def run_pass(steps: list[workloads.Step], d: Path, launch=None) -> Pass:
    launch = launch or (lambda _i, argv, cwd: proc.graphonlab(argv, cwd))
    runs, reports = [], {}
    start = time.perf_counter()
    for i, step in enumerate(steps):
        (d / step.out).unlink(missing_ok=True)
        runs.append(launch(i, step.argv(), d))
        reports[step.name] = read_report(d / step.out)
    return Pass(runs, reports, time.perf_counter() - start)


def exit_problems(step: workloads.Step, run: proc.Run) -> list[str]:
    if run.code in step.codes:
        return []
    return [f"exit {run.code}, expected {step.codes}: {run.stderr.strip()[-300:]}"]


def check_step(step: workloads.Step, run: proc.Run, data: bytes, d: Path, tally: Tally,
               reference: bytes | None, workload: str, pins: dict[str, str] | None) -> None:
    """First run of a step: every output check. Later runs: byte-compare
    with the first (same commit, same seed)."""
    problems = exit_problems(step, run)
    if reference is not None:
        if data != reference:
            problems.append("report differs from the first run of the same seed")
    elif not problems:
        try:
            problems += step.check(d, data.decode("ascii"))
        except (ValueError, IndexError, UnicodeDecodeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        key = f"{workload}/{step.name}"
        if pins is not None and step.pinned and pins.get(key) != digest(data):
            problems.append(f"digest {digest(data)[:16]} != pinned {str(pins.get(key))[:16]}")
    tally.record(step.name, problems)


def check_pass(p: Pass, steps, d: Path, tally: Tally, reference: Pass | None,
               workload: str, pins: dict[str, str] | None) -> None:
    for step, run in zip(steps, p.runs):
        check_step(step, run, p.reports[step.name], d, tally,
                   reference.reports[step.name] if reference else None, workload, pins)


def check_threads(steps, d: Path, tally: Tally, reference: dict[str, bytes]) -> None:
    """Chunked commands at the other thread count must match byte for byte."""
    for step in steps:
        if step.threads is None:
            continue
        other = 1 if step.threads != 1 else 2
        out = f"threads{other}_{step.out}"
        run = proc.graphonlab(step.argv(threads=other, out=out), d)
        problems = exit_problems(step, run)
        if read_report(d / out) != reference[step.name]:
            problems.append(f"--threads {other} report differs from --threads {step.threads}")
        tally.record(f"{step.name}@threads{other}", problems)


def help_run(d: Path, tally: Tally) -> proc.Run:
    run = proc.graphonlab(["--help"], d)
    tally.record("--help", [] if run.code == 0 else [f"--help exit {run.code}"])
    return run


def reference_run(d: Path) -> proc.Run:
    """The fixed reference child; it runs no graphonlab code."""
    run = proc.run([sys.executable, "-c", REFERENCE], d, proc.program_env())
    if run.code != 0:
        raise RuntimeError(f"reference child failed: {run.stderr.strip()[-300:]}")
    return run


def timed_loop(steps, d: Path, tally: Tally, seconds: float, workload: str, pins) -> tuple[dict, dict]:
    """`--help` (twice a round) and the commands of the sequence in turn,
    one invocation at a time, each followed by the reference child, until
    the next one would end after `seconds` (each at least twice). An
    invocation's times are scaled by the reference runs on either side of
    it; medians per command, summed over the sequence."""
    start = time.perf_counter()
    samples: dict[int, list[tuple[float, float, float, float]]] = {i: [] for i in range(-1, len(steps))}
    first: dict[str, bytes] = {}
    half = (len(steps) + 1) // 2
    order = [-1, *range(half), -1, *range(half, len(steps))]  # -1: `--help`, twice a round
    before = reference_run(d)
    for i in itertools.cycle(order):
        enough = min(len(v) for v in samples.values()) >= 2
        next_s = statistics.median(s[3] for s in samples[i]) if samples[i] else 0.0
        if enough and time.perf_counter() - start + next_s > seconds:
            break
        if i < 0:
            run = help_run(d, tally)
        else:
            step = steps[i]
            (d / step.out).unlink(missing_ok=True)
            run = proc.graphonlab(step.argv(), d)
            data = read_report(d / step.out)
            check_step(step, run, data, d, tally, first.get(step.name), workload, pins)
            first.setdefault(step.name, data)
        after = reference_run(d)
        wall = 2 * REFERENCE_S / (before.wall_s + after.wall_s)
        cpu = 2 * REFERENCE_S / (before.cpu_s + after.cpu_s)
        samples[i].append((run.wall_s * wall, run.cpu_s * cpu, run.maxrss_mb,
                           run.wall_s + after.wall_s))
        before = after

    def median(i: int, k: int) -> float:
        return statistics.median(s[k] for s in samples[i])

    return {
        "setup_s": median(-1, 0),
        "run_s": sum(median(i, 0) for i in range(len(steps))),
        "cpu_s": sum(median(i, 1) for i in range(len(steps))),
        "peak_rss_mb": max(median(i, 2) for i in range(len(steps))),
    }, first


def traced_pass(steps, d: Path, tally: Tally, plain: Pass) -> dict[str, float]:
    """Every command again in a fresh traced child; reports must be the
    bytes of the untraced pass."""
    spans = d / "spans.jsonl"
    spans.unlink(missing_ok=True)
    traced = run_pass(steps, d, lambda i, argv, cwd: layers.traced_run(i, argv, cwd, spans))
    for step, run in zip(steps, traced.runs):
        problems = exit_problems(step, run)
        if traced.reports[step.name] != plain.reports[step.name]:
            problems.append("report with tracing on differs from tracing off")
        tally.record(f"{step.name}@traced", problems)
    metrics = layers.aggregate(spans, traced.runs)
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    return metrics


def traced_loop(steps, d: Path, tally: Tally, seconds: float, workload: str, pins) -> tuple[dict, dict]:
    """Alternate untraced and traced passes for `seconds` (at least one pair);
    medians of the per-layer metrics."""
    samples: list[dict] = []
    first: Pass | None = None
    start = time.perf_counter()
    while True:
        plain = run_pass(steps, d)
        check_pass(plain, steps, d, tally, first, workload, pins)
        first = first or plain
        samples.append(traced_pass(steps, d, tally, plain))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(samples) > seconds:
            break
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}, first.reports


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[Tally, dict]:
    WORK.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        steps = workloads.make(workload, seed, d, size)
        pins = pinned_digests() if seed == workloads.DEFAULT_SEED and size == "full" else None
        tally = Tally()
        loop = traced_loop if trace else timed_loop
        result, first = loop(steps, d, tally, seconds, workload, pins)
        check_threads(steps, d, tally, first)
        result["ok_ratio"] = tally.ok_ratio()
        return tally, result
    finally:
        shutil.rmtree(d, ignore_errors=True)


def emit(spec: dict, trace: bool, tally: Tally, values: dict) -> dict:
    names = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    spec_path = BENCH.parent / "BENCHMARK.json"
    if not (proc.SRC / "graphonlab" / "__main__.py").is_file() or not spec_path.is_file():
        print(f"no graphonlab sources under {proc.SRC} (or no BENCHMARK.json): nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    tally, values = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(emit(spec, bool(args.trace), tally, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
