"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_selftest.py

Every metric named in BENCHMARK.json comes out with its unit on every
workload, the traced run reaches the layers each workload is meant to
load, and a report with one digit flipped is counted as a failure.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())

# per-layer counters each workload must move, even at tiny sizes
EXERCISED = {
    "host-scale": ["graphs.parse_calls", "densities.count_calls", "densities.mc_chunks",
                   "rng.chunks", "graphon.sample_calls"],
    "exact-kernel": ["graphs.canon_calls", "graphs.enum_classes", "graphon.contract_calls",
                     "exchangeable.prefix_exact_calls", "exchangeable.class_calls",
                     "graphon.cutnorm_calls"],
    "prefix-tests": ["exchangeable.prefix_draws", "exchangeable.class_calls",
                     "exchangeable.classes_tested", "rng.chunks", "exact.decimal_calls"],
    "variants": ["bipartite.count_calls", "bipartite.contract_terms", "directed.count_calls",
                 "directed.contract_terms"],
}

# (workload, step, line) of reports checked digit by digit, here with
# digests pinned from a clean run; the last digit of that line is flipped
DIGIT_CHECKED = [
    ("host-scale", "density-exact", -1), ("host-scale", "density-mc", -1),
    ("host-scale", "kernel-mc", -1), ("exact-kernel", "density-kernel", -1),
    ("exact-kernel", "cutdist", -1), ("exact-kernel", "converge", -1),
    ("exact-kernel", "test-exchangeable", -2), ("prefix-tests", "exchangeable-sparse", -2),
    ("prefix-tests", "exchangeable-two", -2), ("variants", "directed-host", -1),
    ("variants", "directed-kernel", -1), ("variants", "bipartite-host", -1),
    ("variants", "bipartite-kernel", -1),
]


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_named_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if trace:
        assert all(result["metrics"][name]["value"] > 0 for name in EXERCISED[workload])
    else:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def flip_last_digit(data: bytes, line: int) -> bytes:
    lines = data.decode("ascii").split("\n")[:-1]
    text = lines[line]
    i = max(i for i, c in enumerate(text) if c.isdigit())
    lines[line] = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    return "\n".join(lines + [""]).encode("ascii")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_a_flipped_digit_is_a_failed_invocation(workload):
    run.WORK.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        steps = workloads.make(workload, 0, d, "tiny")
        clean = run.run_pass(steps, d)
        pins = {f"{workload}/{s.name}": run.digest(clean.reports[s.name]) for s in steps if s.pinned}
        tally = run.Tally()
        run.check_pass(clean, steps, d, tally, None, workload, pins)
        assert tally.failed == 0, tally.problems
        for name, line in ((s, i) for w, s, i in DIGIT_CHECKED if w == workload):
            reports = dict(clean.reports, **{name: flip_last_digit(clean.reports[name], line)})
            tally = run.Tally()
            run.check_pass(run.Pass(clean.runs, reports, clean.wall), steps, d, tally, None,
                           workload, pins)
            assert tally.failed == 1 and tally.ok_ratio() < 1, (name, tally.problems)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "variants", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
