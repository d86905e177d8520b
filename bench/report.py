"""Every benchmark metric, by name and unit, with the delta to the last record.

    python3 bench/report.py [--seed 0] [--seconds 20] [--workload NAME ...]

Runs bench/run.py untraced (end-to-end metrics) and traced (per-layer
metrics) on each workload, prints one line per metric, and records the
result with the git commit, nproc and the Python, numpy and scipy
versions in bench/records/. Each line carries the change against the
most recent earlier record of the same workload and metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
RECORDS = BENCH / "records"


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.strip().splitlines()[-1])


def previous_record() -> dict | None:
    records = sorted(RECORDS.glob("*.json")) if RECORDS.is_dir() else []
    return json.loads(records[-1].read_text()) if records else None


def delta(name: str, metric: str, value: float, prev: dict | None) -> str:
    try:
        old = prev["results"][name]["metrics"][metric]["value"]
    except (KeyError, TypeError):
        return ""
    if old == 0:
        return "(was 0)" if value else ""
    return f"({(value - old) / abs(old):+.1%} vs {prev['meta']['git_sha'][:10]})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    prev = previous_record()
    meta = {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "seed": args.seed, "seconds": seconds, "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    results = {}
    for name in names:
        plain = run_workload(name, args.seed, seconds, 0)
        traced = run_workload(name, args.seed, seconds, 1)
        results[name] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": {**plain["metrics"], **traced["metrics"]},
        }
        print(f"{name}: attempted={results[name]['attempted']} failed={results[name]['failed']}")
        for metric, m in results[name]["metrics"].items():
            print(f"  {metric:36s} {m['value']:>16.6g} {m['unit']:6s} {delta(name, metric, m['value'], prev)}")
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{meta['utc'].replace(':', '')}-{meta['git_sha'][:10]}.json"
    path.write_text(json.dumps({"meta": meta, "results": results}, indent=1) + "\n")
    print(f"recorded {path.relative_to(BENCH.parent)}")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
