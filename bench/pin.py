"""Pin the digests of the exact reports for the default seed.

    python3 bench/pin.py

Runs every workload's pinned commands once at the default seed, checks
them like the benchmark does and writes bench/digests.json. Run it only
when a report format changes on purpose; the benchmark counts a report
whose digest differs from the pinned one as a failed invocation.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import proc
import run
import workloads


def main() -> int:
    pins, problems = {}, []
    run.WORK.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        d = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=run.WORK))
        try:
            for step in workloads.make(name, workloads.DEFAULT_SEED, d):
                if not step.pinned:
                    continue
                result = proc.graphonlab(step.argv(), d)
                data = (d / step.out).read_bytes()
                found = run.exit_problems(step, result) or step.check(d, data.decode("ascii"))
                problems += [f"{name}/{step.name}: {p}" for p in found]
                pins[f"{name}/{step.name}"] = run.digest(data)
        finally:
            shutil.rmtree(d, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    run.DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} reports in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
