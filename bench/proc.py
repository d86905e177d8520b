"""Child-process runner: wall time and wait4 rusage of one invocation."""
from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def program_env() -> dict[str, str]:
    """Environment for graphonlab children: the package imported from the
    checkout's `src` through an absolute PYTHONPATH, so a child that runs
    in another working directory still finds it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("GRAPHONLAB_THREADS", None)
    env.pop("GRAPHONLAB_TRACE", None)
    return env


@dataclass(frozen=True)
class Run:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


def run(argv: list[str], cwd: Path, env: dict[str, str]) -> Run:
    """Run argv to completion; stdout is discarded, stderr kept."""
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        err_path.read_text(errors="replace"),
    )


def graphonlab(args: list[str], cwd: Path) -> Run:
    return run([sys.executable, "-m", "graphonlab", *args], cwd, program_env())
