#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]

Run from the repository root.  It builds the release `qaoa-service` binary and
the `perfbench` binary (a Cargo package of its own in this directory) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs that binary, which
launches the service processes, drives the workload, checks every result and
prints one JSON line last.  Build output goes to stderr.  Workloads, metrics
and their definitions are documented in `src/main.rs` and `src/workloads.rs`.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 175


def build(target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "juliqaoa_service", "--bin", "qaoa-service"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)


def main() -> int:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: no repository sources at {ROOT}", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        build(target)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    work = target / "perfbench-work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--service-bin",
        str(target / "release" / "qaoa-service"),
        "--work-dir",
        str(work),
    ]
    # A process group of its own, so a timeout can stop the benchmark binary and
    # every service process it started with one signal.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
