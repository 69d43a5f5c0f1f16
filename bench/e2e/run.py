#!/usr/bin/env python3
"""Builds bpar_bench from source, then runs one workload.

Run from the repository root:

    python3 bench/e2e/run.py --workload infer-b1 --seed 1 --seconds 16 --trace 0

The build lives in $CARGO_TARGET_DIR/e2e (default .bench_build/e2e); the
first call configures and compiles the library and the bench (about a
minute on 4 cores), later calls only check that it is up to date. The last
line of standard output is bpar_bench's result JSON. The exit status is
bpar_bench's, or 2 when the build fails or the run overruns its time limit.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_LIMIT_S = 175  # one run, all children included


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "--target", "bpar_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write(f"run.py: build failed (see {log_path})\n")
                sys.exit(2)
    return build_dir / "bpar_bench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "e2e"
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--benchmark-json", str(ROOT / "BENCHMARK.json"),
           "--out-dir", str(build_dir / "out")]
    if args.trace:
        cmd.append("--traced")
    sys.stdout.flush()
    # Own process group, so an overrun or a termination of this script
    # takes every child process with it.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"run.py: bpar_bench overran {RUN_LIMIT_S} s\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
