#!/usr/bin/env python3
"""Build and run the paper-scale benchmark (perfbench/perfbench.cpp).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cal --seed 1 --seconds 45 --trace 0

The benchmark is built in Release mode with CMake from the checkout's own
sources into $CARGO_TARGET_DIR (default .bench_build). Graph caches, the
pinned source lists and trace files go to <build dir>/perfbench-data;
they are made once, in a separate process before the measured run. The
last line of stdout is the benchmark's JSON result; build output goes
to stderr. The exit code is the benchmark's (0 ok, 1 a wrong answer), or 2
when the build or the preparation fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cal", "wiki")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run_logged(cmd, cwd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns its path or None."""
    source = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no tunesssp sources next to perfbench/",
              file=sys.stderr)
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure, root):
            return None
    # Capped: each compiler process takes a few hundred MB at -O3.
    jobs = str(min(os.cpu_count() or 1, 8))
    if not run_logged(["cmake", "--build", str(build_dir), "--target",
                       "perfbench", "-j", jobs], root):
        return None
    return build_dir / "perfbench"


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    data_dir = str(build_dir / "perfbench-data")
    workload = ["--workload", args.workload, "--data-dir", data_dir]
    if not run_logged([str(binary), "--prepare", "1"] + workload, root):
        print("perfbench: preparing the graph caches failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    result = subprocess.run(
        [str(binary), "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace)] + workload,
        cwd=root)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
