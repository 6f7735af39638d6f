#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload mine-cold --seed 1 --trace 0

Configures perfbench/CMakeLists.txt (the library sources one directory up
plus the benchmark) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, builds it, and runs one workload. The last line of
stdout is the result object; build output goes to stderr. Exits non-zero
without a result when the sources are missing, the build fails, a reply
differs from the oracle, or the workload leaves its shape.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "lash_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "lash_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mine-cold", "serve-hot", "router-count"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found next to perfbench/; the "
                  "benchmark builds the library from the repository sources",
                  file=sys.stderr)
            return 2

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    data_dir = os.path.join(build_dir, "runs", f"{tag}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data-dir", data_dir]
    measure = [binary, "measure", *common, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        measure += ["--trace-out", os.path.join(trace_dir, f"{tag}.jsonl")]
    sys.stdout.flush()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        # Two processes: the measuring one never holds the generated corpus.
        for command in ([binary, "prepare", *common], measure):
            timeout = max(1.0, deadline - time.monotonic())
            code = subprocess.run(command, timeout=timeout).returncode
            if code != 0:
                return code
        return 0
    except subprocess.TimeoutExpired:
        print(f"run.py: a step exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
