#!/usr/bin/env python3
"""Build and run the poce repository benchmark.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the poce
libraries, scserved and the perfbench program from source into .bench_build
(Release); later runs only check that the build is current. The program's
output is passed through: a machine/build record, a metric table with
sample counts, the correctness gates, and as the last line one JSON object
with "correct", "attempted", "failed" and "metrics". The exit code is the
program's: non-zero when a gate or an operation failed.

Workloads and metrics are documented in perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_suite", "serve_read", "serve_edit")


def source_digest(root):
    """A digest of the sources the benchmark builds, standing in for a
    commit id when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def commit_id(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest(root)


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    made = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
         "scserved"],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the repository root (no src/ here)",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir,
           "--bin-dir", os.path.join(build_dir, "poce", "driver"),
           "--commit", commit_id(root)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
