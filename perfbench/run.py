#!/usr/bin/env python3
"""SMART-Bench: build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload adder64_sweep --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which pulls in ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the smart_bench binary. Build
output goes to stderr; stdout is the benchmark's report, and its last line
is the result JSON. Exits non-zero, printing no result, when the SMART
sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("adder64_sweep", "macro_iso_mix", "serve_replay")
BUILD_TYPE = "Release"


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(root) / "perfbench"


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "smart_bench"],
                   check=True, stdout=sys.stderr)
    return out / "smart_bench"


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: SMART sources not found under %s" % ROOT)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    res = subprocess.run([
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        # Relative, so the server's Unix socket path stays short.
        "--work-dir", os.path.relpath(build_dir()), "--git-sha", git_sha(),
        "--source-digest", source_digest(), "--build-type", BUILD_TYPE])
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
