#!/usr/bin/env python3
"""Determinism self-test of SMART-Bench.

Usage, from the repository root:

    python3 perfbench/selftest.py [--workloads a,b] [--seeds 1,2]

The workloads default to those of BENCHMARK.json.

For each workload, runs one pass traced with the first seed twice and with
the second seed once. Passes when the two same-seed runs agree exactly on
every deterministic output (total and clock width, Newton iteration,
constraint and respec counts, cache hit/near/miss counts, and every
per-layer count), when the other seed draws a different request plan,
and when every run checks correct. Exits 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Per-layer counts that depend on timing rather than on the inputs.
TIMING_COUNTS = {"trace.spans", "serve.shed", "serve.retries"}


def run(workload, seed):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, res.stderr))
    build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    name = "%s-s%d-t1.json" % (workload, seed)
    record = build / "perfbench" / "runs" / name
    return json.loads(record.read_text())


def exact_outputs(record):
    out = dict(record["deterministic"])
    for name, m in record["per_layer"].items():
        if m["unit"] == "count" and name not in TIMING_COUNTS:
            out[name] = m["value"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1,2")
    args = ap.parse_args()
    seed_a, seed_b = (int(s) for s in args.seeds.split(","))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    ok = True
    for workload in workloads:
        first, again, other = (run(workload, s)
                               for s in (seed_a, seed_a, seed_b))
        problems = []
        for r in (first, again, other):
            if not r["correct"]:
                problems.append("seed %d run not correct: %s" %
                                (r["seed"], r["failures"][:3]))
        a, b = exact_outputs(first), exact_outputs(again)
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                problems.append("%s: %r then %r" % (key, a.get(key),
                                                    b.get(key)))
        if first["plan"] != again["plan"] or first["plan"] == other["plan"]:
            problems.append("plans: same seed must repeat, other seed differ")
        print("%s: %d exact outputs compared, %s" %
              (workload, len(a), "ok" if not problems else "FAILED"))
        for p in problems:
            print("  " + p)
        ok &= not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
