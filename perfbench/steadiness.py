#!/usr/bin/env python3
"""Steadiness report: two sets of SMART-Bench runs of the same build.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--traced 1]

Runs `--runs` untraced runs per set and workload, a different seed for
every run, interleaving the two sets run by run. For every workload and
end-to-end metric of BENCHMARK.json it prints each set's median and
quartiles, the spread (interquartile range over median) of each set and of
both pooled, and the metric's bound, and flags a spread above the bound
(setup_s excepted) or a second-set median worse than the first by more
than the bound. With
`--traced N` it also makes N traced runs per workload and prints the
tracing overhead: traced against untraced median sizings_per_s and
latency_p50_ms. Every result line is appended to
$CARGO_TARGET_DIR/perfbench/steadiness.jsonl (default .bench_build).
Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
HEADER = "  %-16s %-6s %12s %12s %12s %7s %7s %7s %7s %6s"
ROW = "  %-16s %-6s %12.6g %12.6g %12.6g %7.4f %7s %7s %7.3f %6s"


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    res = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d): %s" % (workload, seed,
                                                  res.stderr[-2000:]))
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    log = (Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) /
           "perfbench" / "steadiness.jsonl")
    log.parent.mkdir(parents=True, exist_ok=True)
    seconds = spec["run_seconds"]
    flagged = False
    for workload in workloads:
        sets = ([], [])
        for i in range(args.runs):
            for s in (0, 1):
                seed = args.seed_base + i + s * args.runs
                r = run_once(workload, seed, seconds, 0)
                r.update(workload=workload, set=s, seed=seed)
                with log.open("a") as f:
                    f.write(json.dumps(r) + "\n")
                if not r["correct"] or r["failed"]:
                    print("  INCORRECT run: %s seed %d" % (workload, r["seed"]))
                    flagged = True
                sets[s].append(r)
        walls = [r["wall_s"] for r in sets[0] + sets[1]]
        print("%s: %d+%d runs, %.1f-%.1f s each" %
              (workload, args.runs, args.runs, min(walls), max(walls)))
        print(HEADER % ("metric", "unit", "median", "q1", "q3", "spread",
                        "pooled", "shift", "bound", "flag"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            pooled = spread([r["metrics"][name]["value"]
                             for r in sets[0] + sets[1]])[3]
            med1, med2 = stats[0][0], stats[1][0]
            worse = (med2 - med1) if m["better"] == "lower" else (med1 - med2)
            shift = worse / med1 if med1 else 0.0
            flags = []
            for s, sp in enumerate([st[3] for st in stats] + [pooled]):
                if sp > bound and name != "setup_s":
                    flags.append(("spread%d" % (s + 1)) if s < 2 else "pooled")
            if shift > bound:
                flags.append("shift")
            flagged |= bool(flags)
            for s, (med, q1, q3, sp) in enumerate(stats):
                print(ROW % (name if s == 0 else "", m["unit"] if s == 0 else "",
                             med, q1, q3, sp, "%.4f" % pooled if s else "",
                             "%.4f" % shift if s else "", bound,
                             ",".join(flags) if s else ""))
        if args.traced:
            traced = [run_once(workload, args.seed_base + i, seconds, 1)
                      for i in range(args.traced)]
            for r in traced:
                with log.open("a") as f:
                    f.write(json.dumps(dict(r, workload=workload, set="traced"))
                            + "\n")
            for key, e2e in (("trace.sizings_per_s", "sizings_per_s"),
                             ("trace.latency_p50_ms", "latency_p50_ms")):
                t = statistics.median(r["metrics"][key]["value"]
                                      for r in traced)
                u = statistics.median(r["metrics"][e2e]["value"]
                                      for r in sets[0] + sets[1])
                print("  tracing overhead %-16s traced %.6g untraced %.6g "
                      "(%+.2f%%)" % (e2e, t, u, 100.0 * (t / u - 1.0)))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
