#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json repeatedly, one seed per run,
alternating the workload order from run to run, in one or more sets.
For each set and each end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(n=4)) and the spread
(Q3 - Q1) / median against the metric's bound; across sets it prints how
far each median moved in the metric's worse direction, again against the
bound, and the share of failed operations of every run.

    python3 perfbench/steady.py                     # 2 sets x 10 runs
    python3 perfbench/steady.py --runs 5 --sets 1 --workload periodic_refresh

Run from the repository root. The command, the run length, the workloads
and the bounds all come from BENCHMARK.json. Exits 1 when a spread exceeds
its bound, a median moves by more than its bound, a run fails or the
failed share differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["took_s"] = took
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run")
    ap.add_argument("--workload", action="append", default=None)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    e2e = bench["end_to_end"]
    command = bench["command"]

    # sets[s][workload] -> list of result objects
    sets = []
    seed = opts.seed0
    for s in range(opts.sets):
        got = {w: [] for w in workloads}
        for r in range(opts.runs):
            order = workloads if r % 2 == 0 else list(reversed(workloads))
            for w in order:
                res = run_once(command, w, seed, seconds)
                got[w].append(res)
                print(f"set {s} run {r} {w} seed {seed}: took {res['took_s']:.1f}s "
                      f"attempted {res['attempted']} failed {res['failed']}",
                      file=sys.stderr, flush=True)
            seed += 1
        sets.append(got)

    bad = []
    for w in workloads:
        print(f"\n== {w} ==")
        shares = set()
        for s, got in enumerate(sets):
            for res in got[w]:
                if not res["correct"]:
                    bad.append(f"{w}: a run reported correct=false")
                shares.add(res["failed"] / res["attempted"])
        print(f"failed share per run: {sorted(shares)}")
        if len(shares) != 1:
            bad.append(f"{w}: failed share differs between runs")
        print(f"{'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  spread/bound")
        for m in e2e:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, got in enumerate(sets):
                vals = [res["metrics"][name]["value"] for res in got[w]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = ""
                if spread > bound:
                    flag = "  OVER"
                    bad.append(f"{w} {name}: spread {spread:.3f} > bound {bound}")
                print(f"{name:<16} {s:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound:>6}  {spread / bound:.2f}{flag}")
            for s in range(1, len(medians)):
                worse = (medians[s] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "  OVER" if worse > bound else ""
                if flag:
                    bad.append(f"{w} {name}: set {s} median worse by {worse:.3f}")
                print(f"{'':<16} set {s} vs 0: worse by {worse:+.4f} "
                      f"(bound {bound}){flag}")
    if bad:
        print("\nNOT STEADY:")
        for b in bad:
            print("  " + b)
        return 1
    print("\nsteady: every spread and median shift is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
