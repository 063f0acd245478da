#!/usr/bin/env python3
"""Steadiness check for the SMN replay benchmark.

Run from the root of a checkout:

    python3 perfbench/steady.py run --runs 10 --save A.json
    python3 perfbench/steady.py run --runs 10 --first-seed 101 --save B.json
    python3 perfbench/steady.py compare A.json B.json

`run` runs every workload --runs times, alternating workloads, each run with
its own seed, and prints for each end-to-end metric the median, quartiles,
min/max and the quartile spread (q3 - q1) / median next to the metric's bound
in BENCHMARK.json. `compare` checks a second set of runs against a first:
the change of each median in the worse direction must stay within the bound,
and the share of failed operations must be the same.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(path):
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def print_set(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in results.items():
        print(f"== {workload}: {len(runs)} runs, "
              f"{sum(r['wall_s'] for r in runs) / len(runs):.1f} s per run, "
              f"failed share {failed_share(runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarize(values)
            unit = runs[0]["metrics"][name]["unit"]
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {s['median']:.6g} {unit:7s} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} min {s['min']:.6g} max {s['max']:.6g} "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}")
        if not all(r["correct"] for r in runs):
            print("  INCORRECT RUNS:", [r["seed"] for r in runs if not r["correct"]])


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return f"{sum(r['failed'] for r in runs)}/{attempted}"


def cmd_run(args):
    spec = load_spec(args.spec)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.first_seed + i, seconds, 0)
            results[w].append(r)
            print(f"{w} seed {r['seed']}: {r['wall_s']:.1f} s, correct={r['correct']}",
                  file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    print_set(spec, results)


def cmd_compare(args):
    spec = load_spec(args.spec)
    with open(args.first) as f:
        first = json.load(f)
    with open(args.second) as f:
        second = json.load(f)
    ok = True
    for workload in first:
        a, b = first[workload], second.get(workload, [])
        if not b:
            continue
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"== {workload}: failed share {share_a:.6g} vs {share_b:.6g}"
              f"{'' if share_a == share_b else '  <-- differs'}")
        ok = ok and share_a == share_b
        for m in spec["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "" if worse <= m["bound"] else "  <-- worse than bound"
            ok = ok and worse <= m["bound"]
            print(f"  {m['name']:16s} {ma:.6g} -> {mb:.6g} {m['unit']:7s} "
                  f"worse by {worse:+.3f} (bound {m['bound']}){flag}")
    print("sets agree within bounds" if ok else "SETS DISAGREE")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--spec", default="BENCHMARK.json")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload several times")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--save")
    cmp = sub.add_parser("compare", help="compare two saved sets of runs")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    if args.command == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
