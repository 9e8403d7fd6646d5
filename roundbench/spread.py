#!/usr/bin/env python3
"""Run the benchmark on several seeds and judge its spread against the
bounds in BENCHMARK.json; optionally compare with an earlier set.

    python3 roundbench/spread.py [--workload NAME ...] [--runs 10]
        [--first-seed 1] [--out runs.jsonl] [--against earlier.jsonl]

Run from the repository root. Every run is untraced and measures for
BENCHMARK.json's `run_seconds`, so two sets always share a run length.
Each run is recorded as one JSON line holding its workload, seed, `env`
line and result. For every end-to-end metric the script prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), and the spread (Q3 - Q1) / median
against the metric's bound. With `--against`, medians are compared with
the earlier set, which must come from the same NTT backend, allocator
and core count: results of different programs are refused.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Environment fields two result sets must share to be comparable.
SAME_PROGRAM = ("ntt_backend", "tracking_alloc", "nproc", "parallelism")


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return {"workload": workload, "seed": seed, "env": env, "result": json.loads(lines[-1])}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    runs = []
    for w in workloads:
        for i in range(args.runs):
            r = run_once(bench, w, args.first_seed + i)
            runs.append(r)
            print(f"ran {w} seed {r['seed']}: correct={r['result']['correct']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            for r in runs:
                f.write(json.dumps(r) + "\n")

    earlier = []
    if args.against:
        with open(args.against) as f:
            earlier = [json.loads(l) for l in f if l.strip()]
        for key in SAME_PROGRAM:
            seen = {json.dumps(r["env"].get(key)) for r in runs + earlier}
            if len(seen) > 1:
                sys.exit(f"refusing to compare: runs differ in {key}: {sorted(seen)}")

    ok = all(r["result"]["correct"] for r in runs)
    metrics = bench["end_to_end"]
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        theirs = [r for r in earlier if r["workload"] == w]
        print(f"\n{w}: {len(mine)} runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [r["result"]["metrics"][name]["value"] for r in mine]
            med, q1, q3 = summarize(vals) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            verdict = "steady" if spread < bound / 3 else ("ok" if spread <= bound else "FAIL")
            ok &= verdict != "FAIL"
            line = (f"  {name:<24} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                    f" spread {spread:.3f} bound {bound} {verdict}")
            if theirs:
                old = statistics.median(r["result"]["metrics"][name]["value"] for r in theirs)
                change = (med - old) / old if old else 0.0
                worse = change if m["better"] == "lower" else -change
                within = worse <= bound
                ok &= within
                line += f" | earlier {old:.6g} worse by {worse:+.3f} {'ok' if within else 'FAIL'}"
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
