#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

Run from the repository root:

    python3 lumbench/spread.py --workloads fig11,fanout --seeds 1-10
    python3 lumbench/spread.py --seeds 1-10 --out lumbench/baseline.json

Each run is the command from BENCHMARK.json with
`--workload <w> --seed <n> --seconds <run_seconds> --trace <0|1>`. For every
metric the summary gives the median and quartiles of the per-seed values
(Python's `statistics.quantiles(values, n=4)`) and the spread, the
interquartile range as a share of the median. With `--trace 0` each
end-to-end spread is compared with a third of the metric's bound, the
margin the benchmark is tuned to keep; `setup_s` is exempt, since its
bound guards only its median. Exits 1 if a run fails, prints no result,
or reports `correct: false`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    digest = lines[-2] if len(lines) > 1 else ""
    return result, digest, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(q2) if q2 else 0.0,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the summary here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "run_seconds": seconds, "trace": args.trace,
               "workloads": {}}
    bad = False
    for w in workloads:
        per_metric, digests, walls = {}, [], []
        for seed in seeds:
            result, digest, wall = run_once(bench, w, seed, seconds, args.trace)
            walls.append(wall)
            digests.append(digest)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                bad = True
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        stats = {name: summarise(v) for name, v in per_metric.items()}
        summary["workloads"][w] = {
            "metrics": stats,
            "digests": digests,
            "max_wall_s": max(walls),
        }
        print(f"== {w} (seeds {args.seeds}, max wall {max(walls):.1f} s)")
        for name, s in stats.items():
            flag = ""
            if args.trace == 0 and name in bounds and name != "setup_s":
                flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:40s} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<14.6g} q3 {s['q3']:<14.6g} "
                  f"spread {s['spread']:.4f} {flag}", flush=True)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(summary, f, indent=1)
                f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
