#!/usr/bin/env python3
"""Records the benchmark's baseline: repeated runs of every workload.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --record-expected

Runs perfbench/run.py untraced once per seed (seeds 1..runs) on every
workload, then once traced on seed 1, and writes, per workload, the median,
quartiles and spread (interquartile range over median, as the bounds in
BENCHMARK.json are shares of the median) of every end-to-end metric, every
run's raw values, and the traced run's per-layer metrics. Prints a table
and flags any spread above a third of its metric's bound. Every run must
pass its output checks.

--record-expected instead runs every input of every workload once (seeds
0..9, the batch workloads' inputs being seed % 10) and writes the digests
and exact counts they check to perfbench/expected.txt. A run may then fail
only because a value was not recorded yet. Record from a build whose
results are known to be right, and only when a change to the benchmark
changes what it checks.

Run it from the root of a checkout; a paper_1x run takes about a minute.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected.txt"
INPUT_SETS = 10


def run_lines(workload, seed, seconds, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return out.rstrip("\n").split("\n")


def run(workload, seed, seconds, trace):
    lines = run_lines(workload, seed, seconds, trace)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        failed = [line for line in lines if line.startswith("CHECK FAILED")]
        sys.exit(f"{workload} seed {seed}: output checks failed: {failed}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def record_expected(workloads, seconds):
    # Values of the workloads not re-run are kept.
    values = {}
    if EXPECTED.exists():
        for line in EXPECTED.read_text().splitlines():
            fields = line.split()
            if fields and fields[0] not in workloads and line[0] != "#":
                values[" ".join(fields[:3])] = fields[3]
    write_expected(values)
    for workload in workloads:
        seeds = [0] if workload == "serve_mix" else range(INPUT_SETS)
        recorded = {}
        for seed in seeds:
            lines = run_lines(workload, seed, seconds, 0)
            for line in lines:
                if (line.startswith("CHECK FAILED")
                        and "no expected value recorded" not in line):
                    sys.exit(f"{workload} seed {seed}: {line}")
                match = re.fullmatch(r"checked-value (\S+ \S+ \S+) (\d+)", line)
                if not match:
                    continue
                key, value = match.groups()
                if recorded.setdefault(key, value) != value:
                    sys.exit(f"{key} differs between passes: "
                             f"{recorded[key]} and {value}")
            print(f"{workload} seed {seed}: recorded", flush=True)
        values.update(recorded)
        write_expected(values)


def write_expected(values):
    header = ("# Digests and exact counts of the benchmark's outputs, per "
              "workload and input,\n# written by perfbench/baseline.py "
              "--record-expected.\n")
    EXPECTED.write_text(header + "".join(
        f"{key} {value}\n" for key, value in sorted(values.items())))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.record_expected:
        record_expected(workloads, 1)
        return
    threads = len(os.sched_getaffinity(0))
    baseline = {"nproc": threads, "RP_THREADS": threads,
                "run_seconds": spec["run_seconds"], "seeds":
                list(range(1, args.runs + 1)), "workloads": {}}
    for workload in workloads:
        runs = [run(workload, seed, spec["run_seconds"], 0)
                for seed in baseline["seeds"]]
        traced = run(workload, 1, spec["run_seconds"], 1)
        metrics = {}
        for name in bounds:
            values = [r[name] for r in runs]
            metrics[name] = dict(summarize(values), values=values)
            flag = ("  > bound/3"
                    if metrics[name]["spread"] > bounds[name] / 3 else "")
            print(f"{workload:12} {name:16} median {metrics[name]['median']:14.6g}"
                  f"  spread {metrics[name]['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        baseline["workloads"][workload] = {"end_to_end": metrics,
                                           "traced_seed_1": traced}
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
