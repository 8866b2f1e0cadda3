#!/usr/bin/env python3
"""Builds and runs the repo's end-to-end benchmark.

    python3 perfbench/run.py --workload paper_1x --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds the
harness and the libraries it calls (Release) into .bench_build/; later runs
only rebuild what changed. The harness runs with RP_THREADS pinned to the
number of usable cores, and every other RP_* variable removed, and checks
its outputs against the values perfbench/expected.txt records. The last line
of standard output is the result object, holding the metrics BENCHMARK.json
declares for the run (end_to_end untraced, per_layer traced; a layer the
workload never calls reads 0). run.py exits non-zero without printing a
result when the build or the run fails, or when the harness measured a
metric BENCHMARK.json does not declare, missed an end-to-end one, or
reported one in another unit.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
# The harness must finish inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(jobs):
    """Configures once, then builds incrementally."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    make = ["cmake", "--build", str(BUILD), "-j", str(jobs),
            "--target", "perfbench"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def select_metrics(line, spec, trace):
    """The harness's result with exactly the metrics BENCHMARK.json declares
    for this run, in declared order."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    measured = result["metrics"]
    undeclared = sorted(set(measured) - set(units))
    wrong = sorted(n for n in set(measured) & set(units)
                   if measured[n]["unit"] != units[n])
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [] if trace else sorted(set(wanted) - set(measured))
    if undeclared or wrong or missing:
        fail(f"metrics differ from BENCHMARK.json: undeclared {undeclared}, "
             f"wrong unit {wrong}, missing {missing}")
    result["metrics"] = {
        name: measured.get(name, {"value": 0, "unit": units[name]})
        for name in wanted}
    return result


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # Compilers and the harness keep their temporary files in the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    threads = len(os.sched_getaffinity(0))
    build(threads)

    env = {k: v for k, v in os.environ.items() if not k.startswith("RP_")}
    env["RP_THREADS"] = str(threads)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(BUILD / "work"),
               "--expected", str(ROOT / "perfbench" / "expected.txt")]
    try:
        run = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{args.workload} exited with code {run.returncode}")
    result = select_metrics(lines[-1], spec, args.trace == 1)
    print("\n".join(lines[:-1]))
    print(f"nproc={threads} RP_THREADS={threads}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
