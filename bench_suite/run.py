#!/usr/bin/env python3
"""Build and run bench_suite, the repository benchmark, or compare two sets of runs.

Run one workload from the repository root (builds the benchmark first):

    python3 bench_suite/run.py --workload ls_small --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result.  Its metric names
and units are checked against BENCHMARK.json, so the binary and the file
cannot drift apart.  The build goes to $CARGO_TARGET_DIR/bench_suite
(default .bench_build/bench_suite); --trace 1 writes the per-layer JSON and a
Chrome trace to $CARGO_TARGET_DIR/traces unless --trace-dir says otherwise.

Compare two directories of runs saved with --json:

    python3 bench_suite/run.py --compare bench_suite/baseline/set1 bench_suite/baseline/set2

For every workload and end-to-end metric it prints each side's median and
quartiles and a verdict against the metric's bound: better, same, worse, or
unresolved when a side's spread is wider than the bound.  It exits 2 when the
files name a workload or metric BENCHMARK.json does not declare or lack one
it does, 1 when any verdict is worse or unresolved or a run was incorrect.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, root) if not os.path.isabs(root) else root


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    out = os.path.join(build_dir(), "bench_suite")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "bench_suite", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_suite")


def check_result(line, declared):
    """The result line must carry exactly the declared metrics and units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        extra = sorted(set(got) - set(want))
        missing = sorted(set(want) - set(got))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return "metrics differ from BENCHMARK.json: extra %s, missing %s, unit mismatch %s" % (
            extra, missing, units)
    return None


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("run.py: workload %r is not declared in BENCHMARK.json" % args.workload)
    binary = build()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--trace-dir", args.trace_dir or os.path.join(build_dir(), "traces")]
    if args.json:
        cmd += ["--json", os.path.abspath(args.json)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: bench_suite did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = None
    try:
        problem = check_result(lines[-1], spec["per_layer" if args.trace else "end_to_end"])
    except (ValueError, KeyError, AttributeError) as e:
        problem = "no result line (%s)" % e
    if problem and proc.returncode == 0:
        print("\n".join(lines[:-1]))
        sys.exit("run.py: " + problem)
    print(proc.stdout, end="")
    sys.exit(proc.returncode)


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if "result" in doc and doc.get("trace", 0) == 0:
            runs.append((path, doc))
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(dir_a, dir_b):
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    sides = [load_runs(dir_a), load_runs(dir_b)]
    drift = []
    values = [{}, {}]  # side -> (workload, metric) -> [values]
    incorrect = 0
    for side, runs in enumerate(sides):
        seen = set()
        for path, doc in runs:
            w = doc.get("workload")
            if w not in workloads:
                drift.append("%s: undeclared workload %r" % (path, w))
                continue
            seen.add(w)
            names = set(doc["result"]["metrics"])
            if names != set(declared):
                drift.append("%s: metrics %s undeclared, %s missing" % (
                    path, sorted(names - set(declared)), sorted(set(declared) - names)))
                continue
            if not doc["result"].get("correct"):
                incorrect += 1
            for name, m in doc["result"]["metrics"].items():
                values[side].setdefault((w, name), []).append(m["value"])
        for w in workloads:
            if w not in seen:
                drift.append("%s: no runs of workload %r" % ((dir_a, dir_b)[side], w))
    if drift:
        print("\n".join(drift), file=sys.stderr)
        return 2

    print("%-14s %-18s %32s %32s  %-10s %s" % ("workload", "metric", "A median [q1, q3]",
                                              "B median [q1, q3]", "verdict", "B worse by"))
    bad = 0
    for w in workloads:
        for name, m in declared.items():
            a, b = values[0][(w, name)], values[1][(w, name)]
            (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (mb - ma) / ma if ma else 0.0
            spread = max((a3 - a1) / ma if ma else 0.0, (b3 - b1) / mb if mb else 0.0)
            b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > m["bound"]:
                verdict = "better" if b_always_better else "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            elif worse_by < -m["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            bad += verdict in ("worse", "unresolved")
            print("%-14s %-18s %12.6g [%8.4g, %8.4g] %12.6g [%8.4g, %8.4g]  %-10s %+.1f%%" % (
                w, name, ma, a1, a3, mb, b1, b3, verdict, 100.0 * worse_by))
    if incorrect:
        print("%d run(s) reported incorrect results" % incorrect, file=sys.stderr)
    return 1 if bad or incorrect else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("RUNS_A", "RUNS_B"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir")
    parser.add_argument("--json", help="also write the result with host facts to this file")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb one reference solution; the run must then fail")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.workload:
        parser.error("--workload or --compare is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    run(args)


if __name__ == "__main__":
    main()
