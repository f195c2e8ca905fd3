#!/usr/bin/env python3
"""Build and run the repository benchmark (see src/main.cpp).

Run from the root of a checkout:

    python3 perfbench/run.py --workload exec|attest|fleet-ops \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks that it printed exactly the metrics BENCHMARK.json
names for the mode (end_to_end with --trace 0, per_layer with --trace 1)
with their units, and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero when a correctness gate failed, and without printing
a result when the build or the run itself fails.

--self-check runs every workload at a tiny size: each prints every
metric with its unit in both modes, two runs with one seed give the same
deterministic counts, every gate passes on a held-out seed, and the
traced run's layer times plus its unattributed share add up to its
wall time.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exec", "attest", "fleet-ops")
RUN_TIMEOUT_S = 170
# --self-check also runs every gate on this seed, which no other run uses.
HELD_OUT_SEED = 977


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return out / "eilid_perfbench"


def load_spec():
    path = Path("BENCHMARK.json")
    if not path.exists():
        fail("BENCHMARK.json not found in the working directory")
    return json.loads(path.read_text())


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (exit code, stdout lines, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    cmd += list(extra)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def validate(result, expected):
    """Problems with a result's shape: names, units, numbers."""
    problems = []
    if result is None:
        return ["no result line"]
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result lacks {key!r}")
    if problems:
        return problems
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != unit:
            problems.append(f"{name}: unit {metric.get('unit')!r}, expected {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def run_once(args):
    spec = load_spec()
    binary = build()
    trace_out = build_dir() / f"trace-{args.workload}-seed{args.seed}.tsv"
    extra = ["--trace-out", str(trace_out)] if args.trace else []
    code, lines, result = run_binary(binary, args.workload, args.seed,
                                     args.seconds, args.trace, extra)
    for line in lines[:-1]:
        print(line)
    problems = validate(result, expected_metrics(spec, args.trace))
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        fail(f"{args.workload} exited {code} without a valid result")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    if code != 0 or not result["correct"] or result["failed"] != 0:
        sys.exit(1)


def determinism(lines):
    return [line for line in lines if line.startswith("determinism ")]


def attribution(lines):
    """(wall s, layer s, unattributed share) from a traced run's log."""
    for line in lines:
        if line.startswith("attribution:"):
            fields = dict(item.split("=") for item in line.split()[1:])
            return (float(fields["wall_s"]), float(fields["layers_s"]),
                    float(fields["unattributed"]))
    return None


def self_check(args):
    spec = load_spec()
    binary = build()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        runs = {}
        for label, seed, trace in (("first", args.seed, False),
                                   ("repeat", args.seed, False),
                                   ("traced", args.seed, True),
                                   ("held-out", HELD_OUT_SEED, False)):
            code, lines, result = run_binary(binary, workload, seed, 1, trace,
                                             ["--tiny"])
            runs[label] = (code, lines, result)
            problems = validate(result, expected_metrics(spec, trace))
            check(not problems,
                  f"{workload} {label}: every metric with its unit"
                  + (f" ({'; '.join(problems)})" if problems else ""))
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} {label} (seed {seed}): all gates pass")
        first, repeat = runs["first"][1], runs["repeat"][1]
        check(determinism(first) == determinism(repeat) and determinism(first),
              f"{workload}: deterministic counts repeat for seed {args.seed}")
        check(determinism(first) == determinism(runs["traced"][1]),
              f"{workload}: tracing leaves the deterministic counts unchanged")
        split = attribution(runs["traced"][1])
        if split is None:
            check(False, f"{workload}: traced run reports its attribution")
        else:
            wall, layers, unattributed = split
            check(wall > 0 and abs(layers / wall + unattributed - 1) < 0.01,
                  f"{workload}: layer time {layers:.4f} s + unattributed "
                  f"{100 * unattributed:.2f}% accounts for wall {wall:.4f} s")
    if failures:
        print(f"self-check: {len(failures)} failure(s)")
        sys.exit(1)
    print("self-check: all passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        self_check(args)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run_once(args)


if __name__ == "__main__":
    main()
