#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

One run:
    python3 ecbench/run.py --workload ycsbe-4k --seed 1 --seconds 10 --trace 0

builds the C++ benchmark from the checkout's sources into .bench_build/
(incrementally after the first time), runs one workload and passes its
output through. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

Repeat mode:
    python3 ecbench/run.py --repeat 5 [--workload ycsbe-4k ...] [--trace 1]
                           [--sets 2]

runs each named workload (all three by default) with seeds 1..N and
prints, per metric, the median, the quartiles and the quartile spread as
a share of the median: the figures the bounds in BENCHMARK.json rest on.
With --sets 2 it makes a second set with seeds N+1..2N and prints, per
end-to-end metric, how far the second median moved in the worse
direction, as a share of the first, next to the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ecbench")
BINARY = os.path.join(BUILD, "ecbench")
WORKLOADS = ["ycsbe-4k", "rw-1m", "sim-fig4b"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally. Output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "bench/harness.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"missing {needed}: run from a full checkout")
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)


def run_once(workload, seed, seconds, trace, echo):
    """Runs the binary once; returns the parsed result line."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        log("\n".join(lines))
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result line: " + lines[-1])
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    else:
        log(*(l for l in lines if l.startswith("run:")))
    return lines[-1], result


def repeat(workloads, runs, seconds, trace, first_seed=1):
    summary = {}
    for workload in workloads:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            _, result = run_once(workload, seed, seconds, trace, echo=False)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect output")
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            log(f"{workload} seed {seed} done")
        print(f"\n{workload}: {runs} runs, seeds {first_seed}.."
              f"{first_seed + runs - 1}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8}  unit")
        rows = {}
        for name, (unit, vals) in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4)
                           if len(vals) > 1 else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f}  {unit}")
        summary[workload] = rows
    print(json.dumps(summary))
    return summary


def compare(first, second):
    """Prints each end-to-end metric's median shift between two sets."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    print(f"\n{'workload':10} {'metric':18} {'median 1':>12} {'median 2':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    ok = True
    for workload, rows in first.items():
        for name, m in spec.items():
            if name not in rows:
                continue
            a, b = rows[name]["median"], second[workload][name]["median"]
            worse = (b - a if m["better"] == "lower" else a - b) / a
            within = worse <= m["bound"]
            ok = ok and within
            print(f"{workload:10} {name:18} {a:12.6g} {b:12.6g} {worse:9.3f} "
                  f"{m['bound']:6.2f}  {'ok' if within else 'OUT'}")
    print("all medians within their bounds" if ok
          else "some medians moved by more than their bounds")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable in --repeat mode)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run each workload this many times (seeds 1..N)")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1,
                    help="with --repeat: 2 adds a set with seeds N+1..2N "
                         "and compares the medians")
    args = ap.parse_args()
    workloads = args.workload or []
    for w in workloads:
        if w not in WORKLOADS:
            ap.error(f"unknown workload {w!r}; choose from {WORKLOADS}")
    try:
        build()
        if args.repeat > 0:
            sets = [repeat(workloads or WORKLOADS, args.repeat, args.seconds,
                           args.trace, 1 + i * args.repeat)
                    for i in range(args.sets)]
            if len(sets) == 2 and not args.trace:
                compare(*sets)
            return 0
        if len(workloads) != 1:
            ap.error("give exactly one --workload (or --repeat N)")
        line, _ = run_once(workloads[0], args.seed, args.seconds, args.trace,
                           echo=True)
        print(line, flush=True)
        return 0
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"ecbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
