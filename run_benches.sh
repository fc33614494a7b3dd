#!/bin/bash
# Runs every benchmark binary, recording combined output.
#
# Erasure micro-benchmark JSON snapshots (for before/after kernel work):
#   ./run_benches.sh erasure-json [label]   # writes bench_results/erasure_<label>.json
#   ./run_benches.sh erasure-compare A B    # prints bytes/s ratios of two snapshots
# Planner micro-benchmark snapshots (for before/after plan-path work —
# greedy/ILP/plan-cache latency):
#   ./run_benches.sh planner-json [label]   # writes bench_results/planner_<label>.json
#   ./run_benches.sh planner-compare A B    # prints time-per-op ratios
# Failure bench with online repair (off in the default suite, matching the
# paper) plus robustness counters for trending:
#   ./run_benches.sh failures-repair [label]
#     # writes bench_results/failures_repair_<label>.json
# Codec-family repair sweep (DESIGN.md §11): one failed site under online
# repair per family, reporting repair bytes-on-wire (RS full-k vs LRC
# local-group vs piggyback half-chunks):
#   ./run_benches.sh failures-codecs [label]
#     # writes bench_results/failures_codecs_<label>.json
# Control-plane MultiGet thread-scaling snapshot (DESIGN.md §10):
#   ./run_benches.sh scale-json [label]     # writes bench_results/scale_<label>.json
# Latency-tier sweep (DESIGN.md §12): decoded-block cache + λ prefetch +
# hybrid redundancy over the Wikipedia trace at equal storage, reporting
# p99 per configuration and the improvement over the no-cache baseline:
#   ./run_benches.sh cache-json [label]     # writes bench_results/cache_<label>.json
# Overload-control snapshot (DESIGN.md §14): goodput + admitted p99 at
# ~2x saturation, uncontrolled vs admission+breakers+brownout+deadline:
#   ./run_benches.sh overload-json [label]  # writes bench_results/overload_<label>.json
# Extra flags after the label pass through to the bench, e.g.
#   ./run_benches.sh scale-json big --blocks=1000000 --threads=1,8,16,32
# The label defaults to the current git short SHA (plus -dirty when the
# tree has uncommitted changes). Pin a GF kernel path for a snapshot with
# ECSTORE_GF_KERNEL=scalar|ssse3|avx2.
set -u

erasure_json() {
  local label="${1:-}"
  if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then label="${label}-dirty"; fi
  fi
  mkdir -p bench_results
  local out="bench_results/erasure_${label}.json"
  build/bench/bench_micro_erasure \
    --benchmark_format=json --benchmark_out="$out" \
    --benchmark_min_time=0.2 >/dev/null
  echo "wrote $out"
}

erasure_compare() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b for b in data.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

before, after = load(sys.argv[1]), load(sys.argv[2])
print(f"{'benchmark':44s} {'before':>12s} {'after':>12s} {'speedup':>8s}")
for name in before:
    if name not in after:
        continue
    b = before[name].get("bytes_per_second")
    a = after[name].get("bytes_per_second")
    if not b or not a:
        continue
    print(f"{name:44s} {b/1e9:9.2f}G/s {a/1e9:9.2f}G/s {a/b:7.2f}x")
EOF
}

planner_json() {
  local label="${1:-}"
  if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then label="${label}-dirty"; fi
  fi
  mkdir -p bench_results
  local out="bench_results/planner_${label}.json"
  build/bench/bench_micro_planner \
    --benchmark_format=json --benchmark_out="$out" \
    --benchmark_min_time=0.2 >/dev/null
  echo "wrote $out"
}

planner_compare() {
  # Planner benches report latency, not throughput: compare real_time
  # per op (lower is better; ratio < 1 means the plan path got faster).
  python3 - "$1" "$2" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b for b in data.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def time_ns(bench):
    t = bench.get("real_time")
    return None if t is None else t * NS.get(bench.get("time_unit", "ns"), 1.0)

def fmt(ns):
    if ns >= 1e6:
        return f"{ns/1e6:9.2f}ms"
    if ns >= 1e3:
        return f"{ns/1e3:9.2f}us"
    return f"{ns:9.1f}ns"

before, after = load(sys.argv[1]), load(sys.argv[2])
print(f"{'benchmark':52s} {'before':>11s} {'after':>11s} {'after/before':>13s}")
for name in before:
    if name not in after:
        continue
    b, a = time_ns(before[name]), time_ns(after[name])
    if not b or not a:
        continue
    print(f"{name:52s} {fmt(b)} {fmt(a)} {a/b:12.2f}x")
EOF
}

scale_json() {
  local label="${1:-}"
  if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then label="${label}-dirty"; fi
  fi
  shift $(( $# > 0 ? 1 : 0 ))
  mkdir -p bench_results
  local out="bench_results/scale_${label}.json"
  build/bench/bench_scale_multiget --json="$out" "$@"
}

cache_json() {
  local label="${1:-}"
  if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then label="${label}-dirty"; fi
  fi
  shift $(( $# > 0 ? 1 : 0 ))
  mkdir -p bench_results
  local out="bench_results/cache_${label}.json"
  build/bench/bench_cache_sweep --json="$out" "$@"
}

overload_json() {
  local label="${1:-}"
  if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then label="${label}-dirty"; fi
  fi
  shift $(( $# > 0 ? 1 : 0 ))
  mkdir -p bench_results
  local out="bench_results/overload_${label}.json"
  build/bench/bench_overload --json="$out" "$@"
}

failures_repair() {
  local label="${1:-}"
  if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then label="${label}-dirty"; fi
  fi
  mkdir -p bench_results
  local out="bench_results/failures_repair_${label}.json"
  build/bench/bench_fig4f_failures --repair --usage-json="$out"
}

failures_codecs() {
  local label="${1:-}"
  if [ -z "$label" ]; then
    label="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
    if ! git diff --quiet 2>/dev/null; then label="${label}-dirty"; fi
  fi
  shift $(( $# > 0 ? 1 : 0 ))
  mkdir -p bench_results
  local out="bench_results/failures_codecs_${label}.json"
  build/bench/bench_fig4f_failures --repair --max-failures=1 \
    --codecs="rs(6,3),lrc(6,2,2),pb(6,3)" --json="$out" "$@"
}

case "${1:-}" in
  failures-repair)
    failures_repair "${2:-}"
    exit $?
    ;;
  failures-codecs)
    failures_codecs "${2:-}" "${@:3}"
    exit $?
    ;;
  scale-json)
    scale_json "${2:-}" "${@:3}"
    exit $?
    ;;
  cache-json)
    cache_json "${2:-}" "${@:3}"
    exit $?
    ;;
  overload-json)
    overload_json "${2:-}" "${@:3}"
    exit $?
    ;;
  erasure-json)
    erasure_json "${2:-}"
    exit $?
    ;;
  erasure-compare)
    if [ $# -lt 3 ]; then
      echo "usage: $0 erasure-compare <before.json> <after.json>" >&2
      exit 2
    fi
    erasure_compare "$2" "$3"
    exit $?
    ;;
  planner-json)
    planner_json "${2:-}"
    exit $?
    ;;
  planner-compare)
    if [ $# -lt 3 ]; then
      echo "usage: $0 planner-compare <before.json> <after.json>" >&2
      exit 2
    fi
    planner_compare "$2" "$3"
    exit $?
    ;;
esac

for b in build/bench/bench_*; do
  if [ -x "$b" ] && [ -f "$b" ]; then
    echo "##### $b"
    "$b"
    echo
  fi
done
echo "##### SUITE COMPLETE"
