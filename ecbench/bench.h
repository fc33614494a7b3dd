// Shared pieces of the repository benchmark (README.md in this directory):
// workload specs, deterministic block contents, the in-memory span
// tracer, and the per-phase results the workloads hand to main.cpp and
// to the layer replays.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/local_store.h"

namespace ecbench {

using ecstore::BlockId;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Real-bytes part of a workload: a closed loop of fixed per-client
/// operation lists against one LocalECStore (EC+C+M+LB, RS(2,2), δ=1).
struct RealSpec {
  std::uint64_t blocks = 0;        // initial dataset, ids [0, blocks)
  std::size_t block_bytes = 0;
  std::uint32_t clients = 1;
  std::uint32_t scan = 1;          // blocks per MultiGet (consecutive ids)
  double get_fraction = 1.0;       // the rest insert a new block
  double zipf = 0.99;              // scan-start popularity
  std::uint32_t insert_window = 0; // inserted blocks kept per client
  std::uint32_t mover_every = 0;   // client 0: RunMovementRound period
  std::uint32_t warmup_ops = 0;    // per client, excluded from metrics
  double ops_per_second = 0;       // per client; sizes the op count
  std::uint32_t setup_reps = 3;    // store builds; setup_s is their median
  std::uint32_t repair_cycles = 0; // fail -> RepairSite -> recover cycles
};

/// Simulated part of a workload: one of the experiment harness's
/// scenarios (YCSB-E on SimECStore, EC+C+M+LB) run by bench::RunOnce
/// with `seeds` distinct seeds whose measurement windows are pooled.
/// `repeat` runs the first seed once more, which must reproduce it.
struct SimSpec {
  ecstore::bench::ExperimentParams params;
  std::uint32_t seeds = 1;
  bool repeat = false;
  /// The repeats one run makes: the seeds, then the same-seed check.
  std::uint32_t Reps(bool trace) const {
    return seeds + (repeat && !trace ? 1 : 0);
  }
};

struct WorkloadSpec {
  std::string name;
  RealSpec real;
  SimSpec sim;
};

/// The three workloads; throws std::invalid_argument on an unknown name.
WorkloadSpec FindWorkload(const std::string& name);

/// Block contents derived from (id, seed): a 16-byte header naming the
/// block, then a window of one seeded random pattern at an id-dependent
/// offset. Writers copy it out; readers check every byte against it
/// without regenerating anything.
class Content {
 public:
  Content(std::uint64_t seed, std::size_t max_block_bytes);
  void Fill(BlockId id, std::span<std::uint8_t> out) const;
  bool Matches(BlockId id, std::span<const std::uint8_t> got,
               std::size_t block_bytes) const;

 private:
  std::size_t Offset(BlockId id) const;
  void Header(BlockId id, std::uint8_t out[16]) const;

  std::uint64_t seed_;
  std::vector<std::uint8_t> pattern_;
};

/// One recorded call into the store. Spans of one operation share
/// `request`; `parent` is the id of the operation's root span (0 = root).
/// The counter deltas are public store counters read before and after
/// the call; with two clients they can include the other client's work.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t client = 0;
  std::uint32_t blocks = 0;
  std::uint64_t get_seq = 0;       // bench-wide MultiGet sequence number
  double start_us = 0;             // since the traced run's epoch
  double end_us = 0;
  std::uint64_t ilp_solves = 0;    // ControlPlane::ilp_solves() delta
  std::uint64_t plan_hits = 0;     // CacheTotals().hits delta
  std::uint64_t plan_misses = 0;   // CacheTotals().misses delta
  std::uint64_t jobs_run = 0;      // DataPlane::jobs_run() delta
  std::uint64_t moves = 0;         // ControlPlane::moves_executed() delta
  double Duration() const { return end_us - start_us; }
};

/// Writes spans as JSON lines (one object per span).
void WriteSpans(const std::string& path, const std::vector<Span>& spans);

/// Everything the real-bytes part of a run measured.
struct RealResult {
  std::vector<double> setup_s;          // one per store build
  double traced_wall_s = 0;             // trace mode: traced segments only
  std::uint64_t traced_ops = 0;
  double untraced_wall_s = 0;
  std::uint64_t untraced_ops = 0;
  /// Trace mode: exact counter deltas over the traced segments as a whole
  /// (span deltas overlap when two clients run at once).
  std::uint64_t traced_gets = 0, traced_get_blocks = 0;
  std::uint64_t traced_solves = 0, traced_plan_hits = 0;
  std::uint64_t traced_plan_misses = 0, traced_jobs = 0;
  /// The measured ops run in eight segments. Trace mode traces the odd
  /// ones. Latencies are kept per segment; the end-to-end rates and p50s
  /// are medians over segments and the p99s are taken over the steadier
  /// half of the run (main.cpp), so a burst of outside noise does not
  /// move them.
  std::vector<std::vector<double>> get_us;  // [segment][sample]
  std::vector<std::vector<double>> put_us;
  std::vector<double> segment_ops_per_s;    // untraced segments only
  std::vector<double> remove_us;
  std::vector<double> mover_us;
  double storage_overhead = 0;
  double expected_overhead = 0;
  std::uint64_t live_user_bytes = 0;
  double repair_s = 0;
  std::vector<double> repair_cycle_mb_s;  // one per cycle that rebuilt chunks
  std::uint64_t repair_chunks = 0;
  std::uint64_t repair_chunks_read = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;      // first few failures, for stderr
  /// Counts one failure (unless `count` is false) and keeps its message.
  void Fail(std::string what, bool count = true) {
    if (count) ++failed;
    if (errors.size() < 10) errors.push_back(std::move(what));
  }
  std::vector<Span> spans;              // trace mode only
  /// Recorded inputs for the layer replays: every measured MultiGet's
  /// ids and every measured insert's id.
  std::vector<std::vector<BlockId>> get_ids;
  std::vector<BlockId> insert_ids;
};

/// Everything the simulated part of a run measured.
struct SimResult {
  std::vector<double> setup_s;
  std::vector<double> req_per_s;     // per simulated second of the windows
  std::vector<double> events_per_s;
  /// Pooled over the measurement windows of the distinct seeds.
  ecstore::Histogram total, metadata, planning, retrieval, decode;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;  // failed requests in the windows
  std::uint64_t ilp_solves = 0;
  std::uint64_t moves = 0;
  std::uint64_t events = 0;
  std::uint32_t reps = 0;
  /// What a same-seed repeat must reproduce exactly.
  struct Outputs {
    double mean_us = 0;
    std::int64_t p99_us = 0;
    std::uint64_t requests = 0, failures = 0, ilp_solves = 0, moves = 0;
    bool operator==(const Outputs&) const = default;
  };
  Outputs first;
  bool repeated = false;      // a same-seed repeat ran
  bool deterministic = true;  // ... and matched `first`
  bool copy_matches = true;   // the event-counting loop agreed with RunOnce
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// Runs the real-bytes part: setup reps, the measured closed loop in eight
/// segments (in trace mode alternating untraced/traced), with a gap after
/// each segment for a share of the repair cycles and a call of `gap`,
/// then the storage check and a full read-back. When `store_out` is set
/// the store is kept alive for the layer replays.
RealResult RunReal(const RealSpec& spec, const RunOptions& opt,
                   const std::function<void()>& gap,
                   std::unique_ptr<ecstore::LocalECStore>* store_out);

/// Runs the next repeat of the simulated scenario through bench::RunOnce,
/// adding to `res`. The simulator seeds follow from the run's seed. In
/// trace mode the first repeat also runs through a copy of the harness's
/// closed loop that counts events, which is checked against RunOnce's
/// requests and mean.
void RunSimRep(const SimSpec& spec, const RunOptions& opt, SimResult& res);

/// A metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Trace mode: the per-layer metrics, from the traced segments' spans and
/// counter deltas plus replays of the recorded inputs through each
/// layer's public functions.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec,
                                 const RunOptions& opt,
                                 ecstore::LocalECStore& store,
                                 const RealResult& real, const SimResult& sim);

/// Quantile q in [0, 1] of `v` (linear interpolation); 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

}  // namespace ecbench
