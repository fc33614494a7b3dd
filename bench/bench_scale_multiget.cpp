// MultiGet scaling bench for the control plane (DESIGN.md §10):
// closed-loop readers hammer one LocalECStore and we report throughput
// and latency percentiles per thread count.
//
// The data plane injects no latency and the chunk fetch is a memcpy, so
// contention on control-plane locks — catalog stripes, the plane mutex
// over co-access stats and plan cache — dominates; the speedup at T
// threads measures those locks, not I/O. On a many-core box run with
// paper-ish scale:
//
//   bench_scale_multiget --blocks=1000000 --threads=1,8,16,32
//       --ilp-threads=2 --measure=10
//
// Defaults are CI-sized (small corpus, short windows) so the default
// run_benches.sh sweep stays fast. --ilp-threads defaults to 0: deferred
// ILP solves drain after each response, as in the store's default config.
//
// Flags: --sites --blocks --block-bytes --batch --ilp-threads
//        --threads=1,2,4 --warmup --measure --seed --zipf
//        --json=PATH (writes {"bench":"scale_multiget","rows":[...]})
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/local_store.h"

namespace {

using namespace ecstore;
using Clock = std::chrono::steady_clock;

struct Scenario {
  std::size_t num_sites = 16;
  std::uint64_t num_blocks = 4096;
  std::size_t block_bytes = 4096;
  std::size_t batch = 4;
  std::size_t ilp_threads = 0;
  double warmup_s = 0.2;
  double measure_s = 1.0;
  std::uint64_t seed = 1;
  double zipf = 0.99;
  std::vector<int> thread_counts = {1, 2, 4};
};

struct Row {
  std::string label;
  int threads = 0;
  double throughput = 0;  // requests/s
  double p50_us = 0;
  double p99_us = 0;
  double cache_hit_rate = 0;
};

// Zipf sampler over [0, n) via the rejection-free approximation used by
// YCSB: power-law CDF inversion. Good enough for a contention bench.
BlockId ZipfDraw(Rng& rng, std::uint64_t n, double theta) {
  if (theta <= 0) return rng.NextBounded(n);
  const double u = rng.NextDouble();
  const double x = std::pow(u, 1.0 / (1.0 - theta * 0.5));
  auto id = static_cast<BlockId>(x * static_cast<double>(n));
  return id >= n ? n - 1 : id;
}

std::unique_ptr<LocalECStore> MakeStore(const Scenario& s) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcC);
  config.num_sites = s.num_sites;
  config.seed = s.seed;
  config.ilp_executor_threads = s.ilp_threads;
  auto store = std::make_unique<LocalECStore>(config);

  Rng fill(s.seed + 77);
  std::vector<std::uint8_t> block(s.block_bytes);
  for (BlockId id = 0; id < s.num_blocks; ++id) {
    for (auto& b : block) b = static_cast<std::uint8_t>(fill.NextBounded(256));
    store->Put(id, block);
  }
  return store;
}

Row RunOne(const Scenario& s, int threads) {
  auto store = MakeStore(s);

  std::atomic<bool> warm{true};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> done{0};
  std::vector<Histogram> latencies(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(s.seed + 1000 + static_cast<std::uint64_t>(t));
      std::vector<BlockId> ids(s.batch);
      while (!stop.load(std::memory_order_relaxed)) {
        // YCSB-E-style scan: Zipf-popular start, contiguous range. Scan
        // starts recur, so the plan cache sees hits and the cached-plan
        // lookup path (not just the greedy fallback) is what scales.
        const BlockId scan_start = ZipfDraw(rng, s.num_blocks, s.zipf);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          ids[i] = (scan_start + i) % s.num_blocks;
        }
        const auto start = Clock::now();
        (void)store->MultiGet(ids);
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - start)
                            .count();
        if (!warm.load(std::memory_order_relaxed)) {
          latencies[t].Record(us);
          done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(s.warmup_s));
  warm.store(false);
  const auto measure_start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(s.measure_s));
  stop.store(true);
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - measure_start).count();

  Histogram merged;
  for (const auto& h : latencies) merged.Merge(h);

  const auto totals = store->control_plane().CacheTotals();
  const double lookups = static_cast<double>(totals.hits + totals.misses);

  Row row;
  row.label = "threads=" + std::to_string(threads);
  row.threads = threads;
  row.throughput =
      elapsed > 0 ? static_cast<double>(done.load()) / elapsed : 0;
  row.p50_us = static_cast<double>(merged.Percentile(50));
  row.p99_us = static_cast<double>(merged.Percentile(99));
  row.cache_hit_rate =
      lookups > 0 ? static_cast<double>(totals.hits) / lookups : 0;
  return row;
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"bench\":\"scale_multiget\",\"rows\":[");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "%s{\"label\":\"%s\",\"threads\":%d,"
                 "\"throughput_rps\":%.1f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
                 "\"cache_hit_rate\":%.4f}",
                 i ? "," : "", r.label.c_str(), r.threads,
                 r.throughput, r.p50_us, r.p99_us, r.cache_hit_rate);
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

std::vector<int> ParseThreadList(const std::string& spec) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(std::max(1, std::atoi(tok.c_str())));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) out.push_back(1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);

  Scenario s;
  s.num_sites = static_cast<std::size_t>(flags.GetInt("sites", 16));
  s.num_blocks = static_cast<std::uint64_t>(flags.GetInt("blocks", 4096));
  s.block_bytes =
      static_cast<std::size_t>(flags.GetInt("block-bytes", 4096));
  s.batch = static_cast<std::size_t>(flags.GetInt("batch", 4));
  s.ilp_threads = static_cast<std::size_t>(flags.GetInt("ilp-threads", 0));
  s.warmup_s = flags.GetDouble("warmup", 0.2);
  s.measure_s = flags.GetDouble("measure", 1.0);
  s.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  s.zipf = flags.GetDouble("zipf", 0.99);
  s.thread_counts = ParseThreadList(flags.GetString("threads", "1,2,4"));

  std::printf(
      "MultiGet scaling — sites=%zu blocks=%llu x %zuB batch=%zu "
      "ilp-threads=%zu warmup=%.1fs measure=%.1fs\n\n",
      s.num_sites, static_cast<unsigned long long>(s.num_blocks),
      s.block_bytes, s.batch, s.ilp_threads, s.warmup_s, s.measure_s);
  std::printf("%-24s %12s %10s %10s %8s\n", "config", "reqs/s", "p50(us)",
              "p99(us)", "hit%");

  std::vector<Row> rows;
  double base_throughput = 0;
  for (const int threads : s.thread_counts) {
    const Row row = RunOne(s, threads);
    if (threads == s.thread_counts.front()) base_throughput = row.throughput;
    const double scale =
        base_throughput > 0 ? row.throughput / base_throughput : 0;
    std::printf("%-24s %12.0f %10.1f %10.1f %7.1f%%  (%.2fx vs T%d)\n",
                row.label.c_str(), row.throughput, row.p50_us, row.p99_us,
                100 * row.cache_hit_rate, scale, s.thread_counts.front());
    rows.push_back(row);
  }

  if (flags.Has("json")) {
    WriteJson(flags.GetString("json", "scale_multiget.json"), rows);
  }
  return 0;
}
