// ecbench: the repository benchmark. One run executes one workload and
// prints its metrics, one per line with the unit, then as the last line
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   ecbench --workload ycsbe-4k|rw-1m|sim-fig4b --seed N --seconds S
//           --trace 0|1 [--spans PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded on half of the measured segments and
// reports the per-layer metrics instead (README.md lists both sets).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using namespace ecbench;

// Reads "--name value" and "--name=value" arguments.
std::string Arg(int argc, char** argv, const std::string& name,
                const std::string& def) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == flag && i + 1 < argc) return argv[i + 1];
    if (a.rfind(flag + "=", 0) == 0) return a.substr(flag.size() + 1);
  }
  return def;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Puts the main thread, and so every thread it creates later (the clients
// and the store's data-plane workers inherit the policy), in the lowest
// real-time priority. Other processes on the machine then cannot keep a
// woken store thread waiting for a CPU, which otherwise sets the get tail
// (README.md, Steadiness). Returns the policy in effect, for the log.
const char* RunRealTime() {
  sched_param param{};
  param.sched_priority = 1;
  return sched_setscheduler(0, SCHED_FIFO, &param) == 0
             ? "SCHED_FIFO 1"
             : "default (real-time priority not permitted)";
}

// CPU time the machine's hypervisor gave to others while this machine's
// CPUs wanted to run ("steal" in /proc/stat), summed over all CPUs, in
// seconds; 0 where it is not reported. Logged per run, since the host's
// stalls are what the steadier-half p99 sets aside.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0, steal = 0;
  stat >> cpu;
  for (int i = 1; i <= 8 && stat >> field; ++i) {
    if (i == 8) steal = field;
  }
  return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0;
}

std::vector<double> Pooled(const std::vector<std::vector<double>>& segments) {
  std::vector<double> all;
  for (const auto& v : segments) all.insert(all.end(), v.begin(), v.end());
  return all;
}

// The median over the eight segments of their p50s.
double SegmentP50(const std::vector<std::vector<double>>& segments) {
  std::vector<double> p50s;
  for (const auto& v : segments) p50s.push_back(Quantile(v, 0.5));
  return Median(p50s);
}

// The p99 of the run's steadier half. The samples are cut, in the order
// they were taken (each client's in turn), into windows of 100; the half of the windows with the
// highest p90 is set aside, and the p99 is taken over the samples of the
// other half. A stall of the host slows a burst of consecutive
// operations, so it lands in few windows. A tail the program has all
// through the run lifts every window and moves the figure; a tail
// confined to under half of the windows does not.
double SteadyP99(const std::vector<std::vector<double>>& segments) {
  constexpr std::size_t kWindow = 100;
  const std::vector<double> all = Pooled(segments);
  std::vector<std::pair<double, std::size_t>> windows;  // (p90, first)
  for (std::size_t i = 0; i + kWindow <= all.size(); i += kWindow) {
    windows.emplace_back(
        Quantile({all.begin() + i, all.begin() + i + kWindow}, 0.9), i);
  }
  std::sort(windows.begin(), windows.end());
  windows.resize(windows.size() / 2);
  std::vector<double> kept;
  for (const auto& w : windows) {
    kept.insert(kept.end(), all.begin() + w.second,
                all.begin() + w.second + kWindow);
  }
  if (kept.size() < 1000) {
    std::fprintf(stderr, "warning: a p99 over fewer than 1000 samples\n");
  }
  return Quantile(kept, 0.99);
}

std::vector<Metric> EndToEnd(const RealResult& real, const SimResult& sim) {
  return {
      {"setup_s", Median(real.setup_s) + Median(sim.setup_s), "s"},
      {"ops_per_s", Median(real.segment_ops_per_s), "1/s"},
      {"get_p50_us", SegmentP50(real.get_us), "us"},
      {"get_p99_us", SteadyP99(real.get_us), "us"},
      {"put_p50_us", SegmentP50(real.put_us), "us"},
      {"put_p99_us", SteadyP99(real.put_us), "us"},
      {"storage_overhead", real.storage_overhead, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"repair_mb_s", Median(real.repair_cycle_mb_s), "MB/s"},
      {"sim_mean_ms", sim.total.Mean() / ecstore::kMillisecond, "ms"},
      {"sim_p99_ms",
       static_cast<double>(sim.total.Quantile(0.99)) / ecstore::kMillisecond,
       "ms"},
  };
}

void PrintCounts(const RealResult& real, const SimResult& sim) {
  std::printf("samples per segment (get/put):");
  for (std::size_t i = 0; i < real.get_us.size(); ++i) {
    std::printf(" %zu/%zu", real.get_us[i].size(), real.put_us[i].size());
  }
  std::printf("  removes=%zu mover_rounds=%zu\n", real.remove_us.size(),
              real.mover_us.size());
  for (const auto* kind : {&real.get_us, &real.put_us}) {
    std::printf("%s p50/p99 per segment (us):", kind == &real.get_us ? "get" : "put");
    for (const auto& v : *kind) {
      std::printf(" %.0f/%.0f", Quantile(v, 0.5), Quantile(v, 0.99));
    }
    std::printf("  all: %.0f/%.0f\n", Quantile(Pooled(*kind), 0.5),
                Quantile(Pooled(*kind), 0.99));
  }
  std::printf("segment ops/s:");
  for (double r : real.segment_ops_per_s) std::printf(" %.1f", r);
  std::printf("\n");
  std::printf("remove_p50_us %.1f  mover_round_p50_us %.1f\n",
              Quantile(real.remove_us, 0.5), Quantile(real.mover_us, 0.5));
  std::printf("storage_overhead %.6f expected %.6f (live user bytes %llu)\n",
              real.storage_overhead, real.expected_overhead,
              static_cast<unsigned long long>(real.live_user_bytes));
  std::printf("repair: %llu chunks rebuilt, %llu chunks read, %.3f s\n",
              static_cast<unsigned long long>(real.repair_chunks),
              static_cast<unsigned long long>(real.repair_chunks_read),
              real.repair_s);
  std::printf("setup_s real reps:");
  for (double s : real.setup_s) std::printf(" %.4f", s);
  std::printf("  sim reps:");
  for (double s : sim.setup_s) std::printf(" %.4f", s);
  std::printf("\nsim: %u repeats; pooled requests=%llu ilp_solves=%llu "
              "moves=%llu failures=%llu\n",
              sim.reps, static_cast<unsigned long long>(sim.requests),
              static_cast<unsigned long long>(sim.ilp_solves),
              static_cast<unsigned long long>(sim.moves),
              static_cast<unsigned long long>(sim.failures));
  const SimResult::Outputs& f = sim.first;
  std::printf("sim first seed: mean_us=%.17g p99_us=%lld requests=%llu "
              "failures=%llu ilp_solves=%llu moves=%llu; same-seed repeat: "
              "%s\n",
              f.mean_us, static_cast<long long>(f.p99_us),
              static_cast<unsigned long long>(f.requests),
              static_cast<unsigned long long>(f.failures),
              static_cast<unsigned long long>(f.ilp_solves),
              static_cast<unsigned long long>(f.moves),
              !sim.repeated ? "none" : sim.deterministic ? "identical"
                                                         : "DIFFERENT");
  if (sim.events > 0) {
    std::printf("sim events=%llu; the event-counting loop %s RunOnce\n",
                static_cast<unsigned long long>(sim.events),
                sim.copy_matches ? "matches" : "DIFFERS FROM");
  }
  std::printf("sim.req_per_s over %zu simulated seconds: min %.0f q1 %.0f "
              "median %.0f q3 %.0f max %.0f\n",
              sim.req_per_s.size(), Quantile(sim.req_per_s, 0),
              Quantile(sim.req_per_s, 0.25), Quantile(sim.req_per_s, 0.5),
              Quantile(sim.req_per_s, 0.75), Quantile(sim.req_per_s, 1));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const WorkloadSpec spec = FindWorkload(Arg(argc, argv, "workload", ""));
    RunOptions opt;
    opt.seed = std::stoull(Arg(argc, argv, "seed", "1"));
    opt.seconds = std::stod(Arg(argc, argv, "seconds", "10"));
    opt.trace = Arg(argc, argv, "trace", "0") != "0";
    opt.spans_path = Arg(argc, argv, "spans", "");
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");

    std::printf("workload %s seed %llu seconds %g trace %d scheduling %s\n",
                spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, RunRealTime());
    std::fflush(stdout);

    // The simulated repeats run in the eight gaps between measured
    // segments, spread evenly. The same-seed repeat that checks the
    // simulator's determinism belongs to the untraced runs.
    const std::uint32_t sim_reps = spec.sim.Reps(opt.trace);
    SimResult sim;
    std::uint32_t gaps = 0;
    auto sim_rep = [&] {
      ++gaps;
      while (sim.reps < sim_reps * gaps / 8) RunSimRep(spec.sim, opt, sim);
    };
    std::unique_ptr<ecstore::LocalECStore> store;
    const double steal0 = StealSeconds();
    const Clock::time_point t0 = Clock::now();
    const RealResult real =
        RunReal(spec.real, opt, sim_rep, opt.trace ? &store : nullptr);
    while (sim.reps < sim_reps) RunSimRep(spec.sim, opt, sim);
    std::printf("run: %.1f s wall, %.2f s of CPU stolen by the host\n",
                SecondsSince(t0), StealSeconds() - steal0);
    for (const std::string& e : real.errors) {
      std::fprintf(stderr, "error: %s\n", e.c_str());
    }
    PrintCounts(real, sim);

    std::vector<Metric> metrics =
        opt.trace ? LayerMetrics(spec, opt, *store, real, sim)
                  : EndToEnd(real, sim);
    store.reset();

    const std::uint64_t attempted = real.attempted + sim.requests;
    const std::uint64_t failed = real.failed + sim.failures;
    std::printf("error_rate %.6g (failed %llu / attempted %llu)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    bool finite = true;
    for (const Metric& m : metrics) {
      std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      finite = finite && std::isfinite(m.value);
    }
    const bool correct =
        failed == 0 && sim.deterministic && sim.copy_matches && finite;

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                    metrics[i].unit.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecbench: %s\n", e.what());
    return 1;
  }
}
