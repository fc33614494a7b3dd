// The three benchmark workloads and the phases every run goes through:
// store set-up, the measured closed loop, the storage check, the repair
// phase, the full read-back and the simulated scenario.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/sim_store.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace ecbench {

using namespace ecstore;

namespace {

// The filler of the two real-bytes workloads: the Fig. 4e scenario of
// bench_fig4e_ycsb1mb (4000 x 1 MB, scans of 1-9 blocks, disk-bound sites)
// with the harness's other defaults. Its p99 differs by up to 60% from
// seed to seed, so three seeds are pooled.
SimSpec Fig4eFiller() {
  SimSpec sim;
  sim.params.num_blocks = 4000;
  sim.params.block_bytes = 1 << 20;
  sim.params.max_scan_length = 9;
  sim.params.disk_mb_per_sec = 60;
  sim.params.site_concurrency = 3;
  sim.seeds = 3;
  return sim;
}

}  // namespace

WorkloadSpec FindWorkload(const std::string& name) {
  // Every workload reports every end-to-end metric, so each runs a
  // real-bytes part and a simulated part. The part a workload exists for
  // is the one its comment names; the other is filler taken from a
  // scenario the repository already defines (README.md).
  WorkloadSpec w;
  w.name = name;
  if (name == "ycsbe-4k") {
    // YCSB-E on 4 KB blocks: per-request overhead (planning, inline ILP,
    // data-plane jobs) dominates; codec work is 2 KB per chunk.
    w.real = RealSpec{.blocks = 65536, .block_bytes = 4096, .clients = 2,
                      .scan = 4, .get_fraction = 0.95, .zipf = 0.99,
                      .insert_window = 512, .mover_every = 2000,
                      .warmup_ops = 3000, .ops_per_second = 6000,
                      .setup_reps = 3, .repair_cycles = 16};
    w.sim = Fig4eFiller();
  } else if (name == "rw-1m") {
    // Half reads, half writes of 1 MB blocks: bound by bytes (encode,
    // CRC, copies, decode); one client, see README.md.
    w.real = RealSpec{.blocks = 128, .block_bytes = 1 << 20, .clients = 1,
                      .scan = 1, .get_fraction = 0.5, .zipf = 0.99,
                      .insert_window = 64, .mover_every = 100,
                      .warmup_ops = 200, .ops_per_second = 1800,
                      .setup_reps = 5, .repair_cycles = 32};
    w.sim = Fig4eFiller();
  } else if (name == "sim-fig4b") {
    // The harness's Fig. 4b YCSB-E 100 KB scenario unchanged (the
    // ExperimentParams defaults): the control plane alone. Filler: ycsbe-4k's
    // mix with Fig. 4b's 100 KB blocks and Zipf 1.0, on 1024 blocks.
    w.real = RealSpec{.blocks = 1024, .block_bytes = 100 * 1024,
                      .clients = 2, .scan = 4, .get_fraction = 0.95,
                      .zipf = 1.0, .insert_window = 64, .mover_every = 2000,
                      .warmup_ops = 1000, .ops_per_second = 2200,
                      .setup_reps = 5, .repair_cycles = 64};
    w.sim.repeat = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.sim.params.runs = 1;
  return w;
}

// --- Block contents ---------------------------------------------------

namespace {
constexpr std::size_t kOffsetSlots = 8192;
constexpr std::size_t kHeaderBytes = 16;
}  // namespace

Content::Content(std::uint64_t seed, std::size_t max_block_bytes)
    : seed_(seed), pattern_(max_block_bytes + kOffsetSlots * 8) {
  SplitMix64 gen(seed ^ 0xC0DEC0DE5EEDULL);
  for (std::size_t i = 0; i + 8 <= pattern_.size(); i += 8) {
    const std::uint64_t v = gen.Next();
    std::memcpy(&pattern_[i], &v, 8);
  }
}

std::size_t Content::Offset(BlockId id) const {
  return (SplitMix64(id ^ seed_).Next() % kOffsetSlots) * 8;
}

void Content::Header(BlockId id, std::uint8_t out[16]) const {
  const std::uint64_t tag = SplitMix64(seed_ + id).Next();
  std::memcpy(out, &id, 8);
  std::memcpy(out + 8, &tag, 8);
}

void Content::Fill(BlockId id, std::span<std::uint8_t> out) const {
  std::memcpy(out.data(), &pattern_[Offset(id)], out.size());
  std::uint8_t header[kHeaderBytes];
  Header(id, header);
  std::memcpy(out.data(), header, std::min(out.size(), kHeaderBytes));
}

bool Content::Matches(BlockId id, std::span<const std::uint8_t> got,
                      std::size_t block_bytes) const {
  if (got.size() != block_bytes) return false;
  std::uint8_t header[kHeaderBytes];
  Header(id, header);
  const std::size_t h = std::min(block_bytes, kHeaderBytes);
  return std::memcmp(got.data(), header, h) == 0 &&
         std::memcmp(got.data() + h, &pattern_[Offset(id) + h],
                     block_bytes - h) == 0;
}

// --- Statistics helpers -----------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  char line[512];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu,\"client\":%u,\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"blocks\":%u,\"ilp_solves\":%llu,"
                  "\"plan_hits\":%llu,\"plan_misses\":%llu,\"jobs_run\":%llu,"
                  "\"moves\":%llu}\n",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.client,
                  s.start_us, s.end_us, s.blocks,
                  static_cast<unsigned long long>(s.ilp_solves),
                  static_cast<unsigned long long>(s.plan_hits),
                  static_cast<unsigned long long>(s.plan_misses),
                  static_cast<unsigned long long>(s.jobs_run),
                  static_cast<unsigned long long>(s.moves));
    out << line;
  }
}

// --- Real-bytes part --------------------------------------------------

namespace {

struct Op {
  bool get = true;
  BlockId id = 0;  // get: scan start; insert: the new block's id
};

constexpr BlockId kInsertBase = BlockId{1} << 40;
BlockId InsertId(std::uint32_t client, std::uint64_t i) {
  return kInsertBase + (BlockId{client} << 32) + i;
}

// A permutation of [0, n) so popular scan starts spread over the keyspace.
struct Scramble {
  explicit Scramble(std::uint64_t n) : n(n) {
    while (std::gcd(mult % n, n) != 1) ++mult;
  }
  std::uint64_t operator()(std::uint64_t rank) const {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(rank) * mult) % n);
  }
  std::uint64_t n;
  std::uint64_t mult = 2654435761ULL;
};

// Client `client`'s whole operation list (warm-up first), a function of
// the seed alone.
std::vector<Op> MakeOps(const RealSpec& spec, std::uint64_t seed,
                        std::uint32_t client, std::uint64_t count) {
  Rng rng(SplitMix64(seed * 0x9E3779B97F4A7C15ULL + client + 1).Next());
  const std::uint64_t starts = spec.blocks - spec.scan + 1;
  const ZipfSampler zipf(starts, spec.zipf);
  const Scramble scramble(starts);
  std::vector<Op> ops(count);
  std::uint64_t inserts = 0;
  for (Op& op : ops) {
    if (rng.NextDouble() < spec.get_fraction) {
      op = Op{true, scramble(zipf.Sample(rng) - 1)};
    } else {
      op = Op{false, InsertId(client, inserts++)};
    }
  }
  return ops;
}

ECStoreConfig StoreConfig(std::uint64_t seed) {
  // EC+C+M+LB with the defaults: RS(2,2), δ=1, 32 sites x 2 data-plane
  // workers, cache/promoter/overload/faults off, no injected latency.
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.seed = seed;
  return config;
}

// State shared by the client threads of one measured loop.
struct Loop {
  const RealSpec& spec;
  const Content& content;
  LocalECStore& store;
  Clock::time_point epoch;
  std::atomic<std::uint64_t> get_seq{0};
};

struct ClientOut {
  // Latencies per measured segment (see RealResult).
  std::vector<std::vector<double>> get_us, put_us;
  std::vector<double> remove_us, mover_us;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<Span> spans;
  std::vector<std::vector<BlockId>> get_ids;
  std::vector<BlockId> insert_ids;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
};

// Runs the ops [begin, end) of one client. A `segment` >= 0 keeps
// latencies (under that segment) and inputs; `trace` also keeps spans
// with counter deltas. Warm-up runs with segment -1.
class Client {
 public:
  Client(Loop& loop, std::uint32_t id, std::vector<Op> ops)
      : loop_(loop), id_(id), ops_(std::move(ops)),
        buffer_(loop.spec.block_bytes) {}

  std::uint64_t inserts() const { return inserts_; }

  void Run(std::size_t begin, std::size_t end, int segment, bool trace,
           ClientOut& out) {
    for (std::size_t i = begin; i < end; ++i) {
      RunOp(i, ops_[i], segment, trace, out);
    }
  }

 private:
  struct Counters {
    std::uint64_t solves, hits, misses, jobs, moves;
  };
  Counters Read() const {
    const ControlPlane& cp = loop_.store.control_plane();
    const auto totals = cp.CacheTotals();
    return {cp.ilp_solves(), totals.hits, totals.misses,
            loop_.store.data_plane().jobs_run(), cp.moves_executed()};
  }
  double Us(Clock::time_point t) const { return MicrosBetween(loop_.epoch, t); }

  // Records one span of `request` (its first span is the root).
  void AddSpan(ClientOut& out, const char* name, std::uint64_t request,
               std::uint64_t parent, Clock::time_point t0,
               Clock::time_point t1, const Counters& c0, const Counters& c1,
               std::uint32_t blocks, std::uint64_t get_seq) {
    Span s;
    s.name = name;
    s.id = (std::uint64_t{id_} + 1) << 40 | ++span_counter_;
    s.parent = parent;
    s.request = request;
    s.client = id_;
    s.blocks = blocks;
    s.get_seq = get_seq;
    s.start_us = Us(t0);
    s.end_us = Us(t1);
    s.ilp_solves = c1.solves - c0.solves;
    s.plan_hits = c1.hits - c0.hits;
    s.plan_misses = c1.misses - c0.misses;
    s.jobs_run = c1.jobs - c0.jobs;
    s.moves = c1.moves - c0.moves;
    out.spans.push_back(s);
  }

  void RunOp(std::size_t index, const Op& op, int segment, bool trace,
             ClientOut& out) {
    const bool record = segment >= 0;
    const RealSpec& spec = loop_.spec;
    LocalECStore& store = loop_.store;
    const std::uint64_t request = (std::uint64_t{id_} + 1) << 40 | index;
    Counters c0{}, c1{};
    if (op.get) {
      ids_.resize(spec.scan);
      std::iota(ids_.begin(), ids_.end(), op.id);
      const std::uint64_t seq = loop_.get_seq.fetch_add(1) + 1;
      if (trace) c0 = Read();
      const auto t0 = Clock::now();
      std::vector<std::vector<std::uint8_t>> got;
      bool threw = false;
      try {
        got = store.MultiGet(ids_);
      } catch (const std::exception& e) {
        threw = true;
        out.Fail(std::string("MultiGet: ") + e.what());
      }
      const auto t1 = Clock::now();
      if (trace) {
        c1 = Read();
        AddSpan(out, "MultiGet", request, 0, t0, t1, c0, c1, spec.scan, seq);
      }
      ++out.attempted;
      if (!threw) {
        for (std::size_t b = 0; b < ids_.size(); ++b) {
          if (b >= got.size() ||
              !loop_.content.Matches(ids_[b], got[b], spec.block_bytes)) {
            out.Fail("MultiGet returned wrong bytes for block " +
                     std::to_string(ids_[b]));
            break;
          }
        }
      }
      if (record) {
        out.get_us[segment].push_back(MicrosBetween(t0, t1));
        out.get_ids.push_back(ids_);
      }
    } else {
      ++inserts_;
      loop_.content.Fill(op.id, buffer_);
      if (trace) c0 = Read();
      const auto t0 = Clock::now();
      bool ok = true;
      try {
        store.Put(op.id, buffer_);
      } catch (const std::exception& e) {
        ok = false;
        out.Fail(std::string("Put: ") + e.what());
      }
      const auto t1 = Clock::now();
      ++out.attempted;
      if (trace) {
        c1 = Read();
        AddSpan(out, "Put", request, 0, t0, t1, c0, c1, 1, 0);
      }
      if (record) {
        out.put_us[segment].push_back(MicrosBetween(t0, t1));
        out.insert_ids.push_back(op.id);
      }
      const std::uint64_t nth = op.id - InsertId(id_, 0);
      if (ok && nth >= spec.insert_window) {
        const BlockId victim = op.id - spec.insert_window;
        const auto t2 = Clock::now();
        const bool removed = store.Remove(victim);
        const auto t3 = Clock::now();
        ++out.attempted;
        if (!removed) out.Fail("Remove missed block " + std::to_string(victim));
        if (trace) {
          AddSpan(out, "Remove", request, out.spans.back().id, t2, t3, c1, c1,
                  1, 0);
        }
        if (record) out.remove_us.push_back(MicrosBetween(t2, t3));
      }
    }
    if (id_ == 0 && spec.mover_every > 0 && (index + 1) % spec.mover_every == 0) {
      if (trace) c0 = Read();
      const auto t0 = Clock::now();
      try {
        (void)store.RunMovementRound();
      } catch (const std::exception& e) {
        out.Fail(std::string("RunMovementRound: ") + e.what());
      }
      const auto t1 = Clock::now();
      ++out.attempted;
      if (trace) {
        c1 = Read();
        AddSpan(out, "RunMovementRound", request, 0, t0, t1, c0, c1, 0, 0);
      }
      if (record) out.mover_us.push_back(MicrosBetween(t0, t1));
    }
  }

  Loop& loop_;
  std::uint32_t id_;
  std::vector<Op> ops_;
  std::vector<std::uint8_t> buffer_;
  std::vector<BlockId> ids_;
  std::uint64_t span_counter_ = 0;
  std::uint64_t inserts_ = 0;
};

template <typename T>
void Append(std::vector<T>& to, std::vector<T>& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

std::unique_ptr<LocalECStore> BuildStore(const RealSpec& spec,
                                         const Content& content,
                                         std::uint64_t seed) {
  auto store = std::make_unique<LocalECStore>(StoreConfig(seed));
  std::vector<std::uint8_t> block(spec.block_bytes);
  for (BlockId id = 0; id < spec.blocks; ++id) {
    content.Fill(id, block);
    store->Put(id, block);
  }
  return store;
}

}  // namespace

RealResult RunReal(const RealSpec& spec, const RunOptions& opt,
                   const std::function<void()>& gap,
                   std::unique_ptr<LocalECStore>* store_out) {
  RealResult res;
  const Content content(opt.seed, spec.block_bytes);

  // Set-up: build and bulk-load the store several times; keep the last.
  std::unique_ptr<LocalECStore> store;
  for (std::uint32_t rep = 0; rep < spec.setup_reps; ++rep) {
    store.reset();
    const auto t0 = Clock::now();
    store = BuildStore(spec, content, opt.seed);
    res.setup_s.push_back(SecondsSince(t0));
  }

  // Measured loop: fixed op lists run in segments; in trace mode the odd
  // segments are traced, so traced and untraced rates see the same store
  // state drift. After each segment, with the clients stopped, comes a gap
  // that runs a share of the repair cycles and `gap` (one repeat of the
  // simulated scenario): medians over segments, cycles and repeats then
  // draw on samples spread over the whole run.
  const auto measured = static_cast<std::uint64_t>(
      std::llround(spec.ops_per_second * opt.seconds));
  constexpr std::uint32_t segments = 8;
  Loop loop{spec, content, *store, Clock::now()};
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<ClientOut> outs(spec.clients);
  for (ClientOut& o : outs) {
    o.get_us.resize(segments);
    o.put_us.resize(segments);
  }
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<Client>(
        loop, c, MakeOps(spec, opt.seed, c, spec.warmup_ops + measured)));
  }
  auto segment_begin = [&](std::uint32_t s) -> std::size_t {
    return spec.warmup_ops + measured * s / segments;
  };
  // The client threads live for the whole loop (a thread per segment would
  // give the allocator fresh arenas and inflate peak RSS). The main thread
  // joins the barrier once to see the warm-up end, so that no segment's
  // wall time includes it, and then twice per segment: to start it and to
  // see it end.
  std::barrier sync(static_cast<std::ptrdiff_t>(spec.clients) + 1);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      clients[c]->Run(0, spec.warmup_ops, -1, false, outs[c]);
      sync.arrive_and_wait();
      for (std::uint32_t s = 0; s < segments; ++s) {
        sync.arrive_and_wait();
        clients[c]->Run(segment_begin(s), segment_begin(s + 1),
                        static_cast<int>(s), opt.trace && s % 2 == 1, outs[c]);
        sync.arrive_and_wait();
      }
    });
  }
  // Counter snapshot around each segment.
  struct Mark {
    Clock::time_point at;
    std::uint64_t solves, hits, misses, jobs;
  };
  ControlPlane& cp = store->control_plane();
  auto stamp = [&cp, &store] {
    const auto totals = cp.CacheTotals();
    return Mark{Clock::now(), cp.ilp_solves(), totals.hits, totals.misses,
                store->data_plane().jobs_run()};
  };

  const ECStoreConfig& cfg = store->config();
  const std::uint64_t chunk_bytes = (spec.block_bytes + cfg.k - 1) / cfg.k;
  const std::uint64_t chunks_read0 = cp.repair_chunks_read();
  Rng site_rng(opt.seed ^ 0x5EE7);
  std::uint32_t cycle = 0;
  // Repair: a site fails and is rebuilt and recovered before the next one.
  auto repair_cycle = [&] {
    const auto site = static_cast<SiteId>(site_rng.NextBounded(cfg.num_sites));
    store->FailSite(site);
    const auto t0 = Clock::now();
    std::uint64_t rebuilt = 0;
    try {
      rebuilt = store->RepairSite(site);
    } catch (const std::exception& e) {
      res.Fail(std::string("RepairSite: ") + e.what());
    }
    const auto t1 = Clock::now();
    store->RecoverSite(site);
    ++res.attempted;
    const double cycle_s = std::chrono::duration<double>(t1 - t0).count();
    res.repair_s += cycle_s;
    res.repair_chunks += rebuilt;
    if (rebuilt > 0) {
      res.repair_cycle_mb_s.push_back(
          static_cast<double>(rebuilt * chunk_bytes) / (1 << 20) / cycle_s);
    }
    if (opt.trace) {
      Span s;
      s.name = "RepairSite";
      s.id = std::uint64_t{0xFF} << 40 | cycle;
      s.request = s.id;
      s.start_us = MicrosBetween(loop.epoch, t0);
      s.end_us = MicrosBetween(loop.epoch, t1);
      s.blocks = static_cast<std::uint32_t>(rebuilt);
      res.spans.push_back(s);
    }
    ++cycle;
  };

  sync.arrive_and_wait();  // clients finished the warm-up
  for (std::uint32_t s = 0; s < segments; ++s) {
    const bool traced = opt.trace && s % 2 == 1;
    const Mark a = stamp();
    sync.arrive_and_wait();  // clients start segment s
    sync.arrive_and_wait();  // clients finished segment s
    const Mark b = stamp();
    const double wall = std::chrono::duration<double>(b.at - a.at).count();
    const std::uint64_t ops =
        (segment_begin(s + 1) - segment_begin(s)) * spec.clients;
    if (traced) {
      res.traced_wall_s += wall;
      res.traced_ops += ops;
      res.traced_solves += b.solves - a.solves;
      res.traced_plan_hits += b.hits - a.hits;
      res.traced_plan_misses += b.misses - a.misses;
      res.traced_jobs += b.jobs - a.jobs;
    } else {
      res.untraced_wall_s += wall;
      res.untraced_ops += ops;
      res.segment_ops_per_s.push_back(static_cast<double>(ops) / wall);
    }
    while (cycle < spec.repair_cycles * (s + 1) / segments) repair_cycle();
    if (gap) gap();
  }
  for (auto& t : threads) t.join();
  res.repair_chunks_read = cp.repair_chunks_read() - chunks_read0;

  for (ClientOut& o : outs) {
    for (const Span& span : o.spans) {
      if (std::string_view(span.name) == "MultiGet") {
        ++res.traced_gets;
        res.traced_get_blocks += span.blocks;
      }
    }
    res.get_us.resize(segments);
    res.put_us.resize(segments);
    for (std::uint32_t s = 0; s < segments; ++s) {
      Append(res.get_us[s], o.get_us[s]);
      Append(res.put_us[s], o.put_us[s]);
    }
    Append(res.remove_us, o.remove_us);
    Append(res.mover_us, o.mover_us);
    Append(res.spans, o.spans);
    Append(res.get_ids, o.get_ids);
    Append(res.insert_ids, o.insert_ids);
    for (std::string& e : o.errors) res.Fail(std::move(e), false);
    res.attempted += o.attempted;
    res.failed += o.failed;
  }

  // Storage: bytes held by every node over live user bytes must be exactly
  // (k+r)/k after padding each chunk to ceil(block/k), repairs included.
  std::vector<BlockId> live(spec.blocks);
  std::iota(live.begin(), live.end(), BlockId{0});
  for (std::uint32_t c = 0; c < spec.clients; ++c) {
    // Each client's live inserted blocks: its last insert_window ids.
    const std::uint64_t made = clients[c]->inserts();
    for (std::uint64_t i = made > spec.insert_window ? made - spec.insert_window : 0;
         i < made; ++i) {
      live.push_back(InsertId(c, i));
    }
  }
  clients.clear();
  res.live_user_bytes = live.size() * spec.block_bytes;
  const std::uint64_t stored = store->TotalStoredBytes();
  res.storage_overhead =
      static_cast<double>(stored) / static_cast<double>(res.live_user_bytes);
  res.expected_overhead = static_cast<double>((cfg.k + cfg.r) * chunk_bytes) /
                          static_cast<double>(spec.block_bytes);
  ++res.attempted;
  if (stored != live.size() * (cfg.k + cfg.r) * chunk_bytes) {
    res.Fail("storage: " + std::to_string(stored) + " bytes stored for " +
             std::to_string(live.size()) + " live blocks");
  }

  // Read-back: every live block, byte for byte, after the repairs.
  constexpr std::size_t kBatch = 8;
  for (std::size_t i = 0; i < live.size(); i += kBatch) {
    const std::span<const BlockId> ids(
        live.data() + i, std::min(kBatch, live.size() - i));
    res.attempted += ids.size();
    try {
      const auto got = store->MultiGet(ids);
      for (std::size_t b = 0; b < ids.size(); ++b) {
        if (!content.Matches(ids[b], got[b], spec.block_bytes)) {
          res.Fail("read-back: wrong bytes for block " + std::to_string(ids[b]));
        }
      }
    } catch (const std::exception& e) {
      res.Fail(std::string("read-back: ") + e.what());
    }
  }

  if (!opt.spans_path.empty()) WriteSpans(opt.spans_path, res.spans);
  if (store_out) *store_out = std::move(store);
  return res;
}

// --- Simulated part ---------------------------------------------------

namespace {

// Counts the events of one run of the harness's closed loop
// (workload/driver.cpp), whose queue does not count them: the loop is
// repeated here with the same config, event order, RNG streams and
// measurement window. RunSimRep checks that it completes the same
// requests with the same mean latency as bench::RunOnce.
class EventCountingLoop {
 public:
  EventCountingLoop(SimECStore& store, WorkloadGenerator& workload,
                    const bench::ExperimentParams& p)
      : store_(store), workload_(workload),
        measure_start_(FromSeconds(p.warmup_s)),
        measure_end_(measure_start_ + FromSeconds(p.measure_s)) {}

  void Run(std::uint32_t clients) {
    sim::EventQueue& queue = store_.queue();
    store_.Start();
    queue.ScheduleAt(measure_start_, [this] { workload_.OnMeasurementStart(); });
    queue.ScheduleAt(measure_end_, [this] { stop_ = true; });
    Rng root(store_.config().seed ^ 0xC11E27);
    for (std::uint32_t c = 0; c < clients; ++c) Issue(root.Split());
    while (queue.Now() <= measure_end_ && queue.Step()) ++events;
  }

  std::uint64_t requests = 0, failures = 0, events = 0;
  double total_us = 0;

 private:
  void Issue(Rng rng) {
    if (stop_) return;
    auto holder = std::make_shared<Rng>(rng);
    std::vector<BlockId> request = workload_.NextRequest(*holder);
    const SimTime issued_at = store_.queue().Now();
    store_.Get(std::move(request), [this, holder,
                                    issued_at](const RequestBreakdown& r) {
      const SimTime now = store_.queue().Now();
      if (issued_at >= measure_start_ && now <= measure_end_) {
        ++requests;
        if (!r.ok) {
          ++failures;
        } else {
          total_us += static_cast<double>(r.total);
        }
      }
      Issue(*holder);
    });
  }

  SimECStore& store_;
  WorkloadGenerator& workload_;
  SimTime measure_start_, measure_end_;
  bool stop_ = false;
};

}  // namespace

void RunSimRep(const SimSpec& spec, const RunOptions& opt, SimResult& res) {
  const bench::ExperimentParams& p = spec.params;
  const std::uint32_t rep = res.reps++;
  const bool pooled = rep < spec.seeds;
  // One seed is the run's own; several are the run's block of seeds.
  const std::uint64_t seed =
      spec.seeds == 1 ? opt.seed : opt.seed * spec.seeds + rep % spec.seeds;
  const auto t0 = Clock::now();
  Clock::time_point loaded;
  std::unique_ptr<ECStoreConfig> config;
  // A probe at every simulated second of the measurement window reads the
  // wall clock and the completed-request count. Probes change no state,
  // so the run's outputs are those of an unprobed run.
  struct Probe {
    Clock::time_point at;
    std::uint64_t completed;
  };
  std::vector<Probe> probes;
  // RunOnce calls the hook once the store is built and loaded.
  const bench::RunResult run = bench::RunOnce(
      Technique::kEcCMLb, p, seed, [&](SimECStore& store) {
        config = std::make_unique<ECStoreConfig>(store.config());
        sim::EventQueue& queue = store.queue();
        const SimTime start = queue.Now() + FromSeconds(p.warmup_s);
        for (SimTime t = start; t <= start + FromSeconds(p.measure_s);
             t += kSecond) {
          queue.ScheduleAt(t, [&probes, &store] {
            probes.push_back({Clock::now(), store.requests_completed()});
          });
        }
        loaded = Clock::now();
      });
  const PhaseMetrics& m = run.metrics;
  res.setup_s.push_back(std::chrono::duration<double>(loaded - t0).count());
  for (std::size_t i = 1; i < probes.size(); ++i) {
    res.req_per_s.push_back(
        static_cast<double>(probes[i].completed - probes[i - 1].completed) /
        std::chrono::duration<double>(probes[i].at - probes[i - 1].at).count());
  }

  const SimResult::Outputs out{m.total.Mean(), m.total.Quantile(0.99),
                               m.requests,     m.failures,
                               run.usage.ilp_solves,
                               run.usage.moves_executed};
  if (rep == 0) res.first = out;
  if (!pooled) {
    res.repeated = true;
    res.deterministic = res.deterministic && out == res.first;
    return;
  }
  res.total.Merge(m.total);
  res.metadata.Merge(m.metadata);
  res.planning.Merge(m.planning);
  res.retrieval.Merge(m.retrieval);
  res.decode.Merge(m.decode);
  res.requests += m.requests;
  res.failures += m.failures;
  res.ilp_solves += run.usage.ilp_solves;
  res.moves += run.usage.moves_executed;
  if (!opt.trace || rep != 0) return;

  SimECStore store(*config);
  YcsbEWorkload::Params yp;
  yp.num_blocks = p.num_blocks;
  yp.block_bytes = p.block_bytes;
  yp.max_scan_length = p.max_scan_length;
  yp.zipf_exponent = p.zipf_exponent;
  YcsbEWorkload workload(yp);
  for (const BlockSpec& b : workload.Blocks()) store.LoadBlock(b.id, b.bytes);
  EventCountingLoop loop(store, workload, p);
  const auto t1 = Clock::now();
  loop.Run(p.clients);
  res.events = loop.events;
  res.events_per_s.push_back(static_cast<double>(loop.events) / SecondsSince(t1));
  const double ok = static_cast<double>(loop.requests - loop.failures);
  if (loop.requests != m.requests || loop.failures != m.failures ||
      std::abs(loop.total_us / ok - out.mean_us) > 1e-9 * out.mean_us) {
    res.copy_matches = false;
  }
}

}  // namespace ecbench
