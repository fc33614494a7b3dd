// Per-layer metrics of a traced run (--trace 1). Two sources:
//  - the spans of the traced segments, split by the before/after deltas
//    of public counters recorded with each span (plan-cache hits, ILP
//    solves, data-plane jobs, moves);
//  - replays of the workload's recorded inputs (the same ids, sizes and
//    demand sets) through each layer's public functions, run after the
//    measured phase so they never overlap a span.
// Layer names follow the modules under src/.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "bench.h"
#include "cache/block_cache.h"
#include "common/crc32c.h"
#include "core/storage_node.h"
#include "erasure/codec_family.h"
#include "gf/gf256.h"
#include "placement/cost_model.h"

namespace ecbench {

using namespace ecstore;

namespace {

// Replays stop at whichever budget they reach first, so a traced run
// stays short on every workload.
constexpr std::size_t kMaxReplayRequests = 20000;
constexpr std::uint64_t kMaxReplayBytes = std::uint64_t{96} << 20;

double GbPerS(double bytes, double us) { return us > 0 ? bytes / us / 1e3 : 0; }

struct Timer {
  Clock::time_point t0 = Clock::now();
  double Us() const { return MicrosBetween(t0, Clock::now()); }
};

// Codec, GF, CRC and storage-node replays over the recorded inserts.
struct CodecReplay {
  double encode_gb_s = 0, decode_gb_s = 0, muladd_gb_s = 0, crc_gb_s = 0;
  double put_chunk_us = 0, get_chunk_us = 0;
  double decode_us_per_block = 0;
  std::uint64_t wrong = 0;
};

CodecReplay ReplayCodec(const RealSpec& spec, const Content& content,
                        const CodecSpec& codec,
                        const std::vector<BlockId>& inserts) {
  CodecReplay out;
  const auto family = GetCodecFamily(codec);
  std::vector<std::uint8_t> block(spec.block_bytes);
  std::vector<BlockId> ids;
  std::vector<std::vector<ChunkData>> encoded;
  double encode_us = 0;
  std::uint64_t bytes = 0;
  for (BlockId id : inserts) {
    if (bytes >= kMaxReplayBytes || ids.size() >= kMaxReplayRequests) break;
    content.Fill(id, block);
    const Timer t;
    encoded.push_back(family->Encode(block));
    encode_us += t.Us();
    ids.push_back(id);
    bytes += spec.block_bytes;
  }
  out.encode_gb_s = GbPerS(static_cast<double>(bytes), encode_us);

  // GF multiply-accumulate and CRC32C over the same chunks.
  std::vector<std::uint8_t> acc;
  double muladd_us = 0, crc_us = 0, chunk_bytes = 0;
  std::uint32_t crc_sink = 0;
  gf::Elem c = 2;
  for (const auto& chunks : encoded) {
    for (const ChunkData& chunk : chunks) {
      acc.assign(chunk.size(), 0);
      const Timer tm;
      gf::MulAddRegion(c, chunk, acc);
      muladd_us += tm.Us();
      const Timer tc;
      crc_sink ^= Crc32c(chunk.data(), chunk.size());
      crc_us += tc.Us();
      chunk_bytes += static_cast<double>(chunk.size());
      c = static_cast<gf::Elem>(c == 255 ? 2 : c + 1);
    }
  }
  out.muladd_gb_s = GbPerS(chunk_bytes, muladd_us);
  out.crc_gb_s = GbPerS(chunk_bytes, crc_us);
  if (crc_sink == 0x5EED) std::printf("(crc sink)\n");  // keeps the CRCs live

  // Storage node: store every chunk in a fresh node, then read it back.
  StorageNode node;
  double put_us = 0, get_us = 0;
  std::uint64_t puts = 0;
  for (std::size_t b = 0; b < encoded.size(); ++b) {
    for (std::size_t i = 0; i < encoded[b].size(); ++i) {
      ChunkData copy = encoded[b][i];
      const Timer t;
      node.PutChunk(ids[b], static_cast<ChunkIndex>(i), std::move(copy));
      put_us += t.Us();
      ++puts;
    }
  }
  for (std::size_t b = 0; b < encoded.size(); ++b) {
    for (std::size_t i = 0; i < encoded[b].size(); ++i) {
      const Timer t;
      const auto got = node.GetChunk(ids[b], static_cast<ChunkIndex>(i));
      get_us += t.Us();
      if (got == nullptr || *got != encoded[b][i]) ++out.wrong;
    }
  }
  out.put_chunk_us = puts ? put_us / static_cast<double>(puts) : 0;
  out.get_chunk_us = puts ? get_us / static_cast<double>(puts) : 0;

  // Decode from every k-subset in turn, as first-k arrivals would give.
  std::vector<std::vector<ChunkIndex>> subsets;
  const std::uint32_t n = codec.k + codec.r;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::uint32_t>(__builtin_popcount(mask)) != codec.k) continue;
    std::vector<ChunkIndex> s;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (mask >> i & 1) s.push_back(static_cast<ChunkIndex>(i));
    }
    subsets.push_back(s);
  }
  double decode_us = 0;
  std::vector<IndexedChunk> in;
  for (std::size_t b = 0; b < encoded.size(); ++b) {
    in.clear();
    for (ChunkIndex i : subsets[b % subsets.size()]) {
      in.push_back(IndexedChunk{i, encoded[b][i]});
    }
    const Timer t;
    const std::vector<std::uint8_t> got = family->Decode(in, spec.block_bytes);
    decode_us += t.Us();
    if (!content.Matches(ids[b], got, spec.block_bytes)) ++out.wrong;
  }
  out.decode_gb_s = GbPerS(static_cast<double>(bytes), decode_us);
  out.decode_us_per_block =
      encoded.empty() ? 0 : decode_us / static_cast<double>(encoded.size());
  return out;
}

// Control-plane replays over the recorded MultiGet demand sets, on the
// measured store after its traffic has stopped.
struct PlanReplay {
  double read_block_us = 0;     // per block
  double record_request_us = 0; // per request
  double plan_us = 0;           // per request: δ + BuildDemands + SelectAccessPlan
};

PlanReplay ReplayPlanning(LocalECStore& store,
                          const std::vector<std::vector<BlockId>>& gets) {
  PlanReplay out;
  ControlPlane& cp = store.control_plane();
  const std::size_t n = std::min(gets.size(), kMaxReplayRequests);
  double read_us = 0, record_us = 0, plan_us = 0;
  std::uint64_t reads = 0;
  BlockInfo info;
  for (std::size_t i = 0; i < n; ++i) {
    for (BlockId id : gets[i]) {
      const Timer t;
      if (!store.state().ReadBlock(id, &info)) {
        throw std::runtime_error("replay: block missing from the catalog");
      }
      read_us += t.Us();
      ++reads;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Timer t;
    cp.RecordRequest(gets[i]);
    record_us += t.Us();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Timer t;
    const std::uint32_t delta = cp.AdaptiveDelta(gets[i]);
    const DemandResult dr = BuildDemands(store.state(), gets[i], delta);
    const PlanDecision d = cp.SelectAccessPlan(gets[i], dr.demands, delta);
    plan_us += t.Us();
    if (d.plan.reads.empty()) throw std::runtime_error("replay: empty plan");
  }
  store.DrainBackgroundWork();
  out.read_block_us = reads ? read_us / static_cast<double>(reads) : 0;
  out.record_request_us = n ? record_us / static_cast<double>(n) : 0;
  out.plan_us = n ? plan_us / static_cast<double>(n) : 0;
  return out;
}

// A standalone BlockCache at 1/8 of the live data, fed the recorded get
// ids with their running access counts as the λ weight.
struct CacheReplay {
  double lookup_us = 0, insert_us = 0, hit_ratio = 0;
};

CacheReplay ReplayCache(const RealSpec& spec, std::uint64_t live_bytes,
                        const std::vector<std::vector<BlockId>>& gets) {
  CacheReplay out;
  BlockCache cache(std::max<std::uint64_t>(live_bytes / 8, spec.block_bytes));
  const auto data =
      std::make_shared<const std::vector<std::uint8_t>>(spec.block_bytes);
  std::map<BlockId, double> seen;
  double lookup_us = 0, insert_us = 0;
  std::uint64_t lookups = 0, hits = 0, inserts = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> hit;
  const std::size_t n = std::min(gets.size(), kMaxReplayRequests);
  for (std::size_t i = 0; i < n; ++i) {
    for (BlockId id : gets[i]) {
      const double weight = ++seen[id];
      const Timer tl;
      const bool found = cache.Lookup(id, 1, &hit);
      lookup_us += tl.Us();
      ++lookups;
      if (found) {
        ++hits;
        cache.UpdateWeight(id, weight);
        continue;
      }
      const Timer ti;
      cache.Insert(id, data, spec.block_bytes, 1, weight);
      insert_us += ti.Us();
      ++inserts;
    }
  }
  out.lookup_us = lookups ? lookup_us / static_cast<double>(lookups) : 0;
  out.insert_us = inserts ? insert_us / static_cast<double>(inserts) : 0;
  out.hit_ratio = lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0;
  return out;
}

}  // namespace

std::vector<Metric> LayerMetrics(const WorkloadSpec& spec,
                                 const RunOptions& opt, LocalECStore& store,
                                 const RealResult& real, const SimResult& sim) {
  const RealSpec& rs = spec.real;
  const ECStoreConfig& cfg = store.config();
  const CodecSpec codec{CodecFamilyId::kRs, cfg.k, cfg.r, 0};
  const Content content(opt.seed, rs.block_bytes);

  // Spans of the traced segments, classified by their own counter deltas.
  // With two clients both labels are approximate: a span's solve delta can
  // include a solve the other client ran, and the store counts gets to its
  // refresh on its own counter, which two clients can advance in another
  // order than the bench's get_seq.
  std::uint64_t gets = 0;
  std::vector<double> get_us, solve_us, plain_us, refresh_us, mover_us, repair_us;
  std::uint64_t rounds = 0, moves = 0, repair_chunks = 0;
  for (const Span& s : real.spans) {
    const std::string_view name = s.name;
    if (name == "MultiGet") {
      ++gets;
      get_us.push_back(s.Duration());
      if (s.ilp_solves > 0) {
        solve_us.push_back(s.Duration());
      } else if (s.get_seq % 64 == 0) {
        refresh_us.push_back(s.Duration());
      } else {
        plain_us.push_back(s.Duration());
      }
    } else if (name == "RunMovementRound") {
      ++rounds;
      moves += s.moves;
      mover_us.push_back(s.Duration());
    } else if (name == "RepairSite") {
      repair_us.push_back(s.Duration());
      repair_chunks += s.blocks;
    }
  }
  if (gets == 0) throw std::runtime_error("traced run recorded no MultiGet");
  const double plain = Mean(plain_us);
  auto extra = [plain](const std::vector<double>& v) {
    return v.empty() ? 0.0 : Mean(v) - plain;
  };

  const CodecReplay cr = ReplayCodec(rs, content, codec, real.insert_ids);
  const PlanReplay planning = ReplayPlanning(store, real.get_ids);
  const CacheReplay cache = ReplayCache(rs, real.live_user_bytes, real.get_ids);
  if (cr.wrong > 0) throw std::runtime_error("codec replay returned wrong bytes");

  const double attributed =
      planning.record_request_us + planning.plan_us +
      static_cast<double>(rs.scan) * (planning.read_block_us + cr.decode_us_per_block);
  const double chunk_bytes =
      static_cast<double>(SpecChunkBytes(codec, rs.block_bytes));
  const double repair_total_us =
      std::accumulate(repair_us.begin(), repair_us.end(), 0.0);
  const double traced_rate =
      static_cast<double>(real.traced_ops) / real.traced_wall_s;
  const double untraced_rate =
      static_cast<double>(real.untraced_ops) / real.untraced_wall_s;
  std::printf("tracing overhead: traced %.1f ops/s vs untraced %.1f ops/s "
              "(%llu spans)\n",
              traced_rate, untraced_rate,
              static_cast<unsigned long long>(real.spans.size()));

  // Ratios come from the exact segment-wide counter deltas.
  const auto g = static_cast<double>(real.traced_gets);
  const std::uint64_t lookups = real.traced_plan_hits + real.traced_plan_misses;
  return {
      {"gf.muladd_gb_s", cr.muladd_gb_s, "GB/s"},
      {"erasure.encode_gb_s", cr.encode_gb_s, "GB/s"},
      {"erasure.decode_gb_s", cr.decode_gb_s, "GB/s"},
      {"common.crc32c_gb_s", cr.crc_gb_s, "GB/s"},
      {"storage_node.put_chunk_us", cr.put_chunk_us, "us"},
      {"storage_node.get_chunk_us", cr.get_chunk_us, "us"},
      {"cluster.read_block_us", planning.read_block_us, "us"},
      {"stats.record_request_us", planning.record_request_us, "us"},
      {"control_plane.plan_us", planning.plan_us, "us"},
      {"control_plane.plan_hit_ratio",
       lookups ? static_cast<double>(real.traced_plan_hits) /
                     static_cast<double>(lookups)
               : 0,
       "ratio"},
      {"lp.ilp_solves_per_get", static_cast<double>(real.traced_solves) / g,
       "count"},
      {"lp.inline_solve_us", extra(solve_us), "us"},
      {"data_plane.jobs_per_get", static_cast<double>(real.traced_jobs) / g,
       "count"},
      {"data_plane.useful_job_ratio",
       real.traced_jobs ? static_cast<double>(cfg.k * real.traced_get_blocks) /
                              static_cast<double>(real.traced_jobs)
                        : 0,
       "ratio"},
      {"local_store.get_span_us", Mean(get_us), "us"},
      {"local_store.unattributed_us", plain - attributed, "us"},
      {"local_store.refresh_us", extra(refresh_us), "us"},
      {"mover.round_us", Mean(mover_us), "us"},
      {"mover.moves_per_round",
       rounds ? static_cast<double>(moves) / static_cast<double>(rounds) : 0,
       "count"},
      {"repair.chunks_read_per_rebuilt",
       real.repair_chunks ? static_cast<double>(real.repair_chunks_read) /
                                static_cast<double>(real.repair_chunks)
                          : 0,
       "count"},
      {"repair.rebuild_mb_s",
       repair_total_us > 0 ? static_cast<double>(repair_chunks) * chunk_bytes /
                                 (1 << 20) / (repair_total_us / 1e6)
                           : 0,
       "MB/s"},
      {"sim.req_per_s", Median(sim.req_per_s), "1/s"},
      {"sim.events_per_s", Median(sim.events_per_s), "1/s"},
      {"sim.metadata_ms", sim.metadata.Mean() / kMillisecond, "ms"},
      {"sim.planning_ms", sim.planning.Mean() / kMillisecond, "ms"},
      {"sim.retrieval_ms", sim.retrieval.Mean() / kMillisecond, "ms"},
      {"sim.decode_ms", sim.decode.Mean() / kMillisecond, "ms"},
      {"cache.lookup_us", cache.lookup_us, "us"},
      {"cache.insert_us", cache.insert_us, "us"},
      {"cache.hit_ratio", cache.hit_ratio, "ratio"},
      {"trace.ops_ratio", traced_rate / untraced_rate, "ratio"},
  };
}

}  // namespace ecbench
