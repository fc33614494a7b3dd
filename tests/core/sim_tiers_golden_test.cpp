// Golden pin for the simulator's optional tiers (DESIGN.md §12, §14):
// two short deterministic closed-loop runs whose completed-request count,
// summed latency and tier counters are asserted exactly. The first run is
// the default EC+C+M+LB configuration (every tier off); the second turns
// on the decoded-block cache, prefetch, the replica promoter, admission,
// deadlines, breakers and brownout with parameters that make every tier
// counter move. Any change to a tier policy decision — what is cached,
// prefetched, promoted, shed, or cancelled — moves at least one of these
// numbers; a pure refactor of who owns the tiers moves none.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "common/rng.h"
#include "core/sim_store.h"

namespace ecstore {
namespace {

constexpr std::uint64_t kBlockBytes = 64 * 1024;
constexpr BlockId kBlocks = 64;

struct GoldenOutcome {
  std::uint64_t completed = 0;
  std::uint64_t total_sum = 0;  // Σ RequestBreakdown::total, every callback
  ControlPlaneUsage usage;
};

// Closed loop over three phases: a light load on hot set A (blocks
// 0..31), the same load on hot set B (32..63) so A cools and demotes,
// then a burst of extra clients that drives the overload machinery. Each
// request reads two blocks of one four-block group, so the other two are
// co-access partners a hit can prefetch.
GoldenOutcome RunGolden(const ECStoreConfig& config) {
  SimECStore store(config);
  store.LoadBlocks(0, kBlocks, kBlockBytes);
  store.Start();

  constexpr SimTime kPhase = 3 * kSecond;
  constexpr SimTime kEnd = 3 * kPhase;
  constexpr int kBaseClients = 4;
  constexpr int kBurstClients = 28;
  constexpr SimTime kThink = 1 * kMillisecond;

  Rng rng(2024);
  GoldenOutcome out;
  std::function<void()> issue;
  issue = [&] {
    const SimTime now = store.queue().Now();
    if (now >= kEnd) return;
    const BlockId base = now < kPhase ? 0 : kBlocks / 2;
    // Skewed group choice: groups 0..1 take half the traffic.
    const BlockId group = rng.NextBounded(2) == 0 ? rng.NextBounded(2)
                                                  : rng.NextBounded(8);
    const BlockId first = base + 4 * group;
    const BlockId a = first + rng.NextBounded(4);
    BlockId b = first + rng.NextBounded(4);
    if (b == a) b = first + (a - first + 1) % 4;
    store.Get({a, b}, [&](const RequestBreakdown& r) {
      out.total_sum += static_cast<std::uint64_t>(r.total);
      store.queue().ScheduleAfter(kThink, [&] { issue(); });
    });
  };
  for (int c = 0; c < kBaseClients; ++c) issue();
  store.queue().ScheduleAt(2 * kPhase, [&] {
    for (int c = 0; c < kBurstClients; ++c) issue();
  });
  store.queue().RunUntil(kEnd + kSecond);
  out.completed = store.requests_completed();
  out.usage = store.Usage();
  return out;
}

ECStoreConfig DefaultConfig() {
  ECStoreConfig c = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  c.num_sites = 12;
  c.seed = 17;
  c.co_access_window = 400;
  c.stats_report_interval = 500 * kMillisecond;
  c.mover_chunks_per_sec = 4;
  c.slow_sites = {0};
  c.slow_factor = 8;
  return c;
}

ECStoreConfig AllTiersConfig() {
  ECStoreConfig c = DefaultConfig();
  c.cache_capacity_bytes = 16 * kBlockBytes;
  c.cache_prefetch = true;
  c.replica_budget_bytes = 1 << 20;
  c.promote_min_frequency = 0.05;
  c.demote_frequency = 0.01;
  c.overload.deadline_ms = 20;
  c.overload.admission = true;
  c.overload.admission_max_in_flight = 12;
  c.overload.breakers = true;
  c.overload.breaker_p99_ms = 8;
  c.overload.breaker_open_ms = 200;
  c.overload.breaker_min_samples = 32;
  c.overload.brownout = true;
  c.overload.brownout_dwell_ms = 100;
  return c;
}

// The pinned values were recorded with each store owning its own tiers;
// moving the tiers into ControlPlane left every one of them unchanged.
TEST(SimTierGoldenTest, DefaultTechniqueIsPinned) {
  const GoldenOutcome g = RunGolden(DefaultConfig());
  EXPECT_EQ(g.completed, 10812u);
  EXPECT_EQ(g.total_sum, 110140761u);
}

TEST(SimTierGoldenTest, AllTiersOnArePinned) {
  const GoldenOutcome g = RunGolden(AllTiersConfig());
  const ControlPlaneUsage& u = g.usage;
  EXPECT_EQ(g.completed, 50546u);
  EXPECT_EQ(g.total_sum, 49297296u);
  EXPECT_EQ(u.cache_hits, 85616u);
  EXPECT_EQ(u.cache_misses, 25096u);
  EXPECT_EQ(u.cache_evictions, 2537u);
  EXPECT_EQ(u.cache_invalidations, 47u);
  EXPECT_EQ(u.prefetch_issued, 1613u);
  EXPECT_EQ(u.prefetch_hits, 65u);
  EXPECT_EQ(u.cache_bytes, 1048576u);
  EXPECT_EQ(u.blocks_promoted, 29u);
  EXPECT_EQ(u.blocks_demoted, 15u);
  EXPECT_EQ(u.replica_extra_bytes, 917504u);
  EXPECT_EQ(u.requests_shed, 36970u);
  EXPECT_EQ(u.deadline_exceeded, 223u);
  EXPECT_EQ(u.breaker_opens, 120u);
  EXPECT_EQ(u.breaker_half_open_probes, 290u);
  EXPECT_EQ(u.brownout_level, 2u);
  EXPECT_EQ(u.expired_jobs_cancelled, 314u);
}

// A block the promoter rewrote to rep(3) under an EC technique is read
// like any replica: no GF decode and no reassembly charge, whichever
// replica answers.
TEST(SimTierGoldenTest, PromotedBlockReadsChargeNoDecode) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(Technique::kEcCM);
  c.num_sites = 8;
  c.seed = 7;
  c.co_access_window = 200;
  c.replica_budget_bytes = 1 << 20;
  c.promote_min_frequency = 0.05;
  c.mover_chunks_per_sec = 4;
  SimECStore store(c);
  store.LoadBlocks(0, 8, kBlockBytes);
  store.Start();
  for (int i = 0; i < 40; ++i) {
    store.Get({0}, [](const RequestBreakdown&) {});
    store.queue().RunUntil(store.queue().Now() + 10 * kMillisecond);
  }
  store.queue().RunUntil(store.queue().Now() + kSecond);
  ASSERT_NE(store.promoter(), nullptr);
  ASSERT_TRUE(store.promoter()->IsPromoted(0));
  ASSERT_EQ(store.state().GetBlock(0).codec.family,
            CodecFamilyId::kReplication);

  for (int i = 0; i < 12; ++i) {
    RequestBreakdown r;
    store.Get({0}, [&](const RequestBreakdown& b) { r = b; });
    store.queue().RunUntil(store.queue().Now() + 50 * kMillisecond);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.decode, 0);
  }
}

// A fully cached request completes before its deadline event fires; the
// deadline must not complete it (and release its admission token) again.
TEST(SimTierGoldenTest, CachedRequestCompletesOnceUnderDeadline) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(Technique::kEcCM);
  c.num_sites = 8;
  c.cache_capacity_bytes = 1 << 20;
  c.overload.deadline_ms = 5;
  c.overload.admission = true;
  SimECStore store(c);
  store.LoadBlocks(0, 4, kBlockBytes);
  int callbacks = 0;
  for (int i = 0; i < 2; ++i) {
    store.Get({1}, [&](const RequestBreakdown& r) {
      EXPECT_TRUE(r.ok);
      ++callbacks;
    });
    store.queue().RunUntil(store.queue().Now() + 50 * kMillisecond);
  }
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(store.Usage().cache_hits, 1u);
  EXPECT_EQ(store.Usage().deadline_exceeded, 0u);
  EXPECT_EQ(store.overload()->admission()->in_flight(), 0);
}

}  // namespace
}  // namespace ecstore
