#include "core/local_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> RandomBlock(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> block(n);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return block;
}

ECStoreConfig SmallConfig(Technique t) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(t);
  c.num_sites = 8;
  c.seed = 42;
  return c;
}

TEST(StorageNodeTest, PutGetDelete) {
  StorageNode node;
  node.PutChunk(1, 0, {1, 2, 3});
  EXPECT_TRUE(node.HasChunk(1, 0));
  EXPECT_EQ(node.bytes_stored(), 3u);
  const std::shared_ptr<const ChunkData> got = node.GetChunk(1, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, (ChunkData{1, 2, 3}));
  EXPECT_EQ(node.GetChunk(1, 1), nullptr);
  EXPECT_TRUE(node.DeleteChunk(1, 0));
  EXPECT_FALSE(node.DeleteChunk(1, 0));
  EXPECT_EQ(node.bytes_stored(), 0u);
}

TEST(StorageNodeTest, OverwriteAdjustsBytes) {
  StorageNode node;
  node.PutChunk(1, 0, ChunkData(100));
  node.PutChunk(1, 0, ChunkData(40));
  EXPECT_EQ(node.bytes_stored(), 40u);
  EXPECT_EQ(node.chunk_count(), 1u);
}

TEST(StorageNodeTest, FailedNodeReadsAsMiss) {
  // A failed node answers nullptr, not an exception: under concurrency a
  // site can fail between planning and fetch, and the miss must route the
  // read into the degraded path rather than unwind the fetch worker.
  StorageNode node;
  node.PutChunk(1, 0, {1});
  node.set_available(false);
  EXPECT_EQ(node.GetChunk(1, 0), nullptr);
  node.set_available(true);
  ASSERT_NE(node.GetChunk(1, 0), nullptr);  // Data survived the outage.
}

TEST(StorageNodeTest, ChunkHandleOutlivesDelete) {
  // Readers hold chunks by shared_ptr: a concurrent delete (movement,
  // Remove) must not invalidate bytes already handed out.
  StorageNode node;
  node.PutChunk(1, 0, {7, 8, 9});
  const std::shared_ptr<const ChunkData> got = node.GetChunk(1, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(node.DeleteChunk(1, 0));
  EXPECT_EQ(*got, (ChunkData{7, 8, 9}));
}

class LocalStoreRoundTrip : public ::testing::TestWithParam<Technique> {};

TEST_P(LocalStoreRoundTrip, PutGetRestoresBytes) {
  LocalECStore store(SmallConfig(GetParam()));
  Rng rng(1);
  for (BlockId id = 0; id < 20; ++id) {
    const auto block = RandomBlock(1000 + id * 37, rng);
    store.Put(id, block);
    EXPECT_EQ(store.Get(id), block) << "block " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTechniques, LocalStoreRoundTrip,
                         ::testing::Values(Technique::kReplication, Technique::kEc,
                                           Technique::kEcLb, Technique::kEcC,
                                           Technique::kEcCM, Technique::kEcCMLb));

TEST(LocalStoreTest, MultiGetAlignsWithIds) {
  LocalECStore store(SmallConfig(Technique::kEcC));
  Rng rng(2);
  std::vector<std::vector<std::uint8_t>> blocks;
  for (BlockId id = 0; id < 5; ++id) {
    blocks.push_back(RandomBlock(500 + id, rng));
    store.Put(id, blocks.back());
  }
  const std::vector<BlockId> ids = {4, 0, 2};
  const auto result = store.MultiGet(ids);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], blocks[4]);
  EXPECT_EQ(result[1], blocks[0]);
  EXPECT_EQ(result[2], blocks[2]);
}

TEST(LocalStoreTest, StorageOverheadMatchesScheme) {
  // The paper's storage claim: replication stores 1.5x what RS(2,2) does.
  const std::size_t kBlock = 10000;
  LocalECStore ec(SmallConfig(Technique::kEc));
  LocalECStore rep(SmallConfig(Technique::kReplication));
  Rng rng(3);
  for (BlockId id = 0; id < 10; ++id) {
    const auto block = RandomBlock(kBlock, rng);
    ec.Put(id, block);
    rep.Put(id, block);
  }
  EXPECT_EQ(ec.TotalStoredBytes(), 10 * 2 * kBlock);
  EXPECT_EQ(rep.TotalStoredBytes(), 10 * 3 * kBlock);
}

TEST(LocalStoreTest, RemoveDeletesEverywhere) {
  LocalECStore store(SmallConfig(Technique::kEc));
  Rng rng(4);
  store.Put(1, RandomBlock(100, rng));
  EXPECT_TRUE(store.Remove(1));
  EXPECT_FALSE(store.Contains(1));
  EXPECT_EQ(store.TotalStoredBytes(), 0u);
  EXPECT_FALSE(store.Remove(1));
  EXPECT_THROW(store.Get(1), std::exception);
}

TEST(LocalStoreTest, MultiGetOfRemovedIdThrowsRuntimeError) {
  LocalECStore store(SmallConfig(Technique::kEcCMLb));
  Rng rng(5);
  store.Put(0, RandomBlock(100, rng));
  store.Put(1, RandomBlock(100, rng));
  ASSERT_TRUE(store.Remove(1));
  const std::vector<BlockId> removed = {0, 1};
  EXPECT_THROW(store.MultiGet(removed), std::runtime_error);
  const std::vector<BlockId> never_written = {0, 99};
  EXPECT_THROW(store.MultiGet(never_written), std::runtime_error);
}

TEST(LocalStoreTest, SurvivesRFailures) {
  LocalECStore store(SmallConfig(Technique::kEcC));
  Rng rng(5);
  const auto block = RandomBlock(4096, rng);
  store.Put(1, block);
  // Fail r = 2 of the 4 chunk sites.
  const BlockInfo& info = store.state().GetBlock(1);
  store.FailSite(info.locations[0].site);
  store.FailSite(info.locations[2].site);
  EXPECT_EQ(store.Get(1), block);  // Degraded read succeeds.
}

TEST(LocalStoreTest, TooManyFailuresThrow) {
  LocalECStore store(SmallConfig(Technique::kEc));
  Rng rng(6);
  store.Put(1, RandomBlock(256, rng));
  const BlockInfo info = store.state().GetBlock(1);
  store.FailSite(info.locations[0].site);
  store.FailSite(info.locations[1].site);
  store.FailSite(info.locations[2].site);  // Only 1 of 4 chunks left < k.
  EXPECT_THROW(store.Get(1), std::runtime_error);
}

TEST(LocalStoreTest, RepairRestoresFaultTolerance) {
  LocalECStore store(SmallConfig(Technique::kEcC));
  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> blocks;
  for (BlockId id = 0; id < 10; ++id) {
    blocks.push_back(RandomBlock(2048, rng));
    store.Put(id, blocks.back());
  }
  const SiteId victim = 3;
  const auto lost = store.state().BlocksWithChunkAt(victim);
  store.FailSite(victim);
  const std::uint64_t rebuilt = store.RepairSite(victim);
  EXPECT_EQ(rebuilt, lost.size());
  // After repair, every block tolerates r fresh failures even with the
  // victim still down, and data is intact.
  for (BlockId id = 0; id < 10; ++id) {
    EXPECT_EQ(store.state().AvailableLocations(id).size(), 4u);
    EXPECT_EQ(store.Get(id), blocks[id]);
  }
}

TEST(LocalStoreTest, RepairedChunkHasCorrectContent) {
  // Fail a site, repair, recover the site, fail the *other* original
  // sites: reads must now rely on the reconstructed chunk.
  LocalECStore store(SmallConfig(Technique::kEcC));
  Rng rng(8);
  const auto block = RandomBlock(3333, rng);
  store.Put(1, block);
  const BlockInfo before = store.state().GetBlock(1);
  const SiteId victim = before.locations[0].site;
  store.FailSite(victim);
  ASSERT_EQ(store.RepairSite(victim), 1u);
  store.RecoverSite(victim);

  // Fail two of the three untouched original sites; the surviving set
  // includes the reconstructed chunk.
  store.FailSite(before.locations[1].site);
  store.FailSite(before.locations[2].site);
  EXPECT_EQ(store.Get(1), block);
}

TEST(LocalStoreTest, MovementPreservesData) {
  ECStoreConfig config = SmallConfig(Technique::kEcCM);
  LocalECStore store(config);
  Rng rng(9);
  std::vector<std::vector<std::uint8_t>> blocks;
  for (BlockId id = 0; id < 8; ++id) {
    blocks.push_back(RandomBlock(1024, rng));
    store.Put(id, blocks.back());
  }
  // Create a co-access pattern so the mover has something to chew on.
  for (int round = 0; round < 50; ++round) {
    const std::vector<BlockId> pair = {0, 1};
    (void)store.MultiGet(pair);
  }
  int moves = 0;
  for (int round = 0; round < 10; ++round) {
    if (store.RunMovementRound()) ++moves;
  }
  // Whether or not moves happened, data integrity holds.
  for (BlockId id = 0; id < 8; ++id) {
    EXPECT_EQ(store.Get(id), blocks[id]) << "after " << moves << " moves";
  }
}

TEST(LocalStoreTest, MovementImprovesCoLocation) {
  // Strong co-access between blocks 0 and 1 should eventually co-locate
  // chunks so the pair is readable from fewer sites.
  ECStoreConfig config = SmallConfig(Technique::kEcCM);
  config.mover.candidate_blocks = 8;
  // Isolate the co-access objective (E): with only two live blocks the
  // load term would otherwise dominate and keep shuffling chunks toward
  // idle sites.
  config.mover.w2 = 0;
  LocalECStore store(config);
  Rng rng(10);
  for (BlockId id = 0; id < 6; ++id) store.Put(id, RandomBlock(2048, rng));

  const auto shared_sites = [&] {
    int shared = 0;
    for (SiteId j = 0; j < store.state().num_sites(); ++j) {
      if (store.state().HasChunkAt(0, j) && store.state().HasChunkAt(1, j)) ++shared;
    }
    return shared;
  };

  for (int round = 0; round < 200; ++round) {
    const std::vector<BlockId> pair = {0, 1};
    (void)store.MultiGet(pair);
    if (round % 5 == 0) (void)store.RunMovementRound();
  }
  // With k = 2, two shared sites let the whole pair be read co-located —
  // the minimum the optimizer needs; extra overlap is irrelevant to cost.
  EXPECT_GE(shared_sites(), 2);
}

TEST(LocalStoreTest, SiteFailingMidMultiGetFallsBackToSurvivors) {
  // Regression: a node that dies after planning (metadata still lists it
  // as available) used to make MultiGet throw "chunk missing at planned
  // site". The fetch loop must replan around the dead node instead.
  LocalECStore store(SmallConfig(Technique::kEcC));
  Rng rng(12);
  const auto block = RandomBlock(4096, rng);
  store.Put(1, block);

  // Kill the node only — no FailSite — so the cluster state (and any
  // plan derived from it) still points at the dead site.
  const BlockInfo& info = store.state().GetBlock(1);
  store.node(info.locations[0].site).set_available(false);
  EXPECT_EQ(store.Get(1), block);

  // A second undetected failure still leaves k = 2 reachable chunks.
  store.node(info.locations[1].site).set_available(false);
  EXPECT_EQ(store.Get(1), block);

  // A third leaves fewer than k: the degraded replan must give up loudly.
  store.node(info.locations[2].site).set_available(false);
  EXPECT_THROW(store.Get(1), std::runtime_error);
}

TEST(LocalStoreTest, CachedPlanSurvivesNodeFailure) {
  // Warm the plan cache for a block set, then fail a planned-at node
  // without updating metadata: the cached plan validates against the
  // (stale) state, the fetch falls back, and data still comes back right.
  LocalECStore store(SmallConfig(Technique::kEcC));
  Rng rng(13);
  std::vector<std::vector<std::uint8_t>> blocks;
  for (BlockId id = 0; id < 3; ++id) {
    blocks.push_back(RandomBlock(2000 + id, rng));
    store.Put(id, blocks.back());
  }
  const std::vector<BlockId> ids = {0, 1, 2};
  // Miss -> registered; miss -> ILP queued and drained; third is a hit.
  (void)store.MultiGet(ids);
  (void)store.MultiGet(ids);
  (void)store.MultiGet(ids);
  ASSERT_GT(store.plan_cache().hits(), 0u);

  const BlockInfo& info = store.state().GetBlock(0);
  store.node(info.locations[0].site).set_available(false);
  const auto result = store.MultiGet(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(result[i], blocks[ids[i]]);
  }
}

TEST(LocalStoreTest, IlpRunsOnlyInBackground) {
  // The request path serves cache hits and greedy fallbacks; ILP solves
  // happen in the drained background queue, gated on a set recurring.
  LocalECStore store(SmallConfig(Technique::kEcC));
  Rng rng(14);
  for (BlockId id = 0; id < 4; ++id) store.Put(id, RandomBlock(1024, rng));

  const std::vector<BlockId> ids = {0, 1, 2, 3};
  (void)store.MultiGet(ids);  // First miss: set registered, no solve.
  EXPECT_EQ(store.Usage().ilp_solves, 0u);
  (void)store.MultiGet(ids);  // Recurrence: solve queued, drained after.
  EXPECT_EQ(store.Usage().ilp_solves, 1u);
  (void)store.MultiGet(ids);  // Served from the cache.
  EXPECT_GT(store.plan_cache().hits(), 0u);
  EXPECT_EQ(store.Usage().ilp_solves, 1u);
}

TEST(LocalStoreTest, UsageExposesSharedAccounting) {
  LocalECStore store(SmallConfig(Technique::kEcCM));
  Rng rng(15);
  for (BlockId id = 0; id < 8; ++id) store.Put(id, RandomBlock(1024, rng));
  for (int round = 0; round < 40; ++round) {
    const std::vector<BlockId> pair = {0, 1};
    (void)store.MultiGet(pair);
  }
  std::uint64_t moved = 0;
  for (int round = 0; round < 10; ++round) {
    if (store.RunMovementRound()) ++moved;
  }
  const ControlPlaneUsage usage = store.Usage();
  EXPECT_GT(usage.stats_memory_bytes, 0u);
  EXPECT_GT(usage.mover_memory_bytes, 0u);
  EXPECT_EQ(usage.moves_executed, moved);
  if (moved > 0) {
    EXPECT_GT(usage.mover_network_bytes, 0u);
  }
}

TEST(LocalStoreTest, IdleRefreshStillRecordsProbes) {
  // Regression: RefreshLoadFromCounters used to early-return when no
  // reads happened since the last refresh, freezing o_j at the last busy
  // epoch — drift detection could never see a hot site recover. An idle
  // refresh must still record probes that decay o_j toward the baseline.
  LocalECStore store(SmallConfig(Technique::kEcCM));
  Rng rng(16);
  for (BlockId id = 0; id < 8; ++id) store.Put(id, RandomBlock(1024, rng));

  // Busy phase: concentrate reads so refresh sees skewed utilization and
  // probes push some o_j above others.
  for (int round = 0; round < 130; ++round) {
    const std::vector<BlockId> pair = {0, 1};
    (void)store.MultiGet(pair);
  }
  double max_overhead = 0;
  for (SiteId j = 0; j < store.state().num_sites(); ++j) {
    max_overhead = std::max(max_overhead, store.load_tracker().OverheadMs(j));
  }
  ASSERT_GT(max_overhead, 1.0);  // Some site looked busy.

  // Idle phase: movement rounds refresh with zero reads in the window.
  for (int round = 0; round < 10; ++round) (void)store.RunMovementRound();
  double max_after = 0;
  for (SiteId j = 0; j < store.state().num_sites(); ++j) {
    max_after = std::max(max_after, store.load_tracker().OverheadMs(j));
  }
  // Idle probes report the 1 ms baseline, so every o_j decays toward it.
  EXPECT_LT(max_after, max_overhead);
  EXPECT_LT(max_after, 1.5);
}

TEST(LocalStoreTest, LateBindingStillDecodes) {
  ECStoreConfig config = SmallConfig(Technique::kEcCMLb);
  config.late_binding_delta = 1;
  LocalECStore store(config);
  Rng rng(11);
  const auto block = RandomBlock(999, rng);
  store.Put(1, block);
  EXPECT_EQ(store.Get(1), block);  // Fetches k+1, decodes from k.
}

}  // namespace
}  // namespace ecstore
