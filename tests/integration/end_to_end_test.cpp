// Integration tests across the whole stack: workload generator ->
// closed-loop driver -> SimECStore -> control-plane services, asserting
// the paper's qualitative claims at small scale, plus cross-embodiment
// consistency between the simulated and the real-bytes stores.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/local_store.h"
#include "core/sim_store.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace ecstore {
namespace {

struct MiniResult {
  double mean_ms = 0;
  double imbalance = 0;
  std::uint64_t requests = 0;
  std::uint64_t moves = 0;
};

MiniResult RunMini(Technique t, std::uint64_t seed) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(t);
  config.num_sites = 16;
  config.seed = seed;
  config.mover_chunks_per_sec = 8;
  SimECStore store(config);

  YcsbEWorkload::Params wp;
  wp.num_blocks = 2000;
  wp.block_bytes = 100 * 1024;
  YcsbEWorkload workload(wp);
  for (const BlockSpec& b : workload.Blocks()) store.LoadBlock(b.id, b.bytes);

  ClosedLoopDriver::Params dp;
  dp.clients = 12;
  dp.warmup = 10 * kSecond;
  dp.measure = 20 * kSecond;
  ClosedLoopDriver driver(&store, &workload, dp);
  driver.Run();

  MiniResult r;
  r.mean_ms = driver.metrics().total.Mean() / kMillisecond;
  r.imbalance = store.ImbalanceLambda(driver.measure_start_bytes());
  r.requests = driver.metrics().requests;
  r.moves = store.Usage().moves_executed;
  return r;
}

class AllTechniquesTest : public ::testing::TestWithParam<Technique> {};

TEST_P(AllTechniquesTest, AllTechniquesComplete) {
  const Technique t = GetParam();
  const MiniResult r = RunMini(t, 3);
  EXPECT_GT(r.requests, 500u) << TechniqueName(t);
  EXPECT_GT(r.mean_ms, 1.0) << TechniqueName(t);
  EXPECT_LT(r.mean_ms, 500.0) << TechniqueName(t);
}

INSTANTIATE_TEST_SUITE_P(
    EndToEndTest, AllTechniquesTest,
    ::testing::Values(Technique::kReplication, Technique::kEc,
                      Technique::kEcLb, Technique::kEcC, Technique::kEcCM,
                      Technique::kEcCMLb),
    [](const ::testing::TestParamInfo<Technique>& info) {
      std::string name = TechniqueName(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(EndToEndTest, CostModelNotWorseThanRandomAccess) {
  // The paper's core claim, at reduced scale: EC+C does not lose to EC.
  double ec = 0, ecc = 0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    ec += RunMini(Technique::kEc, seed).mean_ms;
    ecc += RunMini(Technique::kEcC, seed).mean_ms;
  }
  EXPECT_LT(ecc, ec * 1.02);  // Allow 2% noise; expect an actual win.
}

TEST(EndToEndTest, MoverActuallyMovesUnderSkew) {
  const MiniResult r = RunMini(Technique::kEcCM, 5);
  EXPECT_GT(r.moves, 5u);
}

TEST(EndToEndTest, ReplicationAndEcReadDifferentVolumes) {
  // Per retrieved block, replication reads block_bytes while RS(2,2)
  // reads 2 x block_bytes/2 = block_bytes as well -- but late binding
  // reads 1.5x. Verify the Fig. 4d volume relations end to end.
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcLb);
  config.num_sites = 16;
  config.seed = 9;
  SimECStore lb(config);
  SimECStore ec(ECStoreConfig::ForTechnique(
      Technique::kEc, [&] {
        ECStoreConfig c = config;
        return c;
      }()));
  for (SimECStore* s : {&lb, &ec}) {
    s->LoadBlocks(0, 100, 100 * 1024);
  }
  for (int i = 0; i < 50; ++i) {
    lb.Get({static_cast<BlockId>(i % 100)}, [](const RequestBreakdown&) {});
    ec.Get({static_cast<BlockId>(i % 100)}, [](const RequestBreakdown&) {});
  }
  lb.queue().RunUntil(30 * kSecond);
  ec.queue().RunUntil(30 * kSecond);
  std::uint64_t lb_bytes = 0, ec_bytes = 0;
  for (auto b : lb.SiteBytesRead()) lb_bytes += b;
  for (auto b : ec.SiteBytesRead()) ec_bytes += b;
  EXPECT_EQ(ec_bytes, 50u * 100 * 1024);
  EXPECT_EQ(lb_bytes, 50u * 150 * 1024);  // +50% chunk requests.
}

TEST(EndToEndTest, WikipediaWorkloadDrivesSimStore) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCM);
  config.num_sites = 16;
  config.seed = 11;
  SimECStore store(config);

  WikipediaWorkload::Params wp;
  wp.num_pages = 300;
  wp.size_min_bytes = 32 * 1024;
  wp.size_max_bytes = 1024 * 1024;
  WikipediaWorkload workload(wp);
  for (const BlockSpec& b : workload.Blocks()) store.LoadBlock(b.id, b.bytes);

  ClosedLoopDriver::Params dp;
  dp.clients = 8;
  dp.warmup = 5 * kSecond;
  dp.measure = 10 * kSecond;
  ClosedLoopDriver driver(&store, &workload, dp);
  driver.Run();
  EXPECT_GT(driver.metrics().requests, 100u);
  EXPECT_EQ(driver.metrics().failures, 0u);
}

// Cross-embodiment consistency: the same planner code runs in both
// stores, so a plan computed against LocalECStore state satisfies the
// same constraints the simulator enforces.
TEST(EndToEndTest, EmbodimentsShareSemantics) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcC);
  config.num_sites = 8;
  config.seed = 21;
  LocalECStore local(config);
  Rng rng(1);
  for (BlockId id = 0; id < 10; ++id) {
    std::vector<std::uint8_t> data(512);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextBounded(256));
    local.Put(id, data);
  }
  const std::vector<BlockId> q = {1, 2, 3};
  const DemandResult dr = BuildDemands(local.state(), q, 0);
  const auto plan = IlpPlan(dr.demands, CostParams::Homogeneous(8, 5.0, 1e-5));
  ASSERT_TRUE(plan.has_value());
  // Every planned read hits a chunk the node layer actually stores.
  for (const ChunkRead& read : plan->reads) {
    EXPECT_TRUE(local.node(read.site).HasChunk(read.block, read.chunk));
  }
}

TEST(EndToEndTest, FailuresDuringRunAreSurvived) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcC);
  config.num_sites = 16;
  config.seed = 31;
  SimECStore store(config);
  store.LoadBlocks(0, 500, 100 * 1024);

  YcsbEWorkload::Params wp;
  wp.num_blocks = 500;
  YcsbEWorkload workload(wp);

  ClosedLoopDriver::Params dp;
  dp.clients = 6;
  dp.warmup = 5 * kSecond;
  dp.measure = 20 * kSecond;

  // Fail two sites mid-measurement.
  store.queue().ScheduleAt(12 * kSecond, [&] { store.FailSite(0); });
  store.queue().ScheduleAt(15 * kSecond, [&] { store.FailSite(1); });

  ClosedLoopDriver driver(&store, &workload, dp);
  driver.Run();
  EXPECT_GT(driver.metrics().requests, 200u);
  EXPECT_EQ(driver.metrics().failures, 0u);  // r = 2 covers both failures.
}

}  // namespace
}  // namespace ecstore
