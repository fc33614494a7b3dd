// Control-plane concurrency stress (DESIGN.md §10): reader threads
// MultiGet while writers Put fresh blocks, a chaos thread fails/recovers
// sites, and a mover thread runs movement rounds — all against a store
// with a live background ILP executor pool. The sanitizer CI stages run
// this binary under both ASan and TSan (run_sanitizers.sh); any
// lock-order violation between the plane mutex, the RNG and load locks,
// the catalog stripes, and the executor pool trips TSan here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/local_store.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> PatternBlock(BlockId id, std::size_t n) {
  std::vector<std::uint8_t> block(n);
  for (std::size_t i = 0; i < n; ++i) {
    block[i] = static_cast<std::uint8_t>((id * 197 + i * 13) & 0xFF);
  }
  return block;
}

TEST(ShardStressTest, MultiGetPutFailureAndMovementRace) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 12;
  config.seed = 2024;
  config.ilp_executor_threads = 2;
  LocalECStore store(config);

  // Seed corpus: ids [0, kSeeded) always present; writers append above.
  constexpr BlockId kSeeded = 32;
  constexpr std::size_t kBlockBytes = 1536;
  for (BlockId id = 0; id < kSeeded; ++id) {
    store.Put(id, PatternBlock(id, kBlockBytes));
  }

  std::atomic<bool> stop{false};
  std::atomic<BlockId> next_id{kSeeded};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> read_errors{0};

  // Readers: random batches over the stable seeded range so the expected
  // bytes are always known, racing everything else.
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(5000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<BlockId> ids;
        const std::size_t batch = 1 + rng.NextBounded(4);
        for (std::size_t b = 0; b < batch; ++b) {
          ids.push_back(rng.NextBounded(kSeeded));
        }
        try {
          const auto got = store.MultiGet(ids);
          for (std::size_t i = 0; i < ids.size(); ++i) {
            if (got[i] != PatternBlock(ids[i], kBlockBytes)) {
              mismatches.fetch_add(1);
            }
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          // Transient unreadability is allowed mid-failure; corruption
          // is not (checked above).
          read_errors.fetch_add(1);
        }
      }
    });
  }

  // Writer: keeps Put racing the read path and the mover.
  std::thread writer([&] {
    Rng rng(6001);
    while (!stop.load(std::memory_order_relaxed)) {
      const BlockId id = next_id.fetch_add(1);
      try {
        store.Put(id, PatternBlock(id, 512 + rng.NextBounded(1024)));
      } catch (const std::exception&) {
        // Put may fail while a site is down (not enough available
        // sites); acceptable under chaos.
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Chaos: fail one site, let traffic run degraded, recover it. One site
  // out of 12 leaves k=2 reachable for every RS(2,2) block.
  std::thread chaos([&] {
    Rng rng(7002);
    while (!stop.load(std::memory_order_relaxed)) {
      const SiteId site = rng.NextBounded(config.num_sites);
      store.FailSite(site);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      store.RecoverSite(site);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Mover: movement rounds re-place chunks and invalidate plans.
  std::thread mover([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      store.RunMovementRound();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& r : readers) r.join();
  writer.join();
  chaos.join();
  mover.join();

  EXPECT_EQ(mismatches.load(), 0) << "read returned corrupt bytes";
  EXPECT_GT(reads.load(), 0u);

  // Quiesce: drain deferred ILP work, then verify the whole seeded
  // corpus decodes to the written bytes with all sites healthy.
  store.DrainBackgroundWork();
  for (BlockId id = 0; id < kSeeded; ++id) {
    EXPECT_EQ(store.Get(id), PatternBlock(id, kBlockBytes)) << "block " << id;
  }

  // The plan-cache counters stayed coherent: every read looked it up.
  const auto totals = store.control_plane().CacheTotals();
  EXPECT_GE(totals.hits + totals.misses, reads.load());
}

}  // namespace
}  // namespace ecstore
