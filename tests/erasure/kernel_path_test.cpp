// Every codec family on every dispatched GF kernel path. For rs(4,2),
// rs(6,3), rs(10,4), lrc(6,2,2) and pb(6,3): decode from every survivor
// set of at least k chunks (every erasure pattern the stripe can suffer)
// and require byte equality with the original block, or a refusal that
// agrees with CanDecode; rebuild every chunk from its repair plan; and
// require identical encodings across paths.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/codec_spec.h"
#include "common/rng.h"
#include "erasure/codec_family.h"
#include "gf/gf256_kernels.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> RandomBlock(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(n);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return block;
}

std::vector<gf::KernelPath> SupportedPaths() {
  std::vector<gf::KernelPath> paths;
  for (gf::KernelPath p : {gf::KernelPath::kScalar, gf::KernelPath::kSsse3,
                           gf::KernelPath::kAvx2}) {
    if (gf::CpuSupports(p)) paths.push_back(p);
  }
  return paths;
}

const char* const kSpecs[] = {"rs(4,2)", "rs(6,3)", "rs(10,4)", "lrc(6,2,2)",
                              "pb(6,3)"};

std::size_t Binomial(std::uint32_t n, std::uint32_t k) {
  std::size_t out = 1;
  for (std::uint32_t i = 1; i <= k; ++i) out = out * (n - k + i) / i;
  return out;
}

TEST(CodecKernelPathTest, RoundTripsEveryErasurePatternOnEveryKernelPath) {
  for (const gf::KernelPath path : SupportedPaths()) {
    ASSERT_TRUE(gf::ForceKernelPath(path));
    for (const char* name : kSpecs) {
      const auto family = GetCodecFamily(ParseCodecSpec(name));
      const std::uint32_t n = family->TotalChunks();
      const std::uint32_t k = family->DataChunks();
      // Not a multiple of k, so the last data chunk is padded.
      const std::size_t block_size = static_cast<std::size_t>(k) * 1000 + 17;
      const auto block = RandomBlock(block_size, 7 * k + n);
      const auto chunks = family->Encode(block);
      ASSERT_EQ(chunks.size(), n);

      std::size_t patterns = 0, decoded = 0;
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (static_cast<std::uint32_t>(std::popcount(mask)) < k) continue;
        std::vector<IndexedChunk> held;
        std::vector<ChunkIndex> indices;
        for (ChunkIndex i = 0; i < n; ++i) {
          if (!(mask & (1u << i))) continue;
          held.push_back({i, chunks[i]});
          indices.push_back(i);
        }
        const auto result = family->TryDecode(held, block_size);
        ASSERT_EQ(result.has_value(), family->CanDecode(indices))
            << "kernel=" << gf::KernelPathName(path) << " " << name
            << " survivors mask " << mask;
        if (family->AnyKDecodes()) {
          ASSERT_TRUE(result.has_value());
        }
        if (result) {
          ASSERT_EQ(*result, block) << "kernel=" << gf::KernelPathName(path)
                                    << " " << name << " survivors mask "
                                    << mask;
          ++decoded;
        }
        ++patterns;
      }
      // Every survivor set of k..n chunks must have been exercised.
      std::size_t expect = 0;
      for (std::uint32_t s = k; s <= n; ++s) expect += Binomial(n, s);
      EXPECT_EQ(patterns, expect) << name;
      // At least every pattern within the fault tolerance decodes.
      std::size_t tolerated = 0;
      for (std::uint32_t e = 0; e <= family->FaultTolerance(); ++e) {
        tolerated += Binomial(n, e);
      }
      EXPECT_GE(decoded, tolerated) << name;
    }
    gf::ResetKernelPath();
  }
}

TEST(CodecKernelPathTest, RepairsEveryChunkOnEveryKernelPath) {
  for (const gf::KernelPath path : SupportedPaths()) {
    ASSERT_TRUE(gf::ForceKernelPath(path));
    for (const char* name : kSpecs) {
      const auto family = GetCodecFamily(ParseCodecSpec(name));
      const std::size_t block_size = 10 * 1024 + 5;
      const auto block = RandomBlock(block_size, 11);
      const auto chunks = family->Encode(block);
      for (ChunkIndex target = 0; target < family->TotalChunks(); ++target) {
        std::vector<ChunkIndex> others;
        for (ChunkIndex c = 0; c < family->TotalChunks(); ++c) {
          if (c != target) others.push_back(c);
        }
        const auto plan = family->PlanRepair(target, others);
        ASSERT_TRUE(plan.has_value()) << name << " chunk " << target;
        std::vector<IndexedChunk> sources;
        for (const ChunkIndex c : plan->Chunks()) {
          sources.push_back({c, chunks[c]});
        }
        const auto rebuilt = family->RepairChunk(target, sources, block_size);
        ASSERT_TRUE(rebuilt.has_value()) << name << " chunk " << target;
        EXPECT_EQ(*rebuilt, chunks[target])
            << "kernel=" << gf::KernelPathName(path) << " " << name
            << " chunk " << target;
      }
    }
    gf::ResetKernelPath();
  }
}

TEST(CodecKernelPathTest, EncodingIsIdenticalAcrossKernelPaths) {
  const auto paths = SupportedPaths();
  const auto block = RandomBlock(100 * 1024 + 3, 99);
  for (const char* name : kSpecs) {
    const auto family = GetCodecFamily(ParseCodecSpec(name));
    std::vector<std::vector<ChunkData>> encodings;
    for (const gf::KernelPath path : paths) {
      ASSERT_TRUE(gf::ForceKernelPath(path));
      encodings.push_back(family->Encode(block));
      gf::ResetKernelPath();
    }
    for (std::size_t i = 1; i < encodings.size(); ++i) {
      EXPECT_EQ(encodings[i], encodings[0])
          << gf::KernelPathName(paths[i]) << " vs "
          << gf::KernelPathName(paths[0]) << " " << name;
    }
  }
}

}  // namespace
}  // namespace ecstore
