// Codec behaviour through the CodecFamily interface: shapes, input
// checks, round trips and repair for Reed-Solomon, replication and
// Azure-LRC.
#include "erasure/codec_family.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/codec_spec.h"
#include "common/rng.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> RandomBlock(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> block(n);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return block;
}

std::vector<IndexedChunk> Pick(const std::vector<ChunkData>& chunks,
                               const std::vector<ChunkIndex>& indices) {
  std::vector<IndexedChunk> out;
  for (ChunkIndex i : indices) out.push_back({i, chunks[i]});
  return out;
}

std::shared_ptr<const CodecFamily> Rs(std::uint32_t k, std::uint32_t r) {
  return GetCodecFamily(CodecSpec{CodecFamilyId::kRs, k, r, 0});
}

std::shared_ptr<const CodecFamily> Rep(std::uint32_t r) {
  return GetCodecFamily(CodecSpec{CodecFamilyId::kReplication, 1, r, 0});
}

std::shared_ptr<const CodecFamily> Lrc(std::uint32_t k, std::uint32_t l,
                                       std::uint32_t g) {
  return GetCodecFamily(CodecSpec{CodecFamilyId::kAzureLrc, k, g, l});
}

double Overhead(const CodecFamily& family) {
  return static_cast<double>(family.TotalChunks()) / family.DataChunks();
}

TEST(ReedSolomonTest, RejectsBadParameters) {
  EXPECT_THROW(Rs(1, 2), std::invalid_argument);
  EXPECT_THROW(Rs(2, 0), std::invalid_argument);
  EXPECT_THROW(Rs(200, 57), std::invalid_argument);
}

TEST(ReedSolomonTest, BasicShape) {
  const auto codec = Rs(2, 2);
  EXPECT_EQ(codec->DataChunks(), 2u);
  EXPECT_EQ(codec->TotalChunks(), 4u);
  EXPECT_EQ(codec->FaultTolerance(), 2u);
  EXPECT_EQ(codec->ChunkSize(100), 50u);
  EXPECT_EQ(codec->ChunkSize(101), 51u);  // Rounds up.
}

TEST(ReedSolomonTest, EncodeProducesEqualSizedChunks) {
  const auto codec = Rs(3, 2);
  Rng rng(1);
  const auto block = RandomBlock(1000, rng);
  const auto chunks = codec->Encode(block);
  ASSERT_EQ(chunks.size(), 5u);
  for (const auto& c : chunks) EXPECT_EQ(c.size(), codec->ChunkSize(1000));
}

TEST(ReedSolomonTest, SystematicChunksAreDataSplits) {
  const auto codec = Rs(2, 1);
  std::vector<std::uint8_t> block = {1, 2, 3, 4, 5, 6};
  const auto chunks = codec->Encode(block);
  EXPECT_EQ(chunks[0], (ChunkData{1, 2, 3}));
  EXPECT_EQ(chunks[1], (ChunkData{4, 5, 6}));
}

TEST(ReedSolomonTest, DecodeFromSystematicChunks) {
  const auto codec = Rs(2, 2);
  Rng rng(2);
  const auto block = RandomBlock(100 * 1024, rng);  // Paper's 100 KB default.
  const auto chunks = codec->Encode(block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {0, 1}), block.size()), block);
}

// The MDS property, exhaustively: any k of k+r chunks reconstruct.
TEST(ReedSolomonTest, AnyKSubsetDecodesRs22) {
  const auto codec = Rs(2, 2);
  Rng rng(3);
  const auto block = RandomBlock(1003, rng);  // Odd size exercises padding.
  const auto chunks = codec->Encode(block);
  for (ChunkIndex a = 0; a < 4; ++a) {
    for (ChunkIndex b = a + 1; b < 4; ++b) {
      EXPECT_EQ(codec->Decode(Pick(chunks, {a, b}), block.size()), block)
          << "chunks " << a << "," << b;
    }
  }
}

TEST(ReedSolomonTest, DecodeOrderDoesNotMatter) {
  const auto codec = Rs(2, 2);
  Rng rng(4);
  const auto block = RandomBlock(512, rng);
  const auto chunks = codec->Encode(block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {3, 0}), block.size()), block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {0, 3}), block.size()), block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {3, 2}), block.size()), block);
}

TEST(ReedSolomonTest, ExtraChunksIgnored) {
  const auto codec = Rs(2, 2);
  Rng rng(5);
  const auto block = RandomBlock(256, rng);
  const auto chunks = codec->Encode(block);
  // Late binding delivers more than k chunks; decode uses the first k.
  EXPECT_EQ(codec->Decode(Pick(chunks, {1, 2, 3}), block.size()), block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {0, 1, 2, 3}), block.size()), block);
}

TEST(ReedSolomonTest, DuplicateChunksRejected) {
  const auto codec = Rs(2, 2);
  Rng rng(6);
  const auto block = RandomBlock(64, rng);
  const auto chunks = codec->Encode(block);
  EXPECT_THROW(codec->Decode(Pick(chunks, {1, 1}), block.size()),
               std::invalid_argument);
  // The same chunk twice has rank 1.
  const auto rs21 = Rs(2, 1);
  const auto small = rs21->Encode(block);
  EXPECT_FALSE(rs21->TryDecode(Pick(small, {0, 0}), block.size()).has_value());
}

TEST(ReedSolomonTest, DuplicateChunksAreIgnoredNotDoubleCounted) {
  // Duplicates must be skipped even when they arrive interleaved with
  // fresh indices.
  const auto codec = Rs(4, 2);
  Rng rng(5);
  const auto block = RandomBlock(4096, rng);
  const auto chunks = codec->Encode(block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {5, 5, 1, 1, 4, 5, 2, 0}), block.size()),
            block);
}

TEST(ReedSolomonTest, TooFewChunksRejected) {
  const auto codec = Rs(3, 2);
  Rng rng(7);
  const auto block = RandomBlock(64, rng);
  const auto chunks = codec->Encode(block);
  EXPECT_THROW(codec->Decode(Pick(chunks, {0, 1}), block.size()),
               std::invalid_argument);
  EXPECT_FALSE(
      codec->TryDecode(Pick(chunks, {0, 4}), block.size()).has_value());
  const std::vector<ChunkIndex> two = {0, 4};
  EXPECT_FALSE(codec->CanDecode(two));
}

TEST(ReedSolomonTest, OutOfRangeIndexRejected) {
  const auto codec = Rs(2, 1);
  std::vector<IndexedChunk> bad = {{7, ChunkData(10)}, {0, ChunkData(10)}};
  EXPECT_THROW(codec->Decode(bad, 20), std::invalid_argument);
}

TEST(ReedSolomonTest, WrongChunkSizeRejected) {
  const auto codec = Rs(2, 1);
  Rng rng(8);
  const auto block = RandomBlock(100, rng);
  auto chunks = codec->Encode(block);
  chunks[0].pop_back();
  EXPECT_THROW(codec->Decode(Pick(chunks, {0, 1}), block.size()),
               std::invalid_argument);
  EXPECT_THROW(codec->Decode(Pick(chunks, {2, 0}), block.size()),
               std::invalid_argument);
}

TEST(ReedSolomonTest, EmptyBlockRoundTrips) {
  const auto codec = Rs(2, 2);
  const std::vector<std::uint8_t> empty;
  const auto chunks = codec->Encode(empty);
  EXPECT_EQ(codec->Decode(Pick(chunks, {2, 3}), 0).size(), 0u);
}

TEST(ReedSolomonTest, OneByteBlockRoundTrips) {
  const auto codec = Rs(2, 2);
  const std::vector<std::uint8_t> one = {0xAB};
  const auto chunks = codec->Encode(one);
  for (ChunkIndex a = 0; a < 4; ++a) {
    for (ChunkIndex b = a + 1; b < 4; ++b) {
      EXPECT_EQ(codec->Decode(Pick(chunks, {a, b}), 1), one);
    }
  }
}

TEST(ReedSolomonTest, RepairChunkRebuildsAnyRow) {
  const auto codec = Rs(2, 2);
  Rng rng(4);
  const auto block = RandomBlock(512, rng);
  const auto chunks = codec->Encode(block);
  for (ChunkIndex target = 0; target < 4; ++target) {
    // Repair `target` from two other chunks.
    std::vector<ChunkIndex> sources;
    for (ChunkIndex i = 0; i < 4 && sources.size() < 2; ++i) {
      if (i != target) sources.push_back(i);
    }
    const auto rebuilt =
        codec->RepairChunk(target, Pick(chunks, sources), block.size());
    ASSERT_TRUE(rebuilt.has_value()) << "target " << target;
    EXPECT_EQ(*rebuilt, chunks[target]);
  }
}

// Parameterized sweep across (k, r) configurations and block sizes:
// property-test the MDS guarantee with randomly chosen chunk subsets.
class RsParamTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, std::size_t>> {};

TEST_P(RsParamTest, RandomKSubsetsDecode) {
  const auto [k, r, size] = GetParam();
  const auto codec = Rs(k, r);
  Rng rng(1000 + k * 31 + r * 7 + size);
  const auto block = RandomBlock(size, rng);
  const auto chunks = codec->Encode(block);

  for (int trial = 0; trial < 10; ++trial) {
    // Random k-subset of [0, k+r).
    std::vector<ChunkIndex> all(k + r);
    std::iota(all.begin(), all.end(), 0u);
    for (std::size_t i = all.size(); i > 1; --i) {
      std::swap(all[i - 1], all[rng.NextBounded(i)]);
    }
    all.resize(k);
    EXPECT_EQ(codec->Decode(Pick(chunks, all), block.size()), block);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, RsParamTest,
    ::testing::Values(
        std::make_tuple(2u, 1u, 1000u), std::make_tuple(2u, 2u, 1000u),
        std::make_tuple(3u, 2u, 1000u), std::make_tuple(4u, 2u, 1000u),
        std::make_tuple(6u, 3u, 1000u), std::make_tuple(10u, 4u, 1000u),
        std::make_tuple(2u, 2u, 1u), std::make_tuple(2u, 2u, 17u),
        std::make_tuple(3u, 3u, 100001u), std::make_tuple(5u, 1u, 4097u)));

// --- Replication ------------------------------------------------------------

TEST(ReplicationTest, RejectsZeroFaults) {
  EXPECT_THROW(Rep(0), std::invalid_argument);
}

TEST(ReplicationTest, Shape) {
  const auto codec = Rep(2);
  EXPECT_EQ(codec->DataChunks(), 1u);
  EXPECT_EQ(codec->TotalChunks(), 3u);  // Paper: three copies.
  EXPECT_EQ(codec->FaultTolerance(), 2u);
  EXPECT_EQ(codec->ChunkSize(12345), 12345u);
}

TEST(ReplicationTest, EveryReplicaIsTheBlock) {
  const auto codec = Rep(2);
  Rng rng(9);
  const auto block = RandomBlock(100, rng);
  const auto copies = codec->Encode(block);
  ASSERT_EQ(copies.size(), 3u);
  for (const auto& c : copies) EXPECT_EQ(c, block);
}

TEST(ReplicationTest, AnySingleReplicaDecodes) {
  const auto codec = Rep(2);
  Rng rng(10);
  const auto block = RandomBlock(100, rng);
  const auto copies = codec->Encode(block);
  for (ChunkIndex i = 0; i < 3; ++i) {
    EXPECT_EQ(codec->Decode(Pick(copies, {i}), block.size()), block);
  }
}

TEST(ReplicationTest, NoChunksRejected) {
  const auto codec = Rep(2);
  std::vector<IndexedChunk> none;
  EXPECT_THROW(codec->Decode(none, 10), std::invalid_argument);
}

TEST(ReplicationTest, OutOfRangeAndWrongSizeRejected) {
  const auto codec = Rep(2);
  const std::vector<IndexedChunk> out_of_range = {{3, ChunkData(10)}};
  EXPECT_THROW(codec->Decode(out_of_range, 10), std::invalid_argument);
  const std::vector<IndexedChunk> short_copy = {{1, ChunkData(9)}};
  EXPECT_THROW(codec->Decode(short_copy, 10), std::invalid_argument);
}

// Storage-overhead comparison, the paper's core motivation: replication
// stores 50% more than RS(2,2) at equal fault tolerance.
TEST(CodecComparisonTest, PaperStorageOverheadClaim) {
  const auto ec = Rs(2, 2);
  const auto rep = Rep(2);
  EXPECT_EQ(ec->FaultTolerance(), rep->FaultTolerance());
  EXPECT_DOUBLE_EQ(Overhead(*ec), 2.0);
  EXPECT_DOUBLE_EQ(Overhead(*rep), 3.0);
  EXPECT_DOUBLE_EQ(Overhead(*rep) / Overhead(*ec), 1.5);
}

// --- LRC ---------------------------------------------------------------------

TEST(LrcTest, RejectsBadParameters) {
  EXPECT_THROW(Lrc(5, 2, 2), std::invalid_argument);  // k % l != 0.
  EXPECT_THROW(Lrc(4, 0, 2), std::invalid_argument);
  EXPECT_THROW(Lrc(4, 2, 0), std::invalid_argument);
}

TEST(LrcTest, ShapeAndOverhead) {
  const auto lrc = Lrc(12, 2, 2);  // Azure's production parameters.
  EXPECT_EQ(lrc->TotalChunks(), 16u);
  EXPECT_EQ(lrc->DataChunks(), 12u);
  EXPECT_NEAR(Overhead(*lrc), 16.0 / 12.0, 1e-12);
}

TEST(LrcTest, RoundTripsWithAllChunks) {
  const auto lrc = Lrc(6, 2, 2);
  Rng rng(5);
  const auto block = RandomBlock(6000, rng);
  const auto chunks = lrc->Encode(block);
  ASSERT_EQ(chunks.size(), 10u);
  std::vector<ChunkIndex> all(10);
  std::iota(all.begin(), all.end(), 0u);
  const auto decoded = lrc->TryDecode(Pick(chunks, all), block.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(LrcTest, WrongChunkSizeRejected) {
  const auto lrc = Lrc(6, 2, 2);
  Rng rng(12);
  const auto block = RandomBlock(600, rng);
  auto chunks = lrc->Encode(block);
  chunks[9].pop_back();
  // Every chunk offered is checked, used by the decode or not.
  EXPECT_THROW(
      lrc->TryDecode(Pick(chunks, {0, 1, 2, 3, 4, 5, 9}), block.size()),
      std::invalid_argument);
}

TEST(LrcTest, GroupAssignment) {
  const CodecSpec spec{CodecFamilyId::kAzureLrc, 6, 2, 2};  // {0,1,2} {3,4,5}
  EXPECT_EQ(PlacementGroupOf(spec, 0), 0u);
  EXPECT_EQ(PlacementGroupOf(spec, 2), 0u);
  EXPECT_EQ(PlacementGroupOf(spec, 3), 1u);
  EXPECT_EQ(PlacementGroupOf(spec, 6), 0u);  // First local parity.
  EXPECT_EQ(PlacementGroupOf(spec, 7), 1u);
  EXPECT_FALSE(PlacementGroupOf(spec, 8).has_value());  // Global parity.
  EXPECT_FALSE(PlacementGroupOf(spec, 9).has_value());
}

TEST(LrcTest, LocalRepairReadsOnlyItsGroup) {
  const CodecSpec spec{CodecFamilyId::kAzureLrc, 12, 2, 2};
  const auto lrc = GetCodecFamily(spec);
  std::vector<ChunkIndex> others;
  for (ChunkIndex c = 0; c < 16; ++c) {
    if (c != 3) others.push_back(c);
  }
  const auto plan = lrc->PlanRepair(3, others);
  ASSERT_TRUE(plan.has_value());
  // Repair reads the group's 5 data siblings + its local parity, versus
  // k = 12 for an RS code — the entire point of LRC.
  EXPECT_EQ(plan->reads.size(), 6u);
  for (const ChunkIndex c : plan->Chunks()) {
    EXPECT_EQ(PlacementGroupOf(spec, c), PlacementGroupOf(spec, 3)) << c;
  }
  // A global parity has no local group: it needs a full-k rebuild.
  others.push_back(3);
  others.erase(std::find(others.begin(), others.end(), 15));
  const auto global = lrc->PlanRepair(15, others);
  ASSERT_TRUE(global.has_value());
  EXPECT_EQ(global->reads.size(), 12u);
}

TEST(LrcTest, SingleFailureRepairsLocally) {
  const auto lrc = Lrc(6, 2, 2);
  Rng rng(6);
  const auto block = RandomBlock(3001, rng);
  const auto chunks = lrc->Encode(block);
  // Every data chunk and every local parity repairs from its group.
  for (ChunkIndex failed = 0; failed < 8; ++failed) {
    std::vector<ChunkIndex> others;
    for (ChunkIndex c = 0; c < 10; ++c) {
      if (c != failed) others.push_back(c);
    }
    const auto plan = lrc->PlanRepair(failed, others);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reads.size(), 3u) << "chunk " << failed;
    const auto rebuilt =
        lrc->RepairChunk(failed, Pick(chunks, plan->Chunks()), block.size());
    ASSERT_TRUE(rebuilt.has_value()) << "chunk " << failed;
    EXPECT_EQ(*rebuilt, chunks[failed]) << "chunk " << failed;
  }
}

TEST(LrcTest, RepairRejectsIncompleteGroup) {
  const auto lrc = Lrc(6, 2, 2);
  Rng rng(7);
  const auto block = RandomBlock(600, rng);
  const auto chunks = lrc->Encode(block);
  // Group 0 is data {0, 1, 2} + local parity 6; drop the parity.
  EXPECT_FALSE(
      lrc->RepairChunk(0, Pick(chunks, {1, 2}), block.size()).has_value());
}

TEST(LrcTest, SurvivesOneFailurePerGroupPlusGlobals) {
  // Erase one data chunk from each group; the locals + globals cover it.
  const auto lrc = Lrc(6, 2, 2);
  Rng rng(8);
  const auto block = RandomBlock(2000, rng);
  const auto chunks = lrc->Encode(block);
  // Failed: chunks 0 and 3. Available: everything else.
  const auto decoded =
      lrc->TryDecode(Pick(chunks, {1, 2, 4, 5, 6, 7, 8, 9}), block.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(LrcTest, SurvivesGlobalParityWorthOfDataFailures) {
  // Two failures in the SAME group need the globals.
  const auto lrc = Lrc(6, 2, 2);
  Rng rng(9);
  const auto block = RandomBlock(2000, rng);
  const auto chunks = lrc->Encode(block);
  const auto decoded =  // Lost 0, 1.
      lrc->TryDecode(Pick(chunks, {2, 3, 4, 5, 6, 7, 8, 9}), block.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(LrcTest, TooManyFailuresDetected) {
  // Losing a whole group's data + its parity exceeds the code's
  // distance; TryDecode must refuse rather than corrupt.
  const auto lrc = Lrc(6, 2, 2);
  Rng rng(10);
  const auto block = RandomBlock(2000, rng);
  const auto chunks = lrc->Encode(block);
  // Lost 0, 1, 2 (whole group 0) + 6 (its parity): 4 erasures, only 2
  // globals to help -> unrecoverable.
  EXPECT_FALSE(
      lrc->TryDecode(Pick(chunks, {3, 4, 5, 7, 8, 9}), block.size()).has_value());
  EXPECT_THROW(lrc->Decode(Pick(chunks, {3, 4, 5, 7, 8, 9}), block.size()),
               std::invalid_argument);
}

TEST(LrcTest, CanDecodeAgreesWithTryDecode) {
  const auto lrc = Lrc(4, 2, 1);
  Rng rng(11);
  const auto block = RandomBlock(444, rng);
  const auto chunks = lrc->Encode(block);
  // Sweep all subsets of the 7 chunks; CanDecode and TryDecode agree.
  for (unsigned mask = 0; mask < (1u << 7); ++mask) {
    std::vector<ChunkIndex> subset;
    for (ChunkIndex i = 0; i < 7; ++i) {
      if (mask & (1u << i)) subset.push_back(i);
    }
    const auto decoded = lrc->TryDecode(Pick(chunks, subset), block.size());
    EXPECT_EQ(lrc->CanDecode(subset), decoded.has_value()) << "mask " << mask;
    if (decoded) {
      EXPECT_EQ(*decoded, block);
    }
  }
}

}  // namespace
}  // namespace ecstore
