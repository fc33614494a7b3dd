// Golden encodings: the CRC32C of every chunk one seeded block encodes
// to, per codec family. Stored chunks outlive the code that wrote them,
// so any change to a generator, the chunk layout, padding or the
// piggyback placement shows up here as a changed on-disk encoding.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/codec_spec.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "erasure/codec_family.h"

namespace ecstore {
namespace {

struct Golden {
  const char* spec;
  std::vector<std::uint32_t> chunk_crcs;
};

const Golden kGolden[] = {
    {"rs(2,2)", {0xF5EAAF93u, 0xA139295Eu, 0xB90FA45Au, 0xB27C181Bu}},
    {"rs(6,3)",
     {0x3CE8AF50u, 0x462A8BB9u, 0x234F4D9Fu, 0x0904BDC4u, 0xEA9E9E97u,
      0x71DD2FB1u, 0xFA89716Eu, 0x98639E9Eu, 0x7FF714E8u}},
    {"lrc(6,2,2)",
     {0x3CE8AF50u, 0x462A8BB9u, 0x234F4D9Fu, 0x0904BDC4u, 0xEA9E9E97u,
      0x71DD2FB1u, 0x598D6976u, 0x92470CE2u, 0x5B1276A5u, 0x39912C32u}},
    {"pb(6,3)",
     {0x947FA7FBu, 0x10532CD4u, 0x34A31A21u, 0x5031636Fu, 0xFE7AA8A2u,
      0x52C253C2u, 0xBD52DB19u, 0x8C1D997Du, 0x75700DA8u}},
    {"rep(2)", {0x01C35A52u, 0x01C35A52u, 0x01C35A52u}},
};

TEST(GoldenEncodingTest, ChunkCrcsArePinned) {
  // 1 MiB + 17 bytes: not a multiple of any k, so every family pads.
  Rng rng(20180702);
  std::vector<std::uint8_t> block((1u << 20) + 17);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.Next());

  for (const Golden& golden : kGolden) {
    const auto family = GetCodecFamily(ParseCodecSpec(golden.spec));
    const auto chunks = family->Encode(block);
    ASSERT_EQ(chunks.size(), golden.chunk_crcs.size()) << golden.spec;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(Crc32c(chunks[i].data(), chunks[i].size()),
                golden.chunk_crcs[i])
          << golden.spec << " chunk " << i;
    }
  }
}

}  // namespace
}  // namespace ecstore
