// Core identifier and time types shared by every EC-Store module.
#pragma once

#include <cstdint>
#include <vector>

namespace ecstore {

/// Identifies a logical block of user data (the unit of the put/get API).
using BlockId = std::uint64_t;

/// Identifies a storage site (a physical machine in the paper's testbed).
using SiteId = std::uint32_t;

/// Index of a chunk within a block's k+r encoded chunks.
/// Chunks [0, k) are the systematic data chunks; [k, k+r) are parity.
using ChunkIndex = std::uint32_t;

/// Bytes of a single encoded chunk.
using ChunkData = std::vector<std::uint8_t>;

/// A chunk paired with its index within the block's encoding.
struct IndexedChunk {
  ChunkIndex index = 0;
  ChunkData data;
};

/// Simulated time in microseconds. All discrete-event simulation state
/// uses this unit; helpers below convert from human-friendly units.
using SimTime = std::int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * kMillisecond;
constexpr SimTime kMinute = 60 * kSecond;

/// Converts a SimTime duration to fractional milliseconds.
constexpr double ToMillis(SimTime t) { return static_cast<double>(t) / kMillisecond; }

/// Converts fractional milliseconds to SimTime.
constexpr SimTime FromMillis(double ms) { return static_cast<SimTime>(ms * kMillisecond); }

/// Converts fractional seconds to SimTime.
constexpr SimTime FromSeconds(double s) { return static_cast<SimTime>(s * kSecond); }

/// Sentinel for "no site".
constexpr SiteId kInvalidSite = static_cast<SiteId>(-1);

/// Sentinel for "no block".
constexpr BlockId kInvalidBlock = static_cast<BlockId>(-1);

}  // namespace ecstore
