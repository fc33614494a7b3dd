// ClusterState: the system-state matrix C of the paper (Table I) — which
// block has a chunk on which site — plus per-site inventory aggregates.
//
// This is the shared data structure between the metadata service, the
// chunk read optimizer, and the chunk mover. It is a value-semantics
// catalog: no I/O, no timing; both the simulated cluster and the
// real-bytes LocalCluster embed one.
//
// Thread-safety (DESIGN.md §10): the block catalog is partitioned into
// fixed stripes (hash of block id -> stripe), each guarded by its own
// shared_mutex, so concurrent planners read metadata without serializing
// behind one lock while writers mutate other stripes in parallel. Site
// availability flags are atomics (readable from any thread). The per-site
// inventory aggregates (site_chunk_counts / site_bytes / total_bytes) are
// guarded for writes but returned by reference — read them only while
// catalog mutations are externally serialized (the embodiments' writer
// lock) or at quiescence. GetBlock returns a reference that stays valid
// only while the caller excludes RemoveBlock of that block; fully
// concurrent readers use ReadBlock, which copies under the stripe lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/codec_spec.h"
#include "common/rng.h"
#include "common/types.h"

namespace ecstore {

/// Where one chunk of a block lives.
struct ChunkLocation {
  SiteId site = kInvalidSite;
  ChunkIndex chunk = 0;

  bool operator==(const ChunkLocation&) const = default;
};

/// Catalog entry for one block.
struct BlockInfo {
  std::uint32_t k = 0;            // chunks required to reconstruct
  std::uint32_t r = 0;            // parity / extra copies
  std::uint64_t block_bytes = 0;  // original block size
  std::uint64_t chunk_bytes = 0;  // z_i: size of each chunk
  CodecSpec codec;                // per-block codec family (DESIGN.md §11)
  /// Coherence version (DESIGN.md §12): seeded from the global mutation
  /// counter at AddBlock (so a delete + re-put incarnation never reuses a
  /// version) and bumped on every mutation that can change the block's
  /// bytes or layout — MoveChunk, catalog rewrite, and explicit
  /// BumpBlockVersion calls from repair/scrub rewrites. Block caches
  /// record it at fill time and re-validate on lookup.
  std::uint64_t version = 0;
  std::vector<ChunkLocation> locations;  // SpecTotalChunks(codec) entries
};

/// The state matrix C with c_{i,j} = 1 iff block i has a chunk at site j.
/// Enforces the paper's invariant that no two chunks of a block share a
/// site (which would void the r-fault-tolerance guarantee).
class ClusterState {
 public:
  explicit ClusterState(std::size_t num_sites);

  ClusterState(const ClusterState&) = delete;
  ClusterState& operator=(const ClusterState&) = delete;

  std::size_t num_sites() const { return num_sites_; }
  std::size_t num_blocks() const;

  /// Registers a block with chunks placed at `sites[i]` holding chunk
  /// index i. Throws std::invalid_argument on duplicate block id,
  /// duplicate sites, out-of-range sites, or wrong site count.
  /// This legacy overload infers the codec family: k == 1 means
  /// replication (r extra copies), otherwise RS(k, r).
  void AddBlock(BlockId id, std::uint64_t block_bytes, std::uint64_t chunk_bytes,
                std::uint32_t k, std::uint32_t r, std::span<const SiteId> sites);

  /// Spec-aware registration: `sites` must hold SpecTotalChunks(codec)
  /// entries; BlockInfo.k/r mirror the access-path view (k =
  /// SpecDataChunks, r = total - k) so existing consumers keep working.
  void AddBlock(BlockId id, std::uint64_t block_bytes, std::uint64_t chunk_bytes,
                const CodecSpec& codec, std::span<const SiteId> sites);

  /// Removes a block entirely. Returns false if unknown.
  bool RemoveBlock(BlockId id);

  /// Atomically swaps a block's codec and layout under its stripe lock —
  /// unlike RemoveBlock + AddBlock, the id never vanishes from the
  /// catalog, so a concurrent reader always resolves to either the old
  /// or the new layout, never to "unknown block". Bumps the coherence
  /// version. Used by the hybrid-redundancy rewrites (DESIGN.md §12),
  /// which write the new chunks before calling this and retire the old
  /// ones after. Returns false if the block is unknown; validates
  /// `sites` like AddBlock.
  bool ReplaceBlock(BlockId id, std::uint64_t block_bytes,
                    std::uint64_t chunk_bytes, const CodecSpec& codec,
                    std::span<const SiteId> sites);

  bool Contains(BlockId id) const;

  /// Catalog lookup; throws std::out_of_range for unknown blocks. The
  /// returned reference is stable across concurrent AddBlock (node-based
  /// map) but dies with RemoveBlock of this block — callers must hold the
  /// embodiment's writer serialization or be single-threaded.
  const BlockInfo& GetBlock(BlockId id) const;

  /// Fully concurrent catalog read: copies the entry under the stripe
  /// lock. Returns false when the block is unknown.
  bool ReadBlock(BlockId id, BlockInfo* out) const;

  /// True iff block `id` has a chunk at `site` (c_{i,j} = 1).
  bool HasChunkAt(BlockId id, SiteId site) const;

  /// Moves block `id`'s chunk from `from` to `to`. The chunk keeps its
  /// chunk index (its coded content is unchanged by relocation).
  /// Returns false without changes if `from` holds no chunk of the block
  /// or `to` already holds one (fault-tolerance invariant).
  bool MoveChunk(BlockId id, SiteId from, SiteId to);

  /// Number of chunks stored at each site. See the thread-safety note at
  /// the top: valid only under external writer serialization/quiescence.
  const std::vector<std::uint64_t>& site_chunk_counts() const { return site_chunks_; }

  /// Bytes stored at each site (same caveat as site_chunk_counts).
  const std::vector<std::uint64_t>& site_bytes() const { return site_bytes_; }

  /// Total bytes stored across sites (the storage-overhead metric).
  std::uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  /// Site availability for failure experiments (Section VI-C4). Failed
  /// sites keep their inventory; reads route around them. Atomic: safe
  /// against concurrent planners.
  void SetSiteAvailable(SiteId site, bool available);
  bool IsSiteAvailable(SiteId site) const {
    return available_[site].load(std::memory_order_acquire);
  }
  std::size_t num_available_sites() const;

  /// Locations of a block restricted to available sites.
  std::vector<ChunkLocation> AvailableLocations(BlockId id) const;

  /// Ids of all blocks holding a chunk at `site`, sorted ascending (used
  /// by the repair service to enumerate what a dead site lost).
  std::vector<BlockId> BlocksWithChunkAt(SiteId site) const;

  /// Picks `count` distinct sites uniformly at random — the random
  /// placement baseline the paper compares against [38].
  std::vector<SiteId> PickRandomSites(Rng& rng, std::size_t count) const;

  /// Monotone counter bumped on every mutation; used by plan caches to
  /// detect staleness cheaply.
  std::uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// Per-block coherence version (DESIGN.md §12): cheap read under the
  /// stripe's shared lock. Returns 0 for unknown blocks — caches treat 0
  /// as "gone, invalidate".
  std::uint64_t BlockVersion(BlockId id) const;

  /// Bumps a block's coherence version without changing its layout — for
  /// in-place rewrites (repair/scrub re-encoding a chunk) that change the
  /// chunk's bytes at a site without moving it. Returns false if the
  /// block is unknown.
  bool BumpBlockVersion(BlockId id);

 private:
  // Catalog stripe count. Fixed: stripes only bound lock contention on
  // the block map.
  static constexpr std::size_t kStripes = 64;

  struct Stripe {
    mutable std::shared_mutex mu;
    std::unordered_map<BlockId, BlockInfo> blocks;
  };

  Stripe& StripeOf(BlockId id) { return stripes_[StripeIndex(id)]; }
  const Stripe& StripeOf(BlockId id) const { return stripes_[StripeIndex(id)]; }
  static std::size_t StripeIndex(BlockId id) {
    // Fibonacci multiplicative mix: sequential block ids (the common
    // loader pattern) spread across stripes instead of clustering.
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> 48) %
           kStripes;
  }

  std::size_t num_sites_;
  std::array<Stripe, kStripes> stripes_;
  // Guards the per-site inventory aggregates below against concurrent
  // writers on different stripes (readers: see the header note).
  mutable std::mutex agg_mu_;
  std::vector<std::uint64_t> site_chunks_;
  std::vector<std::uint64_t> site_bytes_;
  std::unique_ptr<std::atomic<bool>[]> available_;
  std::atomic<std::uint64_t> total_bytes_{0};
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace ecstore
