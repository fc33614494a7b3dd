// Access-plan cache (paper Section V-B1).
//
// Solving the ILP takes orders of magnitude longer than a cache lookup,
// so EC-Store serves repeated requests from cached ILP solutions, falls
// back to the greedy plan on a miss, and lets a background solve replace
// the greedy plan for future requests. Entries are invalidated when a
// chunk of a member block moves, or wholesale when the cost parameters
// change epoch (o_j re-estimation).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "placement/cost_model.h"

namespace ecstore {

/// LRU cache keyed by the canonical (sorted) block-id set of a request
/// plus the late-binding delta (with adaptive δ this is the per-request
/// value, so plans solved at different fan-outs never alias). Mutations
/// are not thread-safe; callers serialize them — the ControlPlane owns
/// one instance behind its plane mutex (see core/control_plane.h; the
/// DES additionally runs single-threaded). The hit/miss counters are
/// atomics so diagnostic reads from tests and benches can race ongoing
/// lookups without UB.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 100000);

  /// Canonical key for a request.
  static std::vector<BlockId> CanonicalKey(std::span<const BlockId> blocks);

  /// Looks up a plan for the given blocks at the current epoch. A hit
  /// refreshes LRU position.
  std::optional<AccessPlan> Lookup(std::span<const BlockId> blocks, std::uint32_t delta);

  /// Paper semantics (Section V-B1): reuse any cached plan that
  /// *satisfies* the request — an exact match, or a plan cached for a
  /// superset of the requested blocks, restricted to the requested ones
  /// (a scan of [s, s+5) is satisfied by the cached plan for [s, s+19)).
  std::optional<AccessPlan> LookupSatisfying(std::span<const BlockId> blocks,
                                             std::uint32_t delta);

  /// Inserts or replaces the plan for the given blocks.
  void Insert(std::span<const BlockId> blocks, std::uint32_t delta, AccessPlan plan);

  /// Drops every cached plan that involves `block` (called when one of
  /// its chunks moves or a site fails).
  void InvalidateBlock(BlockId block);

  /// Drops everything: the cost parameters changed materially, so every
  /// cached solution may now be stale (Section V-B1 "dynamically reload").
  void BumpEpoch();

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  double HitRate() const;

  /// Approximate heap usage for the Table III resource report.
  std::size_t ApproxMemoryBytes() const;

 private:
  struct Key {
    std::vector<BlockId> blocks;
    std::uint32_t delta;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    AccessPlan plan;
    std::list<Key>::iterator lru_it;
  };

  void Touch(const Key& key, Entry& entry);
  void EvictIfNeeded();
  void Erase(const Key& key);

  std::size_t capacity_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // Front = most recent.
  std::multimap<BlockId, Key> block_index_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace ecstore
