// The data-access cost model of paper Section IV-B.
//
// cost(Q) = sum_j ( o_j * a_j  +  sum_{B_i in Q} s_ij * m_j * z_i )   (Eq. 1)
//
// where o_j is the dynamic overhead of touching site j at all, m_j the
// per-byte media read cost at site j, z_i the chunk size of block i, and
// s_ij / a_j binary selection variables. Costs are in milliseconds so the
// optimum is an expected-latency minimizer.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/state.h"
#include "common/types.h"

namespace ecstore {

/// Cost-model parameters (Table I), refreshed from the statistics
/// service: o_j from probe RTTs, m_j from media characteristics.
struct CostParams {
  std::vector<double> site_overhead_ms;   // o_j, indexed by site
  std::vector<double> media_ms_per_byte;  // m_j, indexed by site

  /// Convenience constructor for homogeneous clusters (the paper's
  /// testbed): every site gets the same o and m.
  static CostParams Homogeneous(std::size_t num_sites, double overhead_ms,
                                double media_ms_per_byte_each);
};

/// One chunk fetch in an access plan.
struct ChunkRead {
  BlockId block = kInvalidBlock;
  SiteId site = kInvalidSite;
  ChunkIndex chunk = 0;

  bool operator==(const ChunkRead&) const = default;
};

/// A complete access plan for a multi-block request.
struct AccessPlan {
  std::vector<ChunkRead> reads;
  double estimated_cost_ms = 0;  // Eq. 1 value for these reads
  bool optimal = false;          // true when produced by the ILP solver
};

/// What the planner needs to know about one block of a request: how many
/// chunks must be fetched (k, or k + delta with late binding) and where
/// chunks are available.
struct BlockDemand {
  BlockId block = kInvalidBlock;
  std::uint32_t needed = 0;
  std::uint64_t chunk_bytes = 0;  // z_i
  std::vector<ChunkLocation> candidates;
};

/// Builds the demand vector for `blocks` against the current state:
/// candidates are the available chunk locations; `needed` is
/// min(k + delta, #available). A block missing from the catalog, or one
/// with fewer than k available chunks, is unreadable: it gets no demand
/// and is reported via the returned `readable` flags.
struct DemandResult {
  std::vector<BlockDemand> demands;
  std::vector<bool> readable;  // parallel to the input blocks
};
DemandResult BuildDemands(const ClusterState& state,
                          std::span<const BlockId> blocks, std::uint32_t delta);

/// Evaluates Eq. 1 for a concrete set of reads.
double PlanCost(std::span<const ChunkRead> reads,
                std::span<const BlockDemand> demands, const CostParams& params);

}  // namespace ecstore
