// ControlPlane: the embodiment-agnostic control plane of EC-Store
// (Fig. 3's statistics service + chunk placement service + the policy
// half of the repair service).
//
// Both embodiments — the discrete-event SimECStore and the real-bytes
// LocalECStore — drive this one component for every policy decision:
// cost-parameter snapshots (o_j/m_j), access-plan selection (plan-cache
// lookup with superset satisfaction -> validation -> greedy fallback ->
// deduplicated/bounded/recurrence-gated background ILP refinement),
// plan invalidation (chunk move, block delete, site failure, o_j drift),
// write-site placement, mover-context assembly for Algorithm 1, repair
// destinations, and the Table III resource accounting. Only *when*
// deferred work runs differs per embodiment, expressed through the
// executor seam below: the DES schedules the ILP solve on its event
// queue after the modeled solve latency; LocalECStore queues it and
// drains synchronously off the request path (or on a small executor
// pool when ilp_executor_threads > 0).
//
// --- Concurrency (DESIGN.md §10) -------------------------------------
// The block-keyed mutable structures — the co-access window, the plan
// cache and the deferred-ILP queue — live under one plane mutex, mu_.
// The remaining state is split by role:
//   - load_mu_ (shared_mutex): load tracker + epoch overhead snapshot;
//     planners take it shared for cost snapshots, report ingestion takes
//     it exclusive.
//   - rng_mu_: the embodiment's single RNG stream. Each planning
//     decision's draws happen atomically under it.
//   - detector_mu_: the failure detector.
//   - counters: std::atomic, lock-free.
// Lock order (outer -> inner): rng_mu_ -> { load_mu_, mu_ };
// mu_ -> executor queue (the seam may enqueue under mu_ — executors must
// not re-enter the control plane inline, see below). detector_mu_ is
// never held across other locks. The optional tiers' own locks
// (BlockCache, ReplicaPromoter, OverloadControl) are leaves.
// RunPromotionRound holds no lock while it calls the store's `rewrite`,
// which may run under the store's catalog writer lock and call back into
// SelectWriteSitesAvoiding.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <vector>

#include "cache/block_cache.h"
#include "cache/promoter.h"
#include "cluster/state.h"
#include "common/rng.h"
#include "core/config.h"
#include "fault/detector.h"
#include "placement/mover.h"
#include "placement/plan_cache.h"
#include "placement/planner.h"
#include "stats/co_access.h"
#include "stats/load_tracker.h"

namespace ecstore {

/// Control-plane resource usage counters (Table III), extended with the
/// robustness counters of DESIGN.md §9. The control plane fills what it
/// owns (repair/detector); embodiments overlay their data-plane counters
/// (degraded reads, retries, cancellations, checksums, scrub) in their
/// own Usage() accessors.
///
/// Consistency under concurrency (DESIGN.md §10): the event counters
/// (stats/mover network bytes, ilp_solves, moves_executed,
/// chunks_repaired, sites_marked_dead) are MONOTONIC atomics — each read
/// is exact-at-some-instant and never decreases. The stats/optimizer
/// memory gauges are read together under the plane mutex. No reader
/// should assume the gauges and counters describe the same moment.
struct ControlPlaneUsage {
  std::size_t stats_memory_bytes = 0;
  std::size_t optimizer_memory_bytes = 0;
  std::size_t mover_memory_bytes = 0;
  std::uint64_t stats_network_bytes = 0;    // reports + probes
  std::uint64_t mover_network_bytes = 0;    // chunk copies
  std::uint64_t ilp_solves = 0;
  std::uint64_t moves_executed = 0;

  // --- Robustness counters (DESIGN.md §9).
  std::uint64_t degraded_reads = 0;       // blocks topped up off-plan
  std::uint64_t retried_fetches = 0;      // re-issued fetches / replans
  std::uint64_t cancelled_fetch_jobs = 0; // late-binding stragglers dropped
  std::uint64_t checksum_failures = 0;    // CRC mismatches caught on reads
  std::uint64_t chunks_scrubbed = 0;      // bad/missing chunks rewritten
  std::uint64_t chunks_repaired = 0;      // chunks rebuilt by repair
  std::uint64_t sites_marked_dead = 0;    // detector-driven dead verdicts

  // --- Repair-traffic accounting (DESIGN.md §11). Bytes/chunks the
  // reconstruction paths (repair, scrub, store-level rebuilds) read
  // according to their RepairPlan — the bytes-on-wire a networked
  // deployment would move, which is where LRC and piggyback families
  // beat RS. Monotonic atomics like the other event counters.
  std::uint64_t repair_bytes_read = 0;
  std::uint64_t repair_chunks_read = 0;

  // --- Cache + hybrid-redundancy counters (DESIGN.md §12), read from the
  // control plane's BlockCache / ReplicaPromoter; zero when both tiers
  // are disabled.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t cache_bytes = 0;          // resident decoded bytes (gauge)
  std::uint64_t blocks_promoted = 0;
  std::uint64_t blocks_demoted = 0;
  std::uint64_t replica_extra_bytes = 0;  // current extra storage (gauge)

  // --- Overload-control counters (DESIGN.md §14), read from the control
  // plane's OverloadControl; zero when the subsystem is off. All
  // monotonic except brownout_level, a gauge holding the current
  // shed-ladder level (0 = normal .. 4 = fully browned out).
  std::uint64_t requests_shed = 0;            // admission fast-fails
  std::uint64_t deadline_exceeded = 0;        // requests past their budget
  std::uint64_t breaker_opens = 0;            // closed->open transitions
  std::uint64_t breaker_half_open_probes = 0; // probe requests granted
  std::uint64_t brownout_level = 0;           // current ladder level (gauge)
  std::uint64_t expired_jobs_cancelled = 0;   // queue jobs expired pre-service
};

/// How an access plan was produced (the R2 decision of Fig. 3).
enum class PlanSource {
  kCacheHit,  // validated cached ILP solution (or superset restriction)
  kGreedy,    // cache miss: greedy fallback, ILP queued in background
  kRandom,    // cost model disabled (R / EC / EC+LB techniques)
};

/// The outcome of one plan selection.
struct PlanDecision {
  AccessPlan plan;
  PlanSource source = PlanSource::kRandom;

  bool cache_hit() const { return source == PlanSource::kCacheHit; }
};

/// The shared planning/stats/mover/repair path. Owns the statistics
/// trackers and the plan cache; borrows the cluster state, config, and
/// RNG stream from the embodiment (so a DES run remains bit-reproducible
/// against the embodiment's single seeded stream).
///
/// Internally synchronized (see the concurrency note above): MultiGet-path
/// calls (RecordRequest, SelectAccessPlan, cost snapshots) may run
/// concurrently from many client threads.
/// The reference accessors co_access() / load_tracker() /
/// failure_detector() / plan_cache() bypass that synchronization — they
/// are for single-threaded diagnostics (the DES, tests, CLI dumps), not
/// for use concurrent with live traffic.
///
/// The executor seam may be invoked while the plane mutex is held, so
/// executors must not re-enter the control plane inline — they queue the
/// unit and run it later (both embodiments do).
class ControlPlane {
 public:
  using Deferred = std::function<void()>;
  /// Executor seam: receives the next unit of deferred background work
  /// (one ILP solve + worker continuation). SimECStore schedules it on
  /// the DES event queue after the modeled solve latency; LocalECStore
  /// appends it to a queue drained off the request path.
  using Executor = std::function<void(Deferred)>;
  /// Test/diagnostics hook: observes every SelectAccessPlan decision.
  /// Invoked outside all control-plane locks; must be set before
  /// concurrent traffic starts and be thread-safe itself if the
  /// embodiment is concurrent.
  using PlanObserver =
      std::function<void(std::span<const BlockId>, const PlanDecision&)>;

  ControlPlane(const ECStoreConfig* config, ClusterState* state, Rng* rng,
               Executor defer_solve, LoadTrackerParams load_params = {});

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // --- Statistics service (Section V-A) -------------------------------
  /// The raw trackers, for single-threaded diagnostics (see the class
  /// comment for the thread-safety caveat).
  CoAccessTracker& co_access() { return co_access_; }
  const CoAccessTracker& co_access() const { return co_access_; }
  LoadTracker& load_tracker() { return load_tracker_; }
  const LoadTracker& load_tracker() const { return load_tracker_; }

  /// Sampled requests currently in the co-access window.
  std::size_t TotalRequestsInWindow() const;

  /// Samples one multiget into the co-access window.
  void RecordRequest(std::span<const BlockId> blocks);

  /// Ingests one periodic load report; `msg_bytes` is charged to the
  /// stats-network Table III counter (0 for in-process embodiments).
  void RecordLoadReport(SiteId site, double cpu_utilization,
                        double io_bytes_per_sec, std::uint64_t chunk_count,
                        std::size_t msg_bytes);

  /// Ingests one o_j probe round trip.
  void RecordProbe(SiteId site, double rtt_ms, std::size_t msg_bytes);

  /// Ingests one completed fetch's service time into the tail model
  /// (DESIGN.md §13): per-site latency histograms behind load_mu_.
  void RecordServiceTime(SiteId site, double service_ms);

  /// Batch form: one exclusive load_mu_ acquisition for a whole drained
  /// sample buffer (LocalECStore's load refresh drains the data plane's
  /// per-site buffers here, off the per-fetch hot path).
  void RecordServiceSamples(SiteId site, std::span<const double> service_ms);

  /// Charges stats-service message bytes (Table III) without touching the
  /// load estimates — for probes whose RTT is reported later.
  void ChargeStatsNetwork(std::size_t msg_bytes) {
    stats_network_bytes_.fetch_add(msg_bytes, std::memory_order_relaxed);
  }

  /// Reloads (drops) every cached plan when the largest per-site o_j
  /// drift since the last epoch exceeds the configured threshold
  /// (Section V-B1 "dynamically reload solutions"). Call after each
  /// batch of load reports.
  void ReloadPlansOnDrift();

  /// Current cost parameters (o_j from the load tracker, m_j from the
  /// media model).
  CostParams CurrentCostParams() const;

  /// Cost parameters for one planning decision: CurrentCostParams plus
  /// the per-call anti-herding tie-break perturbation (see
  /// ECStoreConfig::cost_tiebreak_noise).
  CostParams PlanningCostParams();

  // --- Chunk read optimizer (Section V-B1) ----------------------------
  /// Selects the access plan for a multiget: cached plan (validated
  /// against the live state) when the cost model is on, greedy fallback
  /// on a miss (queuing a deduplicated background ILP refinement), or
  /// the random baseline plan otherwise. Never solves an ILP inline.
  /// `delta` is the late-binding δ the demands were built with — the
  /// plan-cache key component, and the δ the background refinement will
  /// re-solve at. Callers pass AdaptiveDelta() (== EffectiveDelta() when
  /// adaptive late binding is off).
  PlanDecision SelectAccessPlan(std::span<const BlockId> blocks,
                                std::span<const BlockDemand> demands,
                                std::uint32_t delta);

  /// The late-binding δ for the next request (DESIGN.md §13). With
  /// `adaptive_delta` off this is exactly EffectiveDelta(). On, and for
  /// an LB technique, it is the smallest d such that
  /// P[Binomial(k + d, p) > d] <= adaptive_delta_epsilon, where p is the
  /// tracker's cluster straggler fraction — 0 on a quiet cluster, rising
  /// toward min(adaptive_delta_max, r) under variance. Draws no RNG.
  std::uint32_t AdaptiveDelta() const;

  /// Per-request form (DESIGN.md §13 leftover closed in §14's PR): p is
  /// the mean straggler fraction over the *available candidate sites of
  /// the requested blocks* — the sites the plan must actually touch —
  /// instead of the cluster mean, which underreacts when variance is
  /// concentrated on one planned site. Falls back to the cluster form
  /// when the blocks resolve to no sites. Draws no RNG. At brownout
  /// level >= 4 the ladder forces δ = 0 (both forms).
  std::uint32_t AdaptiveDelta(std::span<const BlockId> blocks) const;

  /// True when every read in the plan targets an available site that
  /// still holds the chunk.
  bool ValidatePlan(const AccessPlan& plan) const;

  /// The raw plan cache (diagnostics; see class comment).
  const PlanCache& plan_cache() const { return plan_cache_; }
  PlanCache& plan_cache() { return plan_cache_; }

  /// Plan-cache hits/misses/entries, read together under the plane mutex
  /// (safe concurrent with live traffic).
  struct PlanCacheTotals {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  PlanCacheTotals CacheTotals() const;

  void set_plan_observer(PlanObserver observer) {
    plan_observer_ = std::move(observer);
  }

  /// One site's tail-model latency quantile / sample count, read under
  /// the shared load lock (safe concurrent with live traffic — unlike
  /// the raw load_tracker() accessor). The breaker evaluation input.
  double SiteLatencyQuantileMs(SiteId site, double q) const;
  std::uint64_t SiteLatencySamples(SiteId site) const;

  // --- Stats queries for the cache/prefetch/promotion tier (§12) ------
  /// Co-access partners of `b` (λ descending) — the prefetch candidate
  /// list. Thread-safe (takes the plane mutex).
  std::vector<CoAccessPartner> CoAccessPartnersOf(BlockId b,
                                                  std::size_t max_partners) const;

  /// Windowed access frequency of `b` — the cache's
  /// admission/eviction weight and the promoter's temperature.
  double BlockAccessFrequency(BlockId b) const;

  /// The `n` most frequently accessed blocks, hottest first (ties:
  /// ascending block id, deterministic). `lambda` carries the windowed
  /// access frequency.
  std::vector<CoAccessPartner> HottestBlocks(std::size_t n) const;

  // --- Optional tiers (DESIGN.md §12, §14) ----------------------------
  // The control plane builds the three default-off tiers from the config
  // and makes every decision they imply; the stores supply only
  // mechanics (layout rewrites, cache fills, deadlines on their clock).
  /// Each tier is null when disabled by config, and then none of its
  /// logic runs anywhere: the cache when cache_capacity_bytes == 0, the
  /// promoter when replica_budget_bytes == 0, overload control when
  /// !config.overload.Enabled(). With overload control on, planning
  /// treats open-breaker sites as soft failures, brownout level >= 2
  /// pauses background ILP scheduling and level >= 4 forces δ = 0.
  BlockCache* block_cache() { return cache_.get(); }
  ReplicaPromoter* promoter() { return promoter_.get(); }
  OverloadControl* overload() { return overload_.get(); }

  /// Decoded bytes of one cached block; null in the simulator, whose
  /// entries are metadata only.
  using CachedBlock = std::shared_ptr<const std::vector<std::uint8_t>>;

  enum class Admission {
    kOpen,       // no admission gate configured: nothing to release
    kAdmitted,   // a token was taken: call ReleaseAdmission() exactly once
    kCacheOnly,  // refused, but every block is answered from the cache
    kShed,       // refused: fast-fail
  };

  /// The admission gate in front of a read (`hits` non-null, `blocks` the
  /// request) or a write (`hits` null). A refused read at brownout level
  /// >= 3 is still served, free of fan-out, when every block sits
  /// version-valid in the cache; `hits` then holds them in request order.
  Admission Admit(double now_ms, std::span<const BlockId> blocks = {},
                  std::vector<CachedBlock>* hits = nullptr);
  /// Returns the token taken by an Admit that answered kAdmitted.
  void ReleaseAdmission() { overload_->admission()->Release(); }

  /// The per-request end-to-end budget in ms; 0 when deadlines are off.
  double DeadlineMs() const { return overload_ ? overload_->deadline_ms() : 0; }

  /// Brownout level >= 2: background work — chunk movement, promotion
  /// rounds and ILP refinement — yields its capacity to client reads.
  bool BackgroundPaused() const { return BrownoutLevel() >= 2; }

  /// The outcome of the client-side cache check.
  struct CacheSplit {
    /// Parallel to the request: a hit's cached bytes, null on a miss
    /// (and everywhere in the metadata-only simulator).
    std::vector<CachedBlock> hits;
    std::uint32_t hit_count = 0;
    std::vector<BlockId> misses;  // what the request still has to fetch
    /// Prefetch fills claimed for the hits' co-access partners. The
    /// caller fills each (FillCache) and then releases its claim with
    /// block_cache()->EndPrefetch, whether or not the fill landed.
    std::vector<BlockId> prefetch;
  };

  /// Client-side cache check: a version-checked lookup of every id. Each
  /// hit has its eviction weight refreshed and, unless prefetch is off or
  /// brownout level >= 1, claims prefetch fills for its co-access
  /// partners at or above prefetch_min_lambda that are not already part
  /// of this request. Returns false, leaving `split` untouched, when the
  /// cache is off.
  bool SplitCacheHits(std::span<const BlockId> ids, CacheSplit& split);

  /// Offers one decoded block to the cache at its current access
  /// frequency. `version` is the catalog version the bytes were decoded
  /// from: a fill from before a rewrite never validates again.
  void FillCache(BlockId id, CachedBlock data, std::uint64_t bytes,
                 std::uint64_t version, bool prefetched = false);

  /// Rewrites block `id`, whose catalog entry is `info`, to `spec`;
  /// returns false, leaving the block as it was, when it cannot now.
  using Rewrite =
      std::function<bool(BlockId, const BlockInfo&, const CodecSpec&)>;

  /// One hybrid-redundancy round (no-op when the promoter is off):
  /// demotions of cooled blocks first, freeing budget, then promotions
  /// of the hottest erasure-coded blocks to replicas within the budget.
  /// Holds no control-plane lock while it calls `rewrite`.
  void RunPromotionRound(const Rewrite& rewrite);

  /// Feeds every site's tail-model p99 to its circuit breaker, then
  /// steps the brownout ladder. Run once per stats tick or load refresh;
  /// no-op when overload control is off.
  void EvaluateOverload(double now_ms);

  // --- Chunk placement: writes (W1 of Fig. 3) -------------------------
  /// `count` distinct available sites for a new block's chunks: the
  /// least-loaded ones under the cost model, random otherwise. Empty
  /// when fewer than `count` sites are available.
  std::vector<SiteId> SelectWriteSites(std::uint32_t count);

  /// Spec-aware placement: site i receives chunk index i. When
  /// `failure_domains` > 0 and the family has placement groups (LRC
  /// local groups, piggyback groups), chunks sharing a group land on
  /// distinct failure domains (site % failure_domains) so one domain
  /// failure never costs a group its cheap repair plan; preference order
  /// (least-loaded / random) is otherwise preserved. With domains = 0 or
  /// a group-free family this is exactly SelectWriteSites(total) — same
  /// RNG draws, bit-identical to the pre-codec-family planner.
  std::vector<SiteId> SelectWriteSites(const CodecSpec& spec);

  /// Write-site selection for in-place layout rewrites (hybrid
  /// promote/demote, DESIGN.md §12): the new layout must land on sites
  /// disjoint from `avoid` (the block's current sites) so the old chunks
  /// stay fetchable until the catalog swap commits, and retiring them
  /// afterwards can never delete new data. Uses the unconstrained
  /// preference order (least-loaded / random); placement groups are not
  /// applied on the rewrite path. Empty when too few sites remain.
  std::vector<SiteId> SelectWriteSitesAvoiding(const CodecSpec& spec,
                                               std::span<const SiteId> avoid);

  // --- Plan invalidation ----------------------------------------------
  /// A chunk of `block` moved, or the block was deleted: its plans die,
  /// and so does its decoded-block cache entry (the cache's version check
  /// remains the correctness backstop).
  void InvalidateBlock(BlockId block);

  /// A site failed: any cached plan may reference it, so the plan cache's
  /// epoch is bumped.
  void OnSiteFailed(SiteId site);

  // --- Chunk mover (Algorithm 1, Section V-B2) ------------------------
  /// Assembles the mover context from the live statistics and runs
  /// Algorithm 1. The embodiment executes the returned copy and commits
  /// via RecordMoveExecuted. Works from a load-tracker snapshot so the
  /// candidate search never holds load_mu_.
  std::optional<MovementPlan> SelectMovement(double request_rate_per_sec);

  /// A movement committed: invalidate the block's plans and charge the
  /// Table III mover counters.
  void RecordMoveExecuted(BlockId block, std::uint64_t chunk_bytes);

  // --- Failure detection (DESIGN.md §9) -------------------------------
  /// Evidence of life: each periodic stats report / probe / load refresh
  /// an embodiment ingests doubles as a heartbeat. When the heartbeat
  /// revives a site the detector had marked suspect/dead, its
  /// availability is restored in the cluster state (belief, not ground
  /// truth — the embodiment's node simply reported in again).
  void NoteHeartbeat(SiteId site, double now_ms);

  /// Advances the detector to `now_ms`. Sites newly declared dead are
  /// marked unavailable in the cluster state (invalidating their cached
  /// plans) and returned; the repair service's `repair_wait` grace period
  /// takes over from there. Sites already failed manually are skipped.
  std::vector<SiteId> CheckFailures(double now_ms);

  const FailureDetector& failure_detector() const { return detector_; }

  // --- Repair service policy (Section V-C) ----------------------------
  /// Destination for reconstructing a lost chunk of `block`: the
  /// least-loaded available site holding no chunk of the block, or
  /// kInvalidSite when none exists.
  SiteId SelectRepairDestination(BlockId block) const;

  /// Chunk-aware destination: additionally keeps the rebuilt chunk's
  /// placement group off failure domains its group-mates occupy (when
  /// `failure_domains` > 0; falls back to any legal site when the
  /// constraint is unsatisfiable). Equivalent to the block-only overload
  /// for group-free families or domains = 0.
  SiteId SelectRepairDestination(BlockId block, ChunkIndex lost_chunk) const;

  /// A chunk of `block` was reconstructed at a new site.
  void RecordRepair(BlockId block);

  /// Charges a reconstruction's RepairPlan to the repair-traffic
  /// counters: `chunks` source chunks touched, `bytes` bytes-on-wire.
  void RecordRepairTraffic(std::uint64_t chunks, std::uint64_t bytes) {
    repair_chunks_read_.fetch_add(chunks, std::memory_order_relaxed);
    repair_bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  }

  // --- Table III accounting -------------------------------------------
  /// See ControlPlaneUsage for which fields are monotonic counters and
  /// which are gauges.
  ControlPlaneUsage Usage() const;

  std::uint64_t ilp_solves() const {
    return ilp_solves_.load(std::memory_order_relaxed);
  }
  std::uint64_t moves_executed() const {
    return moves_executed_.load(std::memory_order_relaxed);
  }
  std::uint64_t chunks_repaired() const {
    return chunks_repaired_.load(std::memory_order_relaxed);
  }
  std::uint64_t sites_marked_dead() const {
    return sites_marked_dead_.load(std::memory_order_relaxed);
  }
  std::uint64_t repair_bytes_read() const {
    return repair_bytes_read_.load(std::memory_order_relaxed);
  }
  std::uint64_t repair_chunks_read() const {
    return repair_chunks_read_.load(std::memory_order_relaxed);
  }

 private:
  /// The mover's view of the co-access tracker: every call takes mu_
  /// once, so a movement round never holds the plane mutex (and so never
  /// blocks MultiGet planning) while it evaluates moves.
  class LockedCoAccessView : public CoAccessView {
   public:
    explicit LockedCoAccessView(const ControlPlane* cp) : cp_(cp) {}
    double Lambda(BlockId b, BlockId i) const override;
    std::vector<CoAccessPartner> Partners(BlockId b,
                                          std::size_t max_partners) const override;
    std::vector<BlockId> SampleCandidateBlocks(Rng& rng,
                                               std::size_t count) const override;
    double AccessFrequency(BlockId b) const override;

   private:
    const ControlPlane* cp_;
  };

  void ScheduleBackgroundIlp(std::span<const BlockId> blocks,
                             std::uint32_t delta);
  /// Pops and defers the next queued solve. Caller holds mu_.
  void PumpIlpWorkerLocked();
  /// Body of one deferred solve (runs via the executor seam, no locks
  /// held on entry).
  void RunDeferredSolve(std::vector<BlockId> blocks, std::uint32_t delta);
  /// PlanningCostParams body; caller holds rng_mu_.
  CostParams PlanningCostParamsLocked();
  /// Shared tail of both AdaptiveDelta forms: the smallest d with
  /// P[Binomial(k + d, p) > d] <= epsilon, capped. Handles the off/LB
  /// gates; `p` is whichever straggler fraction the caller derived.
  std::uint32_t DeltaForStragglerFraction(double p) const;
  /// Breaker-aware demand filter (DESIGN.md §14): drops candidates on
  /// sites whose breaker says avoid — but only while a demand keeps at
  /// least `needed` candidates, so a plan never becomes infeasible on
  /// the breaker's account (a tripped site every block needs is still
  /// read: soft failure, not hard). Returns true when anything was
  /// dropped; `filtered` then holds the reduced demands.
  bool FilterDemandsForBreakers(std::span<const BlockDemand> demands,
                                std::vector<BlockDemand>& filtered);
  /// Adds the tail term (DESIGN.md §13) to a per-site overhead vector:
  /// o_j += tail_weight * tail_excess_ms(j). No-op at tail_weight 0 —
  /// values untouched, no extra work, bit-identical planning. `tracker`
  /// is either the live tracker (caller holds load_mu_) or a snapshot.
  void ApplyTailTerm(std::vector<double>& overheads,
                     const LoadTracker& tracker) const;
  /// Body of both write-site selections: `count` sites among the
  /// available ones not in `avoid`, least-loaded or random.
  std::vector<SiteId> PickWriteSites(std::uint32_t count,
                                     std::span<const SiteId> avoid);
  /// Current shed-ladder level; 0 when overload control or brownout is
  /// off.
  int BrownoutLevel() const {
    return overload_ ? overload_->brownout_level() : 0;
  }

  const ECStoreConfig* config_;
  ClusterState* state_;
  Rng* rng_;
  Executor defer_solve_;

  // The block-keyed mutable state, all guarded by mu_.
  mutable std::mutex mu_;
  CoAccessTracker co_access_;
  PlanCache plan_cache_;
  // Background ILP worker (Section V-B1); misses queue up (deduplicated,
  // bounded) rather than spawning unbounded solver work. Each job carries
  // the δ its request planned with, so the refinement solves and caches
  // at the same fan-out (adaptive δ varies per request; dedup is by block
  // set, newest δ wins).
  struct IlpJob {
    std::vector<BlockId> blocks;
    std::uint32_t delta = 0;
  };
  std::deque<IlpJob> ilp_queue_;
  std::set<std::vector<BlockId>> ilp_pending_;
  // Query sets that missed once: a set is only worth an ILP solve if it
  // recurs (one-off scans can never hit the cache afterwards).
  std::set<std::vector<BlockId>> missed_once_;
  bool ilp_worker_busy_ = false;

  // Load statistics: shared for read-mostly cost snapshots.
  mutable std::shared_mutex load_mu_;
  LoadTracker load_tracker_;
  std::vector<double> overheads_at_epoch_;

  // The embodiment's single seeded RNG stream.
  mutable std::mutex rng_mu_;

  mutable std::mutex detector_mu_;
  FailureDetector detector_;

  PlanObserver plan_observer_;

  // The optional tiers; null when disabled by config.
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<ReplicaPromoter> promoter_;
  std::unique_ptr<OverloadControl> overload_;

  // Resource counters (Table III) — monotonic, lock-free.
  std::atomic<std::uint64_t> stats_network_bytes_{0};
  std::atomic<std::uint64_t> mover_network_bytes_{0};
  std::atomic<std::uint64_t> ilp_solves_{0};
  std::atomic<std::uint64_t> moves_executed_{0};
  std::atomic<std::uint64_t> chunks_repaired_{0};
  std::atomic<std::uint64_t> sites_marked_dead_{0};
  std::atomic<std::uint64_t> repair_bytes_read_{0};
  std::atomic<std::uint64_t> repair_chunks_read_{0};
};

}  // namespace ecstore
