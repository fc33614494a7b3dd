// Load statistics service (paper Section V-A): ingests periodic per-site
// load reports (CPU utilization + I/O rate) and load-status probe round
// trips, and exposes
//   - omega(j): the scalar site-load value used by the mover (Eq. 6-7),
//   - o_j:     the dynamic site-access-overhead cost parameter (Eq. 1),
// both smoothed with an exponentially weighted moving average.
//
// The tail model (DESIGN.md §13) adds per-site service-time
// *distributions*: fixed-bin histograms of completed fetch service times
// fed from both embodiments' data planes, with cached scalar summaries
// (tail excess over the mean, variance, straggler fraction) that the
// planner's cost snapshot and the adaptive-δ policy read in O(1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace ecstore {

struct LoadTrackerParams {
  /// EWMA smoothing factor for report-derived load (0 < alpha <= 1).
  double load_alpha = 0.5;
  /// EWMA smoothing factor for probe RTT-derived o_j.
  double probe_alpha = 0.3;
  /// I/O rate that counts as "fully loaded" when combining CPU and I/O
  /// into the scalar omega (bytes/second). Roughly the disk's rate.
  double reference_io_bytes_per_sec = 140.0 * 1024 * 1024;
  /// o_j fallback before any probe completes (milliseconds).
  double initial_overhead_ms = 5.0;

  // --- Tail model (DESIGN.md §13). ---
  /// Service-time samples per rotation window. Estimates always read the
  /// merged previous+current window, so they cover between one and two
  /// windows of history and fully forget a load regime after two
  /// rotations — stale variance from a past flash crowd ages out.
  std::uint64_t latency_window = 1024;
  /// Quantile whose excess over the mean becomes the cached per-site
  /// tail-excess summary (the cost model's tail term input).
  double tail_quantile = 0.99;
  /// A sample counts as a straggler when it exceeds this multiple of the
  /// site's mean service time. 5x sits above the simulator's lognormal
  /// jitter body but below transient stalls and degraded sites.
  double straggler_multiple = 5.0;
  /// Recompute the cached scalar summaries every this many samples per
  /// site (the first sample always refreshes). Keeps histogram scans off
  /// the per-sample path.
  std::uint64_t latency_refresh_every = 32;
};

/// Tracks per-site load. Not internally synchronized: callers serialize
/// access. In the simulator the DES is single-threaded; in the threaded
/// embodiments the owning `ControlPlane` guards its tracker behind
/// `load_mu_` (a shared_mutex — exclusive for Record*, shared for reads;
/// see core/control_plane.h). LocalECStore's `meta_mu_` is only the
/// catalog writer lock and does NOT serialize tracker access.
class LoadTracker {
 public:
  LoadTracker(std::size_t num_sites, LoadTrackerParams params = {});

  std::size_t num_sites() const { return omega_.size(); }

  /// Ingests one periodic report from a site's storage service.
  void RecordReport(SiteId site, double cpu_utilization, double io_bytes_per_sec,
                    std::uint64_t chunk_count);

  /// Ingests one load-status probe round trip (milliseconds).
  void RecordProbe(SiteId site, double rtt_ms);

  /// Ingests one completed fetch's service time (milliseconds): queueing +
  /// media + transmit as observed by the data plane. Feeds the per-site
  /// distribution; scalar summaries refresh every
  /// `latency_refresh_every` samples.
  void RecordServiceTime(SiteId site, double service_ms);

  /// The scalar load omega(C, S_j): CPU utilization plus normalized I/O
  /// load, both in [0, ~1] so the sum is utilization-like.
  double Omega(SiteId site) const { return omega_[site]; }

  /// Mean load over the given sites (all sites when empty); the omega-bar
  /// of the load-balance factor.
  double MeanOmega() const;

  /// Load-balance factor Omega(C, S_j) = |1 - omega_j / mean| (paper's
  /// normalization). Returns 0 when the system is completely idle.
  double BalanceFactor(SiteId site) const;

  /// Dynamic per-site access overhead o_j in milliseconds.
  double OverheadMs(SiteId site) const { return overhead_ms_[site]; }
  const std::vector<double>& OverheadVector() const { return overhead_ms_; }
  double MeanOverheadMs() const;

  std::uint64_t chunk_count(SiteId site) const { return chunk_counts_[site]; }

  // --- Tail-model summaries (cached scalars; O(1) reads). ---

  /// max(0, p_tail − mean) of the site's service time in milliseconds:
  /// how much worse than its average the site gets at the configured tail
  /// quantile. 0 until samples arrive.
  double TailExcessMs(SiteId site) const { return tail_excess_ms_[site]; }
  const std::vector<double>& TailExcessVector() const { return tail_excess_ms_; }

  /// Mean / sample variance of the site's service time over the merged
  /// window (ms, ms^2).
  double LatencyMeanMs(SiteId site) const { return latency_mean_ms_[site]; }
  double LatencyVarianceMs2(SiteId site) const { return latency_var_ms2_[site]; }

  /// Fraction of the site's recent samples above straggler_multiple x its
  /// mean service time.
  double StragglerFraction(SiteId site) const { return straggler_frac_[site]; }

  /// Mean straggler fraction over the sites that have samples — the
  /// cluster-wide per-read straggler probability the adaptive-δ policy
  /// plugs into its binomial model. 0 on a quiet (or unobserved) cluster.
  double ClusterStragglerFraction() const { return cluster_straggler_frac_; }

  /// Lifetime service-time samples recorded for the site.
  std::uint64_t latency_samples(SiteId site) const {
    return latency_total_samples_[site];
  }

  /// Direct quantile query against the merged window (ms). Cold path —
  /// scans histogram buckets; tests and benches only.
  double LatencyQuantileMs(SiteId site, double q) const;

  /// The I/O normalization constant used to fold byte rates into omega;
  /// the chunk mover uses it to convert an estimated per-chunk byte rate
  /// into omega units when simulating a post-move load shift.
  double reference_io_bytes_per_sec() const { return params_.reference_io_bytes_per_sec; }

 private:
  /// Merged previous+current window histogram for one site.
  Histogram MergedWindow(SiteId site) const;
  /// Recomputes the cached scalar summaries for one site plus the
  /// cluster-wide straggler fraction.
  void RefreshSummaries(SiteId site);

  LoadTrackerParams params_;
  std::vector<double> omega_;
  std::vector<double> overhead_ms_;
  std::vector<std::uint64_t> chunk_counts_;
  std::vector<bool> probed_;

  // Tail model: two-window rotation per site (service times recorded in
  // microseconds for bucket resolution; summaries exposed in ms).
  std::vector<Histogram> latency_cur_;
  std::vector<Histogram> latency_prev_;
  std::vector<RunningStat> latency_stat_cur_;
  std::vector<RunningStat> latency_stat_prev_;
  std::vector<std::uint64_t> latency_total_samples_;
  std::vector<double> tail_excess_ms_;
  std::vector<double> latency_mean_ms_;
  std::vector<double> latency_var_ms2_;
  std::vector<double> straggler_frac_;
  double cluster_straggler_frac_ = 0.0;
};

}  // namespace ecstore
