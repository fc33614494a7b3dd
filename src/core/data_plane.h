// DataPlane: the concurrent fetch engine of the real-bytes embodiment
// (DESIGN.md §8).
//
// One FIFO request queue per storage site, each served by a small fixed
// set of worker threads (the site's service concurrency). Workers inject
// a configurable per-site service latency — base + per-site extra +
// uniform jitter, with a straggler probability/multiplier — before
// executing each job, so heavy-tailed service times and hot-site queueing
// are reproducible on real bytes: this is what lets EC+LB's first-k-wins
// racing be exhibited (and regression-tested) outside the simulator.
//
// Cancellation is cooperative: a job may carry a CancelToken; when the
// token is set before a worker picks the job up, the worker skips latency
// injection and invokes the job with cancelled=true. Jobs ALWAYS run
// exactly once (cancelled or not), so callers can carry completion
// bookkeeping (outstanding-fetch counters) inside the job itself.
//
// Latency draws come from per-worker RNG streams seeded from
// DataPlaneParams::seed — independent of the control-plane RNG, so fetch
// timing never perturbs planning decisions (embodiment parity).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/config.h"

namespace ecstore {

class DataPlane {
 public:
  /// Shared flag observed by workers before picking a queued job up: set
  /// it to drop still-queued stragglers cheaply (no latency injection).
  using CancelToken = std::shared_ptr<std::atomic<bool>>;
  /// One unit of site work. Invoked with cancelled=true when the token
  /// was set before pickup, the job's deadline expired in the queue, or
  /// the plane is shutting down; the job must still run its completion
  /// bookkeeping in that case.
  using Job = std::function<void(bool cancelled)>;
  using Clock = std::chrono::steady_clock;
  /// Observes each served job's queue sojourn (pickup − enqueue, ms) —
  /// the CoDel admission signal (DESIGN.md §14). Fixed at construction
  /// so workers read it without synchronization; must be thread-safe.
  using SojournObserver = std::function<void(double sojourn_ms)>;

  DataPlane(std::size_t num_sites, DataPlaneParams params,
            SojournObserver sojourn_observer = nullptr);
  ~DataPlane();  // Drains every queue (remaining jobs run cancelled) and joins.

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Enqueues `job` on `site`'s FIFO queue. A job whose `deadline` has
  /// already passed when a worker picks it up is expired at the queue —
  /// run with cancelled=true, no latency injection, no chunk read —
  /// because its requester has, by definition, already given up on it.
  /// Clock::time_point::max() (the default) means no deadline.
  void Submit(SiteId site, Job job, CancelToken cancel = nullptr,
              Clock::time_point deadline = Clock::time_point::max());

  /// True when any latency injection is configured — i.e. measured fetch
  /// service times carry real signal for the o_j probe path.
  bool InjectsLatency() const { return injects_latency_; }

  /// Dynamic slow-site fault (DESIGN.md §9): adds `ms` of injected
  /// latency to every fetch at `site` from now on (0 heals it). Safe to
  /// call concurrently with fetches.
  void SetSiteExtraLatency(SiteId site, double ms);

  /// Measured per-site service time (injected latency + real chunk read)
  /// accumulated since the last harvest; harvesting resets the window.
  struct LatencySample {
    double total_ms = 0;
    std::uint64_t samples = 0;
    double MeanMs() const { return samples ? total_ms / samples : 0.0; }
  };
  LatencySample HarvestLatency(SiteId site);

  /// Raw per-fetch service times (ms) recorded at `site` since the last
  /// drain. Feeds the tail model (DESIGN.md §13): unlike HarvestLatency's
  /// mean, these preserve the distribution so the control plane can build
  /// per-site latency histograms. The buffer is bounded (newest samples
  /// are dropped when it is full between drains); draining resets it.
  std::vector<double> DrainServiceSamples(SiteId site);

  std::size_t num_sites() const { return queues_.size(); }
  std::uint64_t jobs_run() const {
    return jobs_run_.load(std::memory_order_relaxed);
  }
  std::uint64_t jobs_cancelled() const {
    return jobs_cancelled_.load(std::memory_order_relaxed);
  }
  /// Jobs whose deadline had passed by pickup (counted separately from
  /// token cancellations — these are the deadline subsystem's
  /// `expired_jobs_cancelled`).
  std::uint64_t jobs_expired() const {
    return jobs_expired_.load(std::memory_order_relaxed);
  }

 private:
  struct QueuedJob {
    Job fn;
    CancelToken cancel;
    Clock::time_point enqueued;
    Clock::time_point deadline = Clock::time_point::max();
  };
  struct SiteQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<QueuedJob> jobs;
    bool stop = false;
    // Measured service-time window (microseconds), harvested by the
    // load-refresh path into o_j probes.
    std::atomic<std::uint64_t> latency_us{0};
    std::atomic<std::uint64_t> samples{0};
    // Raw per-fetch service times for the tail model, bounded so a stalled
    // drain path cannot grow memory without limit. Guarded by sample_mu
    // (not `mu`: workers must not contend with Submit on the job queue
    // lock just to record a sample).
    std::mutex sample_mu;
    std::vector<double> service_samples_ms;
    // Fault-injected extra latency (slow-site degradation).
    std::atomic<double> fault_extra_ms{0.0};
  };

  void WorkerLoop(SiteId site, std::uint64_t worker, SiteQueue* queue);
  double DrawLatencyMs(SiteId site, Rng& rng) const;

  DataPlaneParams params_;
  bool injects_latency_ = false;
  /// Immutable after construction (workers read it lock-free).
  SojournObserver sojourn_observer_;
  std::vector<std::unique_ptr<SiteQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> jobs_run_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};
  std::atomic<std::uint64_t> jobs_expired_{0};
};

}  // namespace ecstore
