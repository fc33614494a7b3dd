#include "core/data_plane.h"

#include <chrono>
#include <utility>

namespace ecstore {

namespace {

// Cap on buffered raw service samples per site between drains. At the
// load-refresh cadence (every 64th MultiGet plus the maintenance tick)
// this is never reached in practice; it only bounds memory if the drain
// path stalls.
constexpr std::size_t kMaxBufferedServiceSamples = 4096;

bool AnyPositive(const std::vector<double>& v) {
  for (double x : v) {
    if (x > 0) return true;
  }
  return false;
}

}  // namespace

DataPlane::DataPlane(std::size_t num_sites, DataPlaneParams params,
                     SojournObserver sojourn_observer)
    : params_(std::move(params)),
      sojourn_observer_(std::move(sojourn_observer)) {
  injects_latency_ = params_.base_latency_ms > 0 || params_.jitter_ms > 0 ||
                     AnyPositive(params_.site_extra_latency_ms);
  const std::size_t workers =
      params_.workers_per_site > 0 ? params_.workers_per_site : 1;
  queues_.reserve(num_sites);
  for (std::size_t j = 0; j < num_sites; ++j) {
    queues_.push_back(std::make_unique<SiteQueue>());
  }
  workers_.reserve(num_sites * workers);
  for (std::size_t j = 0; j < num_sites; ++j) {
    for (std::size_t w = 0; w < workers; ++w) {
      workers_.emplace_back(&DataPlane::WorkerLoop, this,
                            static_cast<SiteId>(j), w, queues_[j].get());
    }
  }
}

DataPlane::~DataPlane() {
  for (auto& q : queues_) {
    {
      std::lock_guard<std::mutex> lock(q->mu);
      q->stop = true;
    }
    q->cv.notify_all();
  }
  for (auto& t : workers_) t.join();
}

void DataPlane::Submit(SiteId site, Job job, CancelToken cancel,
                       Clock::time_point deadline) {
  SiteQueue& q = *queues_[site];
  QueuedJob item{std::move(job), std::move(cancel), {}, deadline};
  // The enqueue stamp feeds the sojourn observer and the deadline check;
  // neither configured means no clock read on the submit path.
  if (sojourn_observer_ || deadline != Clock::time_point::max()) {
    item.enqueued = Clock::now();
  }
  {
    std::lock_guard<std::mutex> lock(q.mu);
    q.jobs.push_back(std::move(item));
  }
  q.cv.notify_one();
}

void DataPlane::SetSiteExtraLatency(SiteId site, double ms) {
  queues_[site]->fault_extra_ms.store(ms, std::memory_order_relaxed);
}

DataPlane::LatencySample DataPlane::HarvestLatency(SiteId site) {
  SiteQueue& q = *queues_[site];
  LatencySample s;
  s.total_ms =
      static_cast<double>(q.latency_us.exchange(0, std::memory_order_relaxed)) /
      1000.0;
  s.samples = q.samples.exchange(0, std::memory_order_relaxed);
  return s;
}

std::vector<double> DataPlane::DrainServiceSamples(SiteId site) {
  SiteQueue& q = *queues_[site];
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(q.sample_mu);
  out.swap(q.service_samples_ms);
  return out;
}

double DataPlane::DrawLatencyMs(SiteId site, Rng& rng) const {
  double ms = params_.base_latency_ms;
  if (site < params_.site_extra_latency_ms.size()) {
    ms += params_.site_extra_latency_ms[site];
  }
  ms += queues_[site]->fault_extra_ms.load(std::memory_order_relaxed);
  if (params_.jitter_ms > 0) ms += rng.NextDouble() * params_.jitter_ms;
  if (params_.straggler_probability > 0 &&
      rng.NextBernoulli(params_.straggler_probability)) {
    ms *= params_.straggler_factor;
  }
  return ms;
}

void DataPlane::WorkerLoop(SiteId site, std::uint64_t worker,
                           SiteQueue* queue) {
  // Independent, deterministic latency stream per (site, worker): with one
  // worker per site the injected latencies form a reproducible per-site
  // sequence, which is what makes straggler tests non-flaky.
  Rng rng(params_.seed * 0x9E3779B97F4A7C15ULL + site * 131 + worker + 1);
  for (;;) {
    QueuedJob item;
    bool draining = false;
    {
      std::unique_lock<std::mutex> lock(queue->mu);
      queue->cv.wait(lock,
                     [queue] { return queue->stop || !queue->jobs.empty(); });
      if (queue->jobs.empty()) return;  // stop && drained
      item = std::move(queue->jobs.front());
      queue->jobs.pop_front();
      draining = queue->stop;
    }
    const bool cancelled =
        draining ||
        (item.cancel && item.cancel->load(std::memory_order_acquire));
    // One clock read covers both overload-control signals; neither
    // configured (the default) keeps the pickup path clock-free.
    const bool needs_now =
        !draining && (sojourn_observer_ != nullptr ||
                      item.deadline != Clock::time_point::max());
    Clock::time_point now{};
    if (needs_now) now = Clock::now();
    if (sojourn_observer_ && !draining) {
      // Queue sojourn of every picked-up job — expired ones included:
      // a job that aged out in the queue is the strongest standing-queue
      // evidence CoDel can get.
      sojourn_observer_(
          std::chrono::duration<double, std::milli>(now - item.enqueued)
              .count());
    }
    if (cancelled) {
      jobs_cancelled_.fetch_add(1, std::memory_order_relaxed);
      item.fn(true);  // Bookkeeping only: no latency, no chunk read.
      continue;
    }
    if (item.deadline != Clock::time_point::max() && now >= item.deadline) {
      // Expired in the queue (DESIGN.md §14): the request this read was
      // for has already missed its deadline — serving it now would only
      // burn a worker on an answer nobody is waiting for.
      jobs_expired_.fetch_add(1, std::memory_order_relaxed);
      item.fn(true);
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    const double inject_ms = DrawLatencyMs(site, rng);
    if (inject_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(inject_ms));
    }
    item.fn(false);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    queue->latency_us.fetch_add(static_cast<std::uint64_t>(us),
                                std::memory_order_relaxed);
    queue->samples.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> slock(queue->sample_mu);
      if (queue->service_samples_ms.size() < kMaxBufferedServiceSamples) {
        queue->service_samples_ms.push_back(static_cast<double>(us) / 1000.0);
      }
    }
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace ecstore
