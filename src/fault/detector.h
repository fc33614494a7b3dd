// Failure detector (DESIGN.md §9): turns missed heartbeat windows into
// alive -> suspect -> dead transitions.
//
// Heartbeats are whatever periodic evidence an embodiment already has —
// the statistics service's load reports and o_j probes (Section V-A/V-B3
// of the paper): a healthy site produces one every reporting interval, so
// a site that misses several windows in a row is suspected, and one that
// misses more is declared dead. The detector only forms *belief*; acting
// on it (marking the site unavailable in the cluster state, triggering
// the repair grace period) is the ControlPlane's job.
//
// Pure state machine: no clocks, no threads. Callers pass `now_ms`
// explicitly, so the DES drives it in simulated time and LocalECStore in
// wall time, and both are deterministic under test.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace ecstore {

enum class SiteHealth { kAlive, kSuspect, kDead };

const char* SiteHealthName(SiteHealth health);

/// One state-machine edge observed by Tick or Heartbeat.
struct HealthTransition {
  SiteId site = kInvalidSite;
  SiteHealth from = SiteHealth::kAlive;
  SiteHealth to = SiteHealth::kAlive;
};

struct FailureDetectorParams {
  /// Silence longer than this marks a site suspect (typically ~2 missed
  /// stats-report windows).
  double suspect_after_ms = 10'000;
  /// Silence longer than this marks it dead (typically ~4 windows). The
  /// repair service then applies its own `repair_wait` grace on top.
  double dead_after_ms = 20'000;
};

class FailureDetector {
 public:
  explicit FailureDetector(FailureDetectorParams params = {})
      : params_(params) {}

  /// Registers `site` as alive at `now_ms` without treating it as fresh
  /// evidence: used to baseline sites the detector has never heard from,
  /// so an untracked site is not declared dead on the first Tick.
  void Baseline(SiteId site, double now_ms);

  bool Tracks(SiteId site) const { return entries_.count(site) > 0; }

  /// Fresh evidence of life. Returns true when this heartbeat *revives* a
  /// suspect/dead site (the caller may need to restore availability).
  bool Heartbeat(SiteId site, double now_ms);

  /// Advances every tracked site's state machine to `now_ms` and returns
  /// the transitions that fired (worsening edges only; revivals happen in
  /// Heartbeat).
  std::vector<HealthTransition> Tick(double now_ms);

  /// Out-of-band override for a manual FailSite: the site is dead now,
  /// regardless of heartbeat history.
  void MarkDead(SiteId site);

  /// kAlive for sites never heard from.
  SiteHealth Health(SiteId site) const;

 private:
  struct Entry {
    double last_seen_ms = 0;
    SiteHealth health = SiteHealth::kAlive;
  };

  FailureDetectorParams params_;
  std::unordered_map<SiteId, Entry> entries_;
};

}  // namespace ecstore
