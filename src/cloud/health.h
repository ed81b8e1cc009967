// CloudHealthTracker: per-cloud failure accounting, EWMA latency, and a
// circuit breaker that demotes flapping clouds in the cost-ordered
// preference list and probes them back in.
//
// The breaker is deliberately simple and fully clock-explicit (every method
// takes `now`) so tests drive it with fake clocks:
//
//   closed     normal service; `failure_threshold` consecutive failures
//              trip it open.
//   open       the cloud is demoted to the back of every preference order
//              for `open_duration`.
//   half-open  once `open_duration` elapses the cloud re-enters the order
//              (at the back), so the next operation that reaches it is the
//              probe: a success closes the breaker, a failure re-opens it
//              for another `open_duration`.
//
// The tracker also owns the adaptive hedge delay: the DepSky read path
// launches its (f+2)-th request once the median healthy-cloud EWMA latency
// times `hedge_multiplier` has elapsed without k valid shards.

#ifndef SCFS_CLOUD_HEALTH_H_
#define SCFS_CLOUD_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/sim/time.h"

namespace scfs {

struct HealthOptions {
  // Consecutive failures that trip the breaker open.
  int failure_threshold = 3;
  // How long a tripped cloud stays demoted before the next probe.
  VirtualDuration open_duration = FromMillis(3000);
  // Weight of the newest sample in the per-cloud latency EWMA.
  double ewma_alpha = 0.2;
  // Hedge delay = max(hedge_floor, hedge_multiplier * median healthy EWMA).
  VirtualDuration hedge_floor = FromMillis(50);
  double hedge_multiplier = 2.0;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct CloudHealthSnapshot {
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  VirtualDuration ewma_latency = 0;
  uint64_t successes = 0;
  uint64_t failures = 0;
  uint64_t breaker_trips = 0;
};

class CloudHealthTracker {
 public:
  explicit CloudHealthTracker(unsigned clouds, HealthOptions options = {});

  void RecordSuccess(unsigned cloud, VirtualTime now, VirtualDuration latency);
  void RecordFailure(unsigned cloud, VirtualTime now);

  // True while the breaker holds the cloud out of the preference order
  // (open and the probe cooldown has not yet elapsed).
  bool Demoted(unsigned cloud, VirtualTime now) const;

  // Stable-partitions `base` (a cost-ordered cloud preference list) into
  // non-demoted clouds followed by demoted ones. Cost order is preserved
  // within each class.
  std::vector<unsigned> Reorder(const std::vector<unsigned>& base,
                                VirtualTime now) const;

  // Like Reorder, but non-demoted clouds are sorted by ascending EWMA
  // latency (the read path's order: the first k launched are the fastest
  // holders). Clouds without a latency sample yet follow the sampled ones
  // in `base` order; demoted clouds stay last, in `base` order.
  std::vector<unsigned> ReorderByLatency(const std::vector<unsigned>& base,
                                         VirtualTime now) const;

  // Adaptive delay before hedging a read to one more cloud.
  VirtualDuration HedgeDelay() const;

  CloudHealthSnapshot snapshot(unsigned cloud, VirtualTime now) const;
  // Total breaker trips across all clouds (closed/half-open -> open edges).
  uint64_t breaker_trips() const;

  const HealthOptions& options() const { return options_; }

 private:
  struct CloudState {
    int consecutive_failures = 0;
    bool open = false;
    VirtualTime opened_at = 0;
    double ewma_latency = 0;  // 0 = no samples yet
    uint64_t successes = 0;
    uint64_t failures = 0;
    uint64_t trips = 0;
  };

  bool DemotedLocked(const CloudState& state, VirtualTime now) const;
  // Reorder's stable partition; returns the count of non-demoted clouds,
  // which lead `*ordered`.
  size_t PartitionLocked(const std::vector<unsigned>& base, VirtualTime now,
                         std::vector<unsigned>* ordered) const;

  HealthOptions options_;
  mutable std::mutex mu_;
  std::vector<CloudState> clouds_;
};

}  // namespace scfs

#endif  // SCFS_CLOUD_HEALTH_H_
