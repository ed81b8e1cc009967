#include "src/cloud/health.h"

#include <algorithm>
#include <utility>

namespace scfs {

CloudHealthTracker::CloudHealthTracker(unsigned clouds, HealthOptions options)
    : options_(options), clouds_(clouds) {}

void CloudHealthTracker::RecordSuccess(unsigned cloud, VirtualTime now,
                                       VirtualDuration latency) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  CloudState& state = clouds_[cloud];
  state.successes++;
  state.consecutive_failures = 0;
  state.open = false;
  if (latency > 0) {
    double sample = static_cast<double>(latency);
    state.ewma_latency = state.ewma_latency == 0
                             ? sample
                             : options_.ewma_alpha * sample +
                                   (1 - options_.ewma_alpha) *
                                       state.ewma_latency;
  }
}

void CloudHealthTracker::RecordFailure(unsigned cloud, VirtualTime now) {
  std::lock_guard<std::mutex> lock(mu_);
  CloudState& state = clouds_[cloud];
  state.failures++;
  state.consecutive_failures++;
  if (!state.open) {
    if (state.consecutive_failures >= options_.failure_threshold) {
      state.open = true;
      state.opened_at = now;
      state.trips++;
    }
  } else if (now >= state.opened_at + options_.open_duration) {
    // A failed half-open probe re-opens the breaker for a fresh cooldown.
    state.opened_at = now;
    state.trips++;
  }
  // Failures inside the open window leave opened_at alone: stragglers from
  // requests issued before the trip should not push the probe out forever.
}

bool CloudHealthTracker::DemotedLocked(const CloudState& state,
                                       VirtualTime now) const {
  return state.open && now < state.opened_at + options_.open_duration;
}

bool CloudHealthTracker::Demoted(unsigned cloud, VirtualTime now) const {
  std::lock_guard<std::mutex> lock(mu_);
  return DemotedLocked(clouds_[cloud], now);
}

size_t CloudHealthTracker::PartitionLocked(
    const std::vector<unsigned>& base, VirtualTime now,
    std::vector<unsigned>* ordered) const {
  auto demoted = [&](unsigned cloud) {
    return cloud < clouds_.size() && DemotedLocked(clouds_[cloud], now);
  };
  ordered->clear();
  ordered->reserve(base.size());
  for (unsigned cloud : base) {
    if (!demoted(cloud)) {
      ordered->push_back(cloud);
    }
  }
  const size_t healthy = ordered->size();
  for (unsigned cloud : base) {
    if (demoted(cloud)) {
      ordered->push_back(cloud);
    }
  }
  return healthy;
}

std::vector<unsigned> CloudHealthTracker::Reorder(
    const std::vector<unsigned>& base, VirtualTime now) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<unsigned> ordered;
  PartitionLocked(base, now, &ordered);
  return ordered;
}

std::vector<unsigned> CloudHealthTracker::ReorderByLatency(
    const std::vector<unsigned>& base, VirtualTime now) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<unsigned> ordered;
  const size_t healthy = PartitionLocked(base, now, &ordered);
  // Unsampled clouds (EWMA 0) sort after every sampled one and tie among
  // themselves, so the stable sort keeps their `base` order.
  auto key = [&](unsigned cloud) {
    const double ewma =
        cloud < clouds_.size() ? clouds_[cloud].ewma_latency : 0;
    return std::make_pair(ewma == 0, ewma);
  };
  std::stable_sort(ordered.begin(), ordered.begin() + healthy,
                   [&](unsigned a, unsigned b) { return key(a) < key(b); });
  return ordered;
}

VirtualDuration CloudHealthTracker::HedgeDelay() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> healthy;
  healthy.reserve(clouds_.size());
  for (const CloudState& state : clouds_) {
    if (!state.open && state.ewma_latency > 0) {
      healthy.push_back(state.ewma_latency);
    }
  }
  if (healthy.empty()) {
    return options_.hedge_floor;
  }
  size_t mid = healthy.size() / 2;
  std::nth_element(healthy.begin(), healthy.begin() + mid, healthy.end());
  VirtualDuration adaptive = static_cast<VirtualDuration>(
      healthy[mid] * options_.hedge_multiplier);
  return std::max(options_.hedge_floor, adaptive);
}

CloudHealthSnapshot CloudHealthTracker::snapshot(unsigned cloud,
                                                 VirtualTime now) const {
  std::lock_guard<std::mutex> lock(mu_);
  const CloudState& state = clouds_[cloud];
  CloudHealthSnapshot snap;
  if (!state.open) {
    snap.state = BreakerState::kClosed;
  } else if (DemotedLocked(state, now)) {
    snap.state = BreakerState::kOpen;
  } else {
    snap.state = BreakerState::kHalfOpen;
  }
  snap.consecutive_failures = state.consecutive_failures;
  snap.ewma_latency = static_cast<VirtualDuration>(state.ewma_latency);
  snap.successes = state.successes;
  snap.failures = state.failures;
  snap.breaker_trips = state.trips;
  return snap;
}

uint64_t CloudHealthTracker::breaker_trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const CloudState& state : clouds_) {
    total += state.trips;
  }
  return total;
}

}  // namespace scfs
