// VirtualTimerQueue: fires callbacks at virtual-clock deadlines from one
// shared background thread. This is what gives the DepSky data plane
// request deadlines and hedge timers without a watchdog thread per request,
// and what completes a simulated cloud's requests without a sleeping thread
// per request — hundreds of in-flight cloud requests share a single sleeper.
//
// In an *instant* environment there is no driver that advances real time to
// a deadline (Sleep() just bumps a logical counter), so timers never fire:
// Schedule() is a no-op returning 0 and the behaviors built on timers
// (deadlines, hedged reads) are inert. Semantic tests that need them run on
// a scaled environment.

#ifndef SCFS_COMMON_TIMER_QUEUE_H_
#define SCFS_COMMON_TIMER_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "src/sim/environment.h"

namespace scfs {

class VirtualTimerQueue {
 public:
  explicit VirtualTimerQueue(Environment* env) : env_(env) {
    if (!env_->instant()) {
      thread_ = std::thread([this] { RunLoop(); });
    }
  }

  ~VirtualTimerQueue() { Shutdown(); }

  // Runs `fn` on the timer thread once the virtual clock reaches `when`.
  // Returns a cancellation id (0 in instant mode: the timer will never
  // fire and needs no cancellation).
  uint64_t Schedule(VirtualTime when, std::function<void()> fn) {
    if (env_->instant()) {
      return 0;
    }
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t id = ++next_id_;
    auto it = timers_.emplace(std::make_pair(when, id), std::move(fn)).first;
    // The thread sleeps until the earliest deadline (or runs a callback and
    // then re-reads the map), so only a new earliest timer needs a wakeup.
    if (it == timers_.begin()) {
      cv_.notify_one();
    }
    return id;
  }

  // True if the timer was removed before firing. Safe to call with an id
  // that already fired, was already cancelled, or is 0.
  bool Cancel(uint64_t id) {
    if (id == 0) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->first.second == id) {
        timers_.erase(it);
        return true;
      }
    }
    return false;
  }

  // Stops the thread; pending timers are dropped without firing.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) {
        return;
      }
      shutdown_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  void RunLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!shutdown_) {
      if (timers_.empty()) {
        cv_.wait(lock);
        continue;
      }
      auto it = timers_.begin();
      VirtualTime due = it->first.first;
      if (env_->Now() < due) {
        cv_.wait_until(lock, env_->RealDeadline(due));
        continue;  // re-evaluate: earlier timer, cancel, or shutdown
      }
      std::function<void()> fn = std::move(it->second);
      timers_.erase(it);
      lock.unlock();
      fn();
      lock.lock();
    }
  }

  Environment* env_;
  std::mutex mu_;
  std::condition_variable cv_;
  // Key (deadline, id) keeps deterministic fire order for equal deadlines.
  std::map<std::pair<VirtualTime, uint64_t>, std::function<void()>> timers_;
  uint64_t next_id_ = 0;
  bool shutdown_ = false;
  std::thread thread_;
};

}  // namespace scfs

#endif  // SCFS_COMMON_TIMER_QUEUE_H_
