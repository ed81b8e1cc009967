// AsyncExecutor: the thread supply behind the asynchronous storage pipeline.
//
// Tasks are queued and run on a pool of reusable workers. The pool grows on
// demand: whenever a task is posted and no worker is idle, a new worker is
// spawned. That rule makes the executor deadlock-free under nesting — a task
// that blocks on futures produced by other queued tasks (a DepSky write
// running inside a background upload fans out shard PUTs to the same
// executor) can never starve them, at the cost of the thread count tracking
// the high-water mark of concurrency (fine for a simulation; idle workers
// park and are reused). A SimulatedCloud request waits on its cloud's timer
// queue, not on a worker, so only blocked callers and running steps count
// towards that mark, not the cloud requests in flight.
//
// Submit() wraps the task with Environment thread-charge bookkeeping: the
// task's modelled charge is recorded on the returned future, so a waiter is
// charged for exactly the modelled time it waited on (see future.h).

#ifndef SCFS_COMMON_EXECUTOR_H_
#define SCFS_COMMON_EXECUTOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/future.h"
#include "src/sim/environment.h"

namespace scfs {

class AsyncExecutor {
 public:
  AsyncExecutor() = default;
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  // Queues a raw task. The caller handles its own completion signalling.
  void Post(std::function<void()> task);

  // Queues `fn` and returns a future for its result. The future's charge is
  // the modelled virtual time the task charged while running.
  template <typename Fn>
  auto Submit(Fn fn) -> Future<std::invoke_result_t<Fn>> {
    using T = std::invoke_result_t<Fn>;
    Promise<T> promise;
    Post([promise, fn = std::move(fn)]() mutable {
      Environment::ResetThreadCharged();
      T value = fn();
      promise.Set(std::move(value), Environment::ThreadCharged());
    });
    return promise.future();
  }

  // Workers ever spawned (high-water mark of concurrency); for tests.
  size_t thread_count() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t idle_ = 0;
  bool shutdown_ = false;
};

// The process-wide executor shared by SimulatedCloud's async overrides, the
// blob backends' async adapters and the BackgroundUploader pipeline.
AsyncExecutor& DefaultExecutor();

// Counts the asynchronous requests a component has in flight, so its
// destructor can wait for stragglers (a quorum fan-out returns to the caller
// while the slowest requests are still running). Destroying the tracker
// waits for the count to reach zero.
class InFlightTracker {
 public:
  ~InFlightTracker() { AwaitIdle(); }

  void Add() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
  }
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    --count_;
    cv_.notify_all();
  }
  void AwaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_ = 0;
};

// Dispatches `fn` on the default executor, holding `tracker`'s count for the
// task's duration. The tracker must outlive the task (its owner's destructor
// waits on it before releasing anything the task touches). The count is
// released only after the result future is fulfilled, so AwaitIdle()
// returning implies every value is published and every OnReady continuation
// (which may itself re-enter a tracker) has already run.
template <typename Fn>
auto SubmitTracked(InFlightTracker* tracker, Fn fn)
    -> Future<std::invoke_result_t<Fn>> {
  using T = std::invoke_result_t<Fn>;
  tracker->Add();
  Promise<T> promise;
  DefaultExecutor().Post([tracker, promise, fn = std::move(fn)]() mutable {
    Environment::ResetThreadCharged();
    T value = fn();
    promise.Set(std::move(value), Environment::ThreadCharged());
    tracker->Done();
  });
  return promise.future();
}

}  // namespace scfs

#endif  // SCFS_COMMON_EXECUTOR_H_
