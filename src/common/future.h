// Future<T>/Promise<T>: the completion primitive behind SCFS's asynchronous
// storage pipeline (ObjectStore::*Async, DepSky's quorum waits,
// BackgroundUploader, fsapi CloseAsync).
//
// The design integrates with Environment's thread-charge accounting: a
// producer records, together with the value, the modelled virtual time it
// charged while computing it. A consumer that blocks in Get() is charged that
// amount — so a thread that fans out to N clouds and waits on the combined
// future is charged the *maximum* of the children (it waited for the slowest
// reply), never the sum. WhenAll and WhenQuorum implement exactly that
// max-of-children rule; WhenQuorum additionally completes as soon as a quorum
// of children satisfies a validity predicate, which is what lets DepSky
// return after the fastest n-f clouds instead of all n.
//
// Futures are shared-state handles (copyable); Get() may be called by
// multiple threads, each being charged for its own wait. OnReady callbacks
// run on the fulfilling thread (or inline when the value is already there)
// and are invoked in registration order, exactly once.

#ifndef SCFS_COMMON_FUTURE_H_
#define SCFS_COMMON_FUTURE_H_

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/sim/environment.h"
#include "src/sim/time.h"

namespace scfs {

template <typename T>
class Promise;

namespace internal {

template <typename T>
struct FutureState {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<T> value;
  VirtualDuration charge = 0;
  std::vector<std::function<void(const T&, VirtualDuration)>> callbacks;
};

}  // namespace internal

template <typename T>
class Future {
 public:
  Future() = default;  // invalid until assigned from a Promise or Ready()

  bool valid() const { return state_ != nullptr; }

  bool ready() const {
    assert(valid());
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->value.has_value();
  }

  // Blocks until the value is available. Does not charge the caller.
  void Wait() const {
    assert(valid());
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->value.has_value(); });
  }

  // Blocks until the value is available, charges the calling thread the
  // producer's recorded charge (the modelled time the caller waited for),
  // and returns a copy of the value.
  T Get() const {
    assert(valid());
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->value.has_value(); });
    Environment::AddThreadCharge(state_->charge);
    return *state_->value;
  }

  // Blocks and charges like Get(), without copying the value out — for
  // waits whose results were already collected elsewhere (e.g. a quorum
  // predicate) and would otherwise be copied only to be discarded.
  void Join() const {
    assert(valid());
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->value.has_value(); });
    Environment::AddThreadCharge(state_->charge);
  }

  // The producer's recorded charge; only meaningful once ready.
  VirtualDuration charge() const {
    assert(valid());
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->charge;
  }

  // Registers `cb` to run once the value is available — immediately on this
  // thread if it already is, otherwise on the fulfilling thread. Callbacks
  // fire in registration order. The value reference is only valid for the
  // duration of the call.
  void OnReady(std::function<void(const T&, VirtualDuration)> cb) const {
    assert(valid());
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->value.has_value()) {
        state_->callbacks.push_back(std::move(cb));
        return;
      }
    }
    cb(*state_->value, state_->charge);
  }

  // An already-completed future. `charge` defaults to zero: the usual
  // producer of a ready future is a synchronous adapter whose caller was
  // already charged inline by the blocking call.
  static Future<T> Ready(T value, VirtualDuration charge = 0) {
    Promise<T> promise;
    promise.Set(std::move(value), charge);
    return promise.future();
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<internal::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<internal::FutureState<T>>()) {}

  Future<T> future() const { return Future<T>(state_); }

  // Fulfills the promise with `value`, recording the modelled time the
  // producer charged while computing it. May be called exactly once.
  void Set(T value, VirtualDuration charge = 0) const {
    std::vector<std::function<void(const T&, VirtualDuration)>> callbacks;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      assert(!state_->value.has_value() && "promise fulfilled twice");
      state_->value = std::move(value);
      state_->charge = charge;
      callbacks.swap(state_->callbacks);
      state_->cv.notify_all();
    }
    for (auto& cb : callbacks) {
      cb(*state_->value, state_->charge);
    }
  }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
};

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

// Completes when every child has completed. The combined charge is the
// maximum of the children's charges: parallel cloud accesses cost the caller
// the slowest branch, not the sum.
template <typename T>
Future<std::vector<T>> WhenAll(std::vector<Future<T>> children) {
  if (children.empty()) {
    return Future<std::vector<T>>::Ready({});
  }
  struct State {
    std::mutex mu;
    std::vector<std::optional<T>> results;
    size_t remaining = 0;
    VirtualDuration max_charge = 0;
    Promise<std::vector<T>> promise;
  };
  auto state = std::make_shared<State>();
  state->results.resize(children.size());
  state->remaining = children.size();
  for (size_t i = 0; i < children.size(); ++i) {
    children[i].OnReady([state, i](const T& value, VirtualDuration charge) {
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->results[i] = value;
        state->max_charge = std::max(state->max_charge, charge);
        done = (--state->remaining == 0);
      }
      if (done) {
        std::vector<T> values;
        values.reserve(state->results.size());
        for (auto& result : state->results) {
          values.push_back(std::move(*result));
        }
        state->promise.Set(std::move(values), state->max_charge);
      }
    });
  }
  return state->promise.future();
}

// Erases a future's value type, keeping completion and charge: lets a
// combinator output act as a dependency gate for APIs expecting a
// Future<Status> (e.g. chaining a pipeline stage after a WhenAll).
template <typename T>
Future<Status> AsCompletion(Future<T> future) {
  Promise<Status> promise;
  future.OnReady([promise](const T&, VirtualDuration charge) {
    promise.Set(OkStatus(), charge);
  });
  return promise.future();
}

// Result of WhenQuorum: the children completed by trigger time (index-aligned
// with the input vector; children still in flight are nullopt).
template <typename T>
struct QuorumResult {
  std::vector<std::optional<T>> results;
  unsigned satisfied = 0;      // children for which the predicate held
  bool quorum_reached = false;
};

// Completes as soon as `quorum` children satisfy `ok` (all completions count
// when `ok` is null), or when every child has completed — whichever happens
// first. The charge is the maximum among the children completed at trigger
// time (≈ the arrival of the quorum-closing reply), so a caller waiting on a
// 3-of-4 fan-out is charged the third-fastest cloud, not the slowest.
//
// The predicate runs under the combinator's lock (serialized, never after
// completion), so it may safely collect side effects into shared state.
// Children that complete after the trigger are ignored; their producers keep
// running and must not reference caller-owned storage.
template <typename T>
Future<QuorumResult<T>> WhenQuorum(
    std::vector<Future<T>> children, unsigned quorum,
    std::function<bool(size_t, const T&)> ok = nullptr) {
  QuorumResult<T> immediate;
  immediate.results.resize(children.size());
  if (children.empty() || quorum == 0) {
    immediate.quorum_reached = (quorum == 0);
    return Future<QuorumResult<T>>::Ready(std::move(immediate));
  }
  struct State {
    std::mutex mu;
    QuorumResult<T> result;
    size_t completed = 0;
    size_t total = 0;
    unsigned quorum = 0;
    VirtualDuration max_charge = 0;
    bool done = false;
    std::function<bool(size_t, const T&)> ok;
    Promise<QuorumResult<T>> promise;
  };
  auto state = std::make_shared<State>();
  state->result = std::move(immediate);
  state->total = children.size();
  state->quorum = quorum;
  state->ok = std::move(ok);
  for (size_t i = 0; i < children.size(); ++i) {
    children[i].OnReady([state, i](const T& value, VirtualDuration charge) {
      QuorumResult<T> snapshot;
      VirtualDuration combined_charge = 0;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->done) {
          return;  // straggler past the trigger
        }
        state->result.results[i] = value;
        state->max_charge = std::max(state->max_charge, charge);
        ++state->completed;
        if (!state->ok || state->ok(i, value)) {
          ++state->result.satisfied;
        }
        if (state->result.satisfied < state->quorum &&
            state->completed < state->total) {
          return;
        }
        state->done = true;
        state->result.quorum_reached = state->result.satisfied >= state->quorum;
        snapshot = std::move(state->result);
        combined_charge = state->max_charge;
      }
      state->promise.Set(std::move(snapshot), combined_charge);
    });
  }
  return state->promise.future();
}

}  // namespace scfs

#endif  // SCFS_COMMON_FUTURE_H_
