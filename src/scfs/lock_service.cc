#include "src/scfs/lock_service.h"

namespace scfs {

Status LockService::Acquire(const std::string& path, LockedRead* read) {
  if (read != nullptr) {
    *read = LockedRead{};
  }
  if (coord_ == nullptr) {
    return OkStatus();
  }
  const std::string key = LockKey(path);
  uint64_t token = 0;
  bool reclaimed = false;
  bool was_lingering = false;
  bool need_renew = false;
  {
    std::unique_lock<std::mutex> guard(mu_);
    // A release of this path still in flight: wait it out. The server takes
    // a TryLock by the lock's own owner as re-entrant, so one ordered
    // before the releasing command would get back the lock that command
    // then frees — and its read would miss what a releasing publish wrote.
    released_.wait(guard, [&] { return releasing_.count(path) == 0; });
    auto it = held_.find(path);
    if (it != held_.end()) {
      was_lingering = it->second.lingering;
      it->second.lingering = false;
      it->second.refcount++;
      token = it->second.token;
      reclaimed = true;
      // Renew-on-demand: only when less than half the lease remains. The
      // steady-state reclaim costs zero coordination messages.
      need_renew = it->second.expires_at <
                   env_->Now() + options_.lease / 2;
      if (!need_renew) {
        ++reclaim_hits_;
      }
    }
  }
  if (reclaimed) {
    if (was_lingering && LingerEnabled()) {
      // Stop offering the lock to contenders; a racing RequestLockRelease
      // that already popped the broker entry sees refcount > 0 and declines.
      options_.leases->UnregisterLingering(key);
    }
    if (!need_renew) {
      return OkStatus();
    }
    const VirtualTime asked = env_->Now();
    Status renewed = coord_->RenewLock(user_, key, token, options_.lease);
    if (renewed.ok()) {
      std::lock_guard<std::mutex> guard(mu_);
      auto it = held_.find(path);
      if (it != held_.end()) {
        it->second.expires_at = asked + options_.lease;
      }
      return OkStatus();
    }
    // kNotFound: the server lease expired while the lock lingered (the
    // crash backstop); fall through to a fresh TryLock, keeping the
    // refcount this Acquire already took.
    if (renewed.code() != ErrorCode::kNotFound) {
      bool dropped = false;
      {
        std::lock_guard<std::mutex> guard(mu_);
        auto it = held_.find(path);
        if (it != held_.end() && --it->second.refcount <= 0) {
          held_.erase(it);
          dropped = true;
        }
      }
      if (dropped && options_.on_release) {
        options_.on_release(path);
      }
      return renewed;
    }
  }
  const std::string read_key = read != nullptr ? MetadataKey(path) : "";
  VirtualTime asked = env_->Now();
  auto lock =
      coord_->TryLock(user_, key, options_.lease, read_key, options_.reader);
  // The holder may be another mount in this deployment lingering on the
  // lock; ask it to release for real and retry once.
  if (!lock.ok() && lock.status().code() == ErrorCode::kBusy &&
      RequestRelease(path)) {
    asked = env_->Now();
    lock = coord_->TryLock(user_, key, options_.lease, read_key,
                           options_.reader);
  }
  if (!lock.ok()) {
    bool dropped = false;
    if (reclaimed) {
      std::lock_guard<std::mutex> guard(mu_);
      auto it = held_.find(path);
      if (it != held_.end() && --it->second.refcount <= 0) {
        held_.erase(it);
        dropped = true;
      }
    }
    if (dropped && options_.on_release) {
      options_.on_release(path);
    }
    return lock.status();
  }
  if (read != nullptr) {
    read->fresh = true;
    read->entry = std::move(lock->entry);
  }
  std::lock_guard<std::mutex> guard(mu_);
  Held& held = held_[path];
  held.token = lock->token;
  if (!reclaimed) {
    held.refcount++;
  }
  held.lingering = false;
  held.expires_at = asked + options_.lease;
  return OkStatus();
}

Status LockService::Release(const std::string& path) {
  if (coord_ == nullptr) {
    return OkStatus();
  }
  uint64_t token = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = held_.find(path);
    if (it == held_.end()) {
      return NotFoundError("lock not held: " + path);
    }
    if (--it->second.refcount > 0) {
      return OkStatus();  // still referenced by an in-flight upload/open
    }
    if (LingerEnabled()) {
      // Keep the coordination lock: the next Acquire reclaims it for free.
      // The server-side lease is the backstop if this agent disappears.
      it->second.lingering = true;
      token = 0;
    } else {
      token = it->second.token;
      held_.erase(it);
      releasing_.insert(path);
    }
  }
  if (LingerEnabled()) {
    options_.leases->RegisterLingering(
        LockKey(path), [this, path] { return TryReleaseLingering(path); });
    return OkStatus();
  }
  Status status = coord_->Unlock(user_, LockKey(path), token);
  if (options_.on_release) {
    options_.on_release(path);
  }
  EndRelease(path);
  if (status.code() == ErrorCode::kNotFound) {
    // The ephemeral lease already expired (exactly what leases are for when
    // a client disappears); releasing an expired lock is benign.
    return OkStatus();
  }
  return status;
}

Status LockService::PublishAndRelease(const std::string& path,
                                      const Publish& publish) {
  std::optional<CoordLockRelease> release;
  if (coord_ != nullptr && !LingerEnabled()) {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = held_.find(path);
    if (it != held_.end() && it->second.refcount == 1) {
      release = CoordLockRelease{LockKey(path), it->second.token};
      held_.erase(it);
      releasing_.insert(path);
    }
  }
  if (!release.has_value()) {
    Status published = publish(std::nullopt);
    Status released = Release(path);
    return published.ok() ? released : published;
  }
  Status published = publish(release);
  if (options_.on_release) {
    options_.on_release(path);
  }
  EndRelease(path);
  return published;
}

void LockService::EndRelease(const std::string& path) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    releasing_.erase(path);
  }
  released_.notify_all();
}

bool LockService::TryReleaseLingering(const std::string& path) {
  uint64_t token = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = held_.find(path);
    if (it == held_.end()) {
      return true;  // already gone (server lease expired and entry dropped)
    }
    if (!it->second.lingering || it->second.refcount > 0) {
      return false;  // reclaimed by a local Acquire since the offer
    }
    token = it->second.token;
    held_.erase(it);
    releasing_.insert(path);
  }
  // Tear down lock-backed local state BEFORE the contender can acquire: once
  // the unlock commits, the next writer may publish immediately, and a pin
  // still serving our last publish would violate read-after-ack.
  if (options_.on_release) {
    options_.on_release(path);
  }
  Status status = coord_->Unlock(user_, LockKey(path), token);
  EndRelease(path);
  return status.ok() || status.code() == ErrorCode::kNotFound;
}

Status LockService::Renew(const std::string& path) {
  return RenewAsync(path).Get();
}

Future<Status> LockService::RenewAsync(const std::string& path) {
  if (coord_ == nullptr) {
    return Future<Status>::Ready(OkStatus());
  }
  uint64_t token = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = held_.find(path);
    if (it == held_.end()) {
      return Future<Status>::Ready(NotFoundError("lock not held: " + path));
    }
    token = it->second.token;
    if (it->second.expires_at >= env_->Now() + options_.lease / 2) {
      // Renew-on-demand: more than half the lease remains, skip the round.
      return Future<Status>::Ready(OkStatus());
    }
  }
  Promise<Status> promise;
  const VirtualTime asked = env_->Now();
  coord_->RenewLockAsync(user_, LockKey(path), token, options_.lease)
      .OnReady([this, promise, path, asked](const Status& status,
                                            VirtualDuration charge) {
        if (status.ok()) {
          std::lock_guard<std::mutex> guard(mu_);
          auto it = held_.find(path);
          if (it != held_.end()) {
            it->second.expires_at = asked + options_.lease;
          }
        }
        promise.Set(status, charge);
      });
  return promise.future();
}

bool LockService::RequestRelease(const std::string& path) {
  return LingerEnabled() && options_.leases->RequestLockRelease(LockKey(path));
}

bool LockService::Holds(const std::string& path) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = held_.find(path);
  return it != held_.end() && !it->second.lingering;
}

VirtualTime LockService::HeldUntil(const std::string& path) {
  if (coord_ == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> guard(mu_);
  auto it = held_.find(path);
  return it != held_.end() ? it->second.expires_at : 0;
}

}  // namespace scfs
