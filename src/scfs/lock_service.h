// LockService (paper §2.5.1): write-write conflict avoidance built on the
// coordination service's ephemeral lock recipe. Locks carry leases so a
// crashed client's files unlock automatically; an agent that keeps a file
// open re-extends the lease on demand. Opening for reading never locks —
// read-write conflicts are handled by the consistency anchor and whole-file
// upload/download, which guarantee the newest closed version is read.
//
// Lock-and-read: a write lock taken with a coordination round reads the
// file's metadata entry in the same ordered command (CoordinationService::
// TryLock's read_key), so the writer opens the version current at the lock's
// position in the total order — never a cached one — without a second round.
// A create's lock round also creates the entry if absent (lock-and-create).
//
// Renew-on-demand: a held lock is renewed only once less than half its lease
// remains; with the default 120 s lease a close never pays a renewal round.
//
// Publish-and-release (DESIGN.md "Publish-and-release"): a close that
// publishes its entry and drops the path's last local reference, with the
// linger off, releases the lock in the publish's own ordered slot
// (PublishAndRelease), so it makes no unlock round. The standalone unlock
// round (Release) remains for a close that publishes nothing to the
// coordination service — a clean close, a failed push, a private (PNS)
// entry — for a close that fails before its publish, and for the release
// of the last reference after a re-entrant close published.
//
// Write-credit delegation (DESIGN.md "Lease-delegated caching"): with a
// LeaseManager wired in and linger enabled, the last local release keeps the
// coordination lock "lingering" instead of unlocking — the next Acquire of
// the same path reclaims it with ZERO coordination messages. A contender
// in the same deployment that finds the lock busy asks the manager to have
// the lingering holder release for real; a crashed holder's linger simply
// expires with the server-side lease (the 120 s backstop).

#ifndef SCFS_SCFS_LOCK_SERVICE_H_
#define SCFS_SCFS_LOCK_SERVICE_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "src/common/future.h"
#include "src/coord/coordination_service.h"
#include "src/coord/lease.h"
#include "src/scfs/metadata.h"
#include "src/sim/environment.h"

namespace scfs {

struct LockServiceOptions {
  VirtualDuration lease = 120 * kSecond;
  // Non-null manager + linger=true enable write-credit delegation.
  LeaseManager* leases = nullptr;
  bool linger = false;
  // The principal the lock-and-read reads the metadata entry as — the
  // agent's user; locks themselves are owned by the agent's session.
  std::string reader;
  // Fired (outside the service's mutex) whenever this agent stops holding a
  // path's coordination lock for real — an unlock round, a publish that
  // released it, a lingering lock handed to a contender, or a failed
  // reacquisition. Anything whose validity is backed by holding the lock
  // (the metadata service's pinned own-publish entries) must be torn down
  // here.
  std::function<void(const std::string& path)> on_release;
};

class LockService {
 public:
  // `coord` may be null (non-sharing mode): every lock trivially succeeds —
  // there is a single client per namespace. `env` may be null only then.
  LockService(Environment* env, CoordinationService* coord, std::string user,
              LockServiceOptions options = {})
      : env_(env), coord_(coord), user_(std::move(user)), options_(options) {}

  // What Acquire read of the file's metadata entry ("m:<path>/").
  struct LockedRead {
    // True when Acquire took the lock with a coordination round; `entry` is
    // then the entry at the lock's ordered position (nullopt: no entry). A
    // re-entrant or lingering reclaim reads nothing: no other client can
    // have published since this agent took the lock.
    bool fresh = false;
    std::optional<CoordEntry> entry;
    // True when the lock's slot created `entry` from Acquire's `create`.
    bool created = false;
  };

  // BUSY if another client holds the file. Re-entrant within this agent:
  // acquisitions are refcounted (the non-blocking mode may re-open a file
  // whose previous close is still uploading; the lock must survive until the
  // last release). A non-null `read` asks for the lock-and-read; a non-null
  // `create` (an encoded entry) with it for the lock-and-create, which takes
  // a round even when this agent holds the lock. While this agent's release
  // of the path is in flight it waits for it, and then takes it afresh.
  Status Acquire(const std::string& path, LockedRead* read = nullptr,
                 const Bytes* create = nullptr);
  Status Release(const std::string& path);
  // The publish a close's release can ride: called with the lock to release
  // in its own ordered command, or with nullopt while the lock stays held.
  using Publish =
      std::function<Status(const std::optional<CoordLockRelease>& release)>;
  // Ends one local reference to `path`'s lock through `publish`. If it is
  // the last one and the lock would not linger, the hold ends here:
  // `publish` gets the lock and must release it — in its slot, or with a
  // standalone unlock where it cannot (MetadataService::Put) — and
  // on_release fires once it returns. Otherwise `publish` runs while the
  // reference is still held and the reference is then released as by
  // Release. Returns publish's status if it failed, else the release's.
  Status PublishAndRelease(const std::string& path, const Publish& publish);
  // Extends the lease of a lock held by this service.
  Status Renew(const std::string& path);
  // Asynchronous lease extension: fired at the start of a background upload
  // so the coordination round overlaps the cloud transfer (a long upload
  // must not lose its file lock mid-chain). Renewing commutes with
  // everything except releasing the same path — join the future before
  // Release. A renewal that loses that race fails benignly (kNotFound).
  // With more than half the lease remaining this is a ready no-op
  // (renew-on-demand).
  Future<Status> RenewAsync(const std::string& path);
  // Write-credit delegation: asks the mount in this deployment that lingers
  // on the path's lock, if any, to release it for real. True if the lock is
  // now free of that holder; always false without linger.
  bool RequestRelease(const std::string& path);
  // Conservative client-side bound on how long this agent's hold on the
  // path's lock (including a lingering one) is guaranteed by the server
  // lease. 0 when the lock is not held. The write-credit metadata pin
  // (MetadataService::PinOwned) uses this as its validity horizon.
  VirtualTime HeldUntil(const std::string& path);

  // Experiment counters: acquisitions served by reclaiming a lingering or
  // held lock without any coordination round.
  uint64_t reclaim_hits() const {
    std::lock_guard<std::mutex> guard(mu_);
    return reclaim_hits_;
  }

 private:
  struct Held {
    uint64_t token = 0;
    int refcount = 0;
    // Conservative client-side view of the server lease: counted from
    // before the round that took or renewed it, on the same virtual clock
    // the state machine expires with.
    VirtualTime expires_at = 0;
    bool lingering = false;
  };

  bool LingerEnabled() const {
    return options_.leases != nullptr && options_.linger;
  }
  // The broker-side release of a lingering lock; returns true if the lock
  // was released (or already gone), false if it was reclaimed meanwhile.
  bool TryReleaseLingering(const std::string& path);
  // Ends a release begun by moving `path` from held_ to releasing_, once
  // its command has returned and on_release has fired.
  void EndRelease(const std::string& path);

  Environment* env_;
  CoordinationService* coord_;
  std::string user_;
  LockServiceOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Held> held_;
  // Paths whose hold is ending: the releasing command (an unlock, or a
  // publish that releases) is in flight or on_release has not fired yet.
  // An Acquire of such a path waits on `released_`.
  std::set<std::string> releasing_;
  std::condition_variable released_;
  uint64_t reclaim_hits_ = 0;
};

}  // namespace scfs

#endif  // SCFS_SCFS_LOCK_SERVICE_H_
