// Lease-delegated metadata caching (DESIGN.md "Lease-delegated caching",
// ROADMAP item 3; credit-delegation in the style of cortx-motr's resource
// manager: revocable, time-bounded rights handed to clients so the common
// case needs no coordination round).
//
// Two pieces live here:
//
//  - LeaseManager: a deployment-wide registry connecting the coordination
//    stub to the lease holders (metadata caches, lingering lock owners).
//    When a mutation's reply reports revoked leases, the manager notifies
//    every registered holder BEFORE the mutation is acknowledged to its
//    submitter — the no-stale-read-after-ack rule. It also brokers lock
//    linger (a holder keeps a lock "lingering" after its last release; a
//    contender asks the manager to have it released for real) and carries
//    the chaos hook that suspends granting during lease-expiry fault
//    windows.
//
//  - LeasedCoordination: a decorator around the real CoordinationService
//    that feeds every reply's revocation notices through the manager. The
//    ordered path already serializes grants with mutations; the decorator's
//    only job is delivering the notices synchronously on the ack path.
//
// Holder callbacks are plain std::functions so src/coord stays free of any
// dependency on src/scfs.

#ifndef SCFS_COORD_LEASE_H_
#define SCFS_COORD_LEASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/coord/coordination_service.h"

namespace scfs {

struct LeaseCounters {
  uint64_t grants = 0;           // ordered kLeaseAcquire commands that succeeded
  uint64_t revocations = 0;      // lease records revoked by mutations
  uint64_t notifications = 0;    // holder callbacks invoked (invalidations)
  uint64_t local_hits = 0;       // metadata reads served from a live lease
  uint64_t linger_handoffs = 0;  // lingering locks released on a contender's ask
};

class LeaseManager {
 public:
  using RevokeFn = std::function<void(const std::string& prefix)>;
  // Returns true if the lingering lock was released (or already gone).
  using ReleaseFn = std::function<bool()>;

  // -- Holder registry ------------------------------------------------------

  // Registers a revocation sink; every revoked prefix is fanned out to all
  // registered holders (holders ignore prefixes they don't cache). Returns
  // an id for Unregister.
  uint64_t RegisterHolder(RevokeFn on_revoke);
  void UnregisterHolder(uint64_t id);

  // Called by the coordination stub with the revocations a mutation's reply
  // carried, before that reply reaches the submitter. Callbacks run outside
  // the registry lock (a holder may re-enter the manager).
  void NotifyRevocations(const std::vector<LeaseRevocation>& revoked);

  // Invalidates every holder's entire lease state (prefix "" covers all).
  void InvalidateAll();

  // -- Lock-linger brokering ------------------------------------------------

  // A lock holder that keeps its lock past the last local release registers
  // the lingering lock here so contenders can claim it without waiting out
  // the server-side lease.
  void RegisterLingering(const std::string& lock_key, ReleaseFn release);
  void UnregisterLingering(const std::string& lock_key);

  // A contender that got kBusy asks the lingering holder (if any, and if
  // it's in this deployment) to release for real. Returns true if a
  // lingering lock was released and the contender should retry.
  bool RequestLockRelease(const std::string& lock_key);

  // -- Chaos hook (FaultKind::kLeaseExpiry) ---------------------------------

  // While suspended, holders must not install new grants (AllowsGrants()
  // gates acquisition) and all current leases are invalidated — clients
  // fall back to the anchored coordination path for the window's duration.
  void SetGrantsSuspended(bool suspended);
  bool AllowsGrants() const { return !grants_suspended_.load(); }

  // -- Counters -------------------------------------------------------------

  void RecordGrant() { grants_.fetch_add(1); }
  void RecordLocalHit() { local_hits_.fetch_add(1); }
  LeaseCounters counters() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, RevokeFn> holders_;
  std::map<std::string, ReleaseFn> lingering_;
  uint64_t next_holder_id_ = 1;
  std::atomic<bool> grants_suspended_{false};
  std::atomic<uint64_t> grants_{0};
  std::atomic<uint64_t> revocations_{0};
  std::atomic<uint64_t> notifications_{0};
  std::atomic<uint64_t> local_hits_{0};
  std::atomic<uint64_t> linger_handoffs_{0};
};

// Decorator: forwards everything to the wrapped service and delivers each
// reply's revocation notices through the LeaseManager synchronously, before
// the reply reaches the submitter.
class LeasedCoordination : public CoordinationService {
 public:
  LeasedCoordination(std::unique_ptr<CoordinationService> inner,
                     LeaseManager* manager)
      : inner_(std::move(inner)), manager_(manager) {}

  Result<CoordReply> Submit(const CoordCommand& command) override;
  Future<Result<CoordReply>> SubmitAsync(const CoordCommand& command) override;
  Bytes StateDigest() override { return inner_->StateDigest(); }

  CoordinationService* inner() { return inner_.get(); }

 private:
  std::unique_ptr<CoordinationService> inner_;
  LeaseManager* manager_;
};

}  // namespace scfs

#endif  // SCFS_COORD_LEASE_H_
