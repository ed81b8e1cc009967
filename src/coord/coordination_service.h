// CoordinationService: the abstraction SCFS's metadata and lock services are
// written against (paper §2.3 "modular coordination"). Implementations:
// LocalCoordination (one DepSpace server on a single VM — the AWS backend)
// and ReplicatedCoordination (DepSpace over BFT-SMaRt-style SMR across four
// computing clouds — the CoC backend).

#ifndef SCFS_COORD_COORDINATION_SERVICE_H_
#define SCFS_COORD_COORDINATION_SERVICE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/future.h"
#include "src/coord/command.h"
#include "src/sim/time.h"

namespace scfs {

struct CoordEntry {
  Bytes value;
  uint64_t version = 0;
};

struct CoordLock {
  uint64_t token = 0;
  // The entry a lock-and-read asked for, read in the lock's ordered slot;
  // nullopt if it does not exist (or none was asked for).
  std::optional<CoordEntry> entry;
};

// A lock a publish releases in its own ordered slot (publish-and-release,
// DESIGN.md): the lock's name and the token its holder got.
struct CoordLockRelease {
  std::string name;
  uint64_t token = 0;
};

// The result of an ordered lease grant (see DESIGN.md "Lease-delegated
// caching"): the holder may serve `entries` — a snapshot of everything under
// the leased prefix it is allowed to read — locally until `expires_at`
// (virtual time, compared against the same clock the state machine expires
// with) or until a revocation notice arrives, whichever is first.
struct LeaseGrant {
  uint64_t epoch = 0;
  VirtualTime expires_at = 0;
  std::vector<CoordEntryView> entries;
};

class CoordinationService {
 public:
  virtual ~CoordinationService() = default;

  // Submits one totally-ordered command and waits for its reply.
  virtual Result<CoordReply> Submit(const CoordCommand& command) = 0;

  // Asynchronous submission: returns a future for the reply so callers can
  // overlap coordination rounds with storage work. The default adapter runs
  // Submit inline — the caller is charged by the blocking call itself, so
  // the ready future carries zero charge (never double-counted). Replicated
  // implementations override this with a real executor dispatch whose future
  // carries the round's modelled latency.
  virtual Future<Result<CoordReply>> SubmitAsync(const CoordCommand& command) {
    return Future<Result<CoordReply>>::Ready(Submit(command));
  }

  // Operations surface: a SHA-256 fingerprint of the coordination state
  // (deterministic snapshot serialization), comparable across replicas and
  // restarts of the same deployment kind. Empty when the implementation
  // has no snapshot support, or (replicated) while no digest has quorum
  // backing. The partitioned implementation combines per-partition quorum
  // digests deterministically (sorted by partition index).
  virtual Bytes StateDigest() { return {}; }

  // Partition topology. A single-server or single-cluster service is one
  // partition holding every key; PartitionedCoordination overrides these
  // with its routing map. Callers that perform multi-key operations (the
  // metadata service's subtree rename) consult partition_count() to decide
  // between the atomic single-partition path and the cross-partition
  // intent-record protocol.
  virtual unsigned partition_count() const { return 1; }
  virtual unsigned PartitionOf(const std::string& key) const {
    (void)key;
    return 0;
  }

  // -- Typed wrappers ------------------------------------------------------

  Status Write(const std::string& client, const std::string& key,
               const Bytes& value);
  Status ConditionalCreate(const std::string& client, const std::string& key,
                           const Bytes& value);
  // Returns the new version on success; kConflict if `expected_version`
  // does not match. Expected version 0 means "no entry": the call creates
  // the entry iff it is still absent. A key's versions never repeat within
  // one tuple space: an entry created, or renamed onto the key, after a
  // removal starts above the removed one's version. Covering leases are
  // revoked when the swap succeeds.
  //
  // Publish-and-release: the same ordered slot also releases `release`, if
  // set, when its token matches, whatever the swap's outcome — any reply
  // means the lock is released, and only a failed submission (kUnavailable,
  // no reply) leaves it unknown. The lock must live on the entry's
  // partition: PartitionRoutingKey co-locates "lk:<path>" with
  // "m:<path>/".
  Result<uint64_t> CompareAndSwap(
      const std::string& client, const std::string& key, const Bytes& value,
      uint64_t expected_version,
      const std::optional<CoordLockRelease>& release = std::nullopt);
  Result<CoordEntry> Read(const std::string& client, const std::string& key);
  Result<std::vector<CoordEntryView>> ReadPrefix(const std::string& client,
                                                 const std::string& prefix);
  Status Remove(const std::string& client, const std::string& key);
  // A remove guarded in its own ordered slot; returns the removed entry.
  // kConflict unless the entry is at `expected_version` (0: any version);
  // kBusy while `lock` (empty: no lock guard) is held, unexpired, by any
  // principal but `lock_owner` (default: `client`). The lock must live on
  // the entry's partition: PartitionRoutingKey co-locates "lk:<path>" with
  // "m:<path>/". Covering leases are revoked in the same slot.
  Result<CoordEntry> RemoveGuarded(const std::string& client,
                                   const std::string& key,
                                   uint64_t expected_version,
                                   const std::string& lock = "",
                                   const std::string& lock_owner = "");
  // Ephemeral lock with a lease; kBusy if held by another client. With a
  // non-empty `read_key` the same ordered command also reads that entry
  // (CoordLock::entry) as `reader` (default: `client`); a reader that may
  // not read it gets kPermissionDenied and no lock. The entry must live on
  // the lock's partition: PartitionRoutingKey co-locates "lk:<path>" with
  // "m:<path>/".
  Result<CoordLock> TryLock(const std::string& client, const std::string& name,
                            VirtualDuration lease,
                            const std::string& read_key = "",
                            const std::string& reader = "");
  Status RenewLock(const std::string& client, const std::string& name,
                   uint64_t token, VirtualDuration lease);
  Status Unlock(const std::string& client, const std::string& name,
                uint64_t token);
  Status RenamePrefix(const std::string& client, const std::string& old_prefix,
                      const std::string& new_prefix);
  Status GrantEntryAccess(const std::string& owner, const std::string& key,
                          const std::string& grantee, bool read, bool write);
  // Cross-partition move primitives (see src/coord/partitioned_coordination.h
  // and the metadata service's intent-record rename). Export returns, for
  // every entry under `prefix`, an opaque payload preserving value, version
  // and ACL; Import installs such a payload under a new key, idempotently.
  // Both are always totally ordered.
  Result<std::vector<CoordEntryView>> ExportPrefix(const std::string& client,
                                                   const std::string& prefix);
  Status ImportEntry(const std::string& client, const std::string& key,
                     const Bytes& payload);
  // Lease-delegated caching: acquire (or renew — extend-only) a read lease
  // on a key prefix for `session`, returning the grant snapshot. Both ride
  // the ordered path so grants serialize with mutations.
  Result<LeaseGrant> AcquireLease(const std::string& client,
                                  const std::string& session,
                                  const std::string& prefix,
                                  VirtualDuration ttl);
  Status ReleaseLease(const std::string& client, const std::string& session,
                      const std::string& prefix);

  // -- Asynchronous typed wrappers -----------------------------------------
  // Futures over SubmitAsync; the charge semantics follow the future
  // contract (a waiter is charged the producer's modelled round latency).
  // Only pairs of commands that commute may be issued concurrently — the
  // replication layer gives no cross-command ordering guarantee for
  // in-flight submissions.

  Future<Status> WriteAsync(const std::string& client, const std::string& key,
                            const Bytes& value);
  Future<Result<CoordEntry>> ReadAsync(const std::string& client,
                                       const std::string& key);
  Future<Status> RemoveAsync(const std::string& client, const std::string& key);
  Future<Status> RenewLockAsync(const std::string& client,
                                const std::string& name, uint64_t token,
                                VirtualDuration lease);
  Future<Status> UnlockAsync(const std::string& client, const std::string& name,
                             uint64_t token);
  Future<Status> ImportEntryAsync(const std::string& client,
                                  const std::string& key,
                                  const Bytes& payload);
};

// The key a partitioned router hashes to place `key`. Keys carrying a
// co-location prefix — "ri:" (rename intent) or "rc:" (rename commit) —
// route as if the prefix were absent, so an auxiliary record lands on the
// partition of the key range it describes: the intent record shares the
// source subtree's partition ("prepare on the source partition"), the
// commit marker the destination's. A file lock "lk:<path>" routes as the
// file's metadata entry "m:<path>/", so one ordered command can take the
// lock and read the entry (TryLock's `read_key`) or remove the entry unless
// another session holds the lock (RemoveGuarded's `lock`), or publish the
// entry and release the lock (CompareAndSwap's `release`), and an elastic
// split, which moves whole hash ranges, keeps the two on one partition.
std::string PartitionRoutingKey(const std::string& key);

}  // namespace scfs

#endif  // SCFS_COORD_COORDINATION_SERVICE_H_
