// TupleSpace: the deterministic state machine at the heart of the
// coordination service (paper §2.3, §3.2 — DepSpace with the trigger
// extension for rename).
//
// It stores versioned, access-controlled entries (SCFS metadata tuples) and
// ephemeral locks whose leases expire at command-execution time, so a crashed
// client's locks vanish automatically (§2.5.1, locking service requirement).
// All mutation goes through Apply(now, command); replicas that execute the
// same command sequence with the same timestamps reach identical states.
//
// Snapshot()/Restore() serialize that replicated state deterministically
// (std::map iteration order is the serialization order), so two replicas at
// the same execution frontier produce byte-identical snapshots and therefore
// identical SHA-256 state digests — the property the SMR snapshot state
// transfer's f+1 digest-vouching rule rests on (see DESIGN.md, "State
// transfer & checkpoints").
//
// Read leases (DESIGN.md "Lease-delegated caching"): kLeaseAcquire records a
// time-bounded lease on a key prefix and returns a snapshot of the entries
// under it; every entry mutation revokes the leases covering its key IN ITS
// OWN ORDERED SLOT and reports them in its reply (CoordReply::revoked), so
// the submitting stub can invalidate local holders before the mutation is
// acknowledged. Leases expire at command-execution time like locks, are part
// of Snapshot()/Restore(), and therefore ride checkpoints, state transfer
// and view changes unchanged.

#ifndef SCFS_COORD_TUPLE_SPACE_H_
#define SCFS_COORD_TUPLE_SPACE_H_

#include <map>
#include <set>
#include <string>

#include "src/coord/command.h"
#include "src/sim/time.h"

namespace scfs {

class TupleSpace {
 public:
  CoordReply Apply(VirtualTime now, const CoordCommand& command);

  // Evaluates a read-only command against the current committed state
  // WITHOUT any side effect (in particular, no lock-lease expiry — expiring
  // at a non-ordered local time would make replica states diverge). This is
  // what replicas run for the read-only fast path; non-read-only commands
  // get kInvalidArgument.
  CoordReply Query(const CoordCommand& command) const;

  // Deterministic serialization of the full replicated state (entries with
  // ACLs and versions, locks with leases, the token counter). Replicas at
  // the same execution frontier produce byte-identical snapshots.
  Bytes Snapshot() const;

  // Replaces the current state with a previously serialized snapshot.
  // Returns false (leaving the state untouched) on a malformed payload.
  bool Restore(ConstByteSpan snapshot);

  // SHA-256 over Snapshot(): the state digest replicas vouch with during
  // snapshot-based state transfer.
  Bytes StateDigest() const;

  // Introspection for tests and capacity accounting (Figure 11a).
  size_t entry_count() const { return entries_.size(); }
  size_t lock_count() const { return locks_.size(); }
  size_t lease_count() const { return leases_.size(); }
  uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  struct EntryAcl {
    std::string owner;
    std::set<std::string> readers;
    std::set<std::string> writers;

    // "*" grants everyone (used for world-readable registry tuples). The
    // coordination admin principal (the elastic repartitioning controller)
    // passes every check: a range migration moves entries owned by
    // arbitrary users.
    bool AllowsRead(const std::string& who) const {
      return who == owner || who == kCoordAdminPrincipal ||
             readers.count(who) > 0 || readers.count("*") > 0;
    }
    bool AllowsWrite(const std::string& who) const {
      return who == owner || who == kCoordAdminPrincipal ||
             writers.count(who) > 0 || writers.count("*") > 0;
    }
  };

  struct Entry {
    Bytes value;
    uint64_t version = 0;
    EntryAcl acl;
  };

  struct Lock {
    std::string owner;
    uint64_t token = 0;
    VirtualTime expires_at = 0;
  };

  // A read lease on a key prefix. Multiple holders share one lease record
  // (read leases never conflict with each other — only with mutations); the
  // epoch rises monotonically across grants so a holder can tell a re-grant
  // from the lease it was revoked out of.
  struct Lease {
    uint64_t epoch = 0;
    VirtualTime expires_at = 0;
    std::set<std::string> holders;
  };

  void ExpireLocks(VirtualTime now);
  void ExpireLeases(VirtualTime now);

  // Erases every active lease whose prefix covers `key` and records it in
  // reply->revoked. Called by every entry mutation before it acks.
  void RevokeCoveringLeases(const std::string& key, CoordReply* reply);
  // RenamePrefix variant: revokes leases overlapping either subtree.
  void RevokeOverlappingLeases(const std::string& prefix, CoordReply* reply);

  CoordReply Write(const CoordCommand& cmd);
  CoordReply ConditionalCreate(const CoordCommand& cmd);
  CoordReply CompareAndSwap(const CoordCommand& cmd);
  CoordReply Read(const CoordCommand& cmd) const;
  CoordReply ReadPrefix(const CoordCommand& cmd) const;
  CoordReply Remove(const CoordCommand& cmd);
  CoordReply TryLock(VirtualTime now, const CoordCommand& cmd);
  CoordReply RenewLock(VirtualTime now, const CoordCommand& cmd);
  CoordReply Unlock(const CoordCommand& cmd);
  // Releases lock `name` if `token` is its token; false if it is not held
  // with that token (expired, released, or re-taken by someone else).
  bool ReleaseLock(const std::string& name, uint64_t token);
  CoordReply RenamePrefix(const CoordCommand& cmd);
  CoordReply SetEntryAcl(const CoordCommand& cmd);
  CoordReply ExportPrefix(const CoordCommand& cmd) const;
  CoordReply ImportEntry(const CoordCommand& cmd);
  CoordReply LeaseAcquire(VirtualTime now, const CoordCommand& cmd);
  CoordReply LeaseRelease(const CoordCommand& cmd);

  // Entry payload carried between ExportPrefix and ImportEntry: the value,
  // tuple version and full ACL, so a cross-partition move preserves grants
  // exactly like the single-partition rename trigger does.
  static Bytes EncodeEntryPayload(const Entry& entry);
  static bool DecodeEntryPayload(ConstByteSpan payload, Entry* out);

  std::map<std::string, Entry> entries_;
  std::map<std::string, Lock> locks_;
  std::map<std::string, Lease> leases_;
  uint64_t next_token_ = 1;
  uint64_t next_lease_epoch_ = 1;
  uint64_t stored_bytes_ = 0;
  // The highest version of any entry removed or renamed away. A created or
  // renamed-in entry starts above it, so a key removed and created again
  // never repeats a version, and a compare-and-swap (or a guarded remove) on
  // a version of the removed entry cannot match the new one. Per space: an
  // entry removed before a split moved its key elsewhere does not raise the
  // new partition's floor.
  uint64_t version_floor_ = 0;
};

}  // namespace scfs

#endif  // SCFS_COORD_TUPLE_SPACE_H_
