// Wire format for coordination-service commands and replies.
//
// Every operation on the coordination service is serialized into a Command,
// totally ordered by the replication layer and executed deterministically by
// the TupleSpace state machine on every replica. Replies are serialized back
// so byzantine-reply voting can compare them bytewise.

#ifndef SCFS_COORD_COMMAND_H_
#define SCFS_COORD_COMMAND_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace scfs {

enum class CoordOp : uint8_t {
  kWrite = 1,            // upsert key (creates with caller as owner)
  kConditionalCreate,    // fails with ALREADY_EXISTS
  kCompareAndSwap,       // write iff version matches `a` (0: iff absent);
                         // aux=lock to release in the same slot, b=its
                         // token (optional; released whatever the swap's
                         // outcome: publish-and-release)
  kRead,                 // value + version
  kReadPrefix,           // all entries with key prefix
  kRemove,               // reply: the removed value + version; guards (both
                         // optional): a=expected version (kConflict),
                         // aux=lock no one but principal `value` (default:
                         // client) may hold (kBusy)
  kTryLock,              // key=lock name, a=lease duration (virtual us),
                         // aux=entry to read in the same slot (optional),
                         // value=principal it is read as (default: client)
  kRenewLock,            // a=new lease duration, b=token
  kUnlock,               // b=token
  kRenamePrefix,         // key=old prefix, aux=new prefix (trigger extension)
  kSetEntryAcl,          // aux=grantee, a=permission bits
  kNoop,                 // used by view changes / heartbeats
  // Cross-partition move primitives (the partitioned coordination plane's
  // rename building blocks — see src/coord/partitioned_coordination.h).
  // Both are always totally ordered, never fast-path reads: an export is a
  // linearization point of a multi-key move, and an import mutates.
  kExportPrefix,         // entries under key prefix, full ACL+version payload
  kImportEntry,          // key=new key, value=an exported entry payload
  // Lease-delegated metadata caching (see src/coord/lease.h and DESIGN.md
  // "Lease-delegated caching"). Both are always totally ordered: a grant is
  // the linearization point after which the holder may serve the returned
  // prefix snapshot locally, so it must serialize with every mutation.
  kLeaseAcquire,         // key=prefix, aux=holder session, a=TTL (virtual us)
  kLeaseRelease,         // key=prefix, aux=holder session
};

// A lease revoked as a side effect of executing a mutation, reported in the
// mutation's own reply so the submitter can invalidate local holders BEFORE
// the mutation is acknowledged (the no-stale-read-after-ack rule).
struct LeaseRevocation {
  std::string prefix;
  uint64_t epoch = 0;
};

struct CoordCommand {
  CoordOp op = CoordOp::kNoop;
  std::string client;  // principal for access control
  std::string key;
  Bytes value;
  std::string aux;
  uint64_t a = 0;
  uint64_t b = 0;
  // The epoch of the RouteMap the submitting client routed this command
  // with (see src/coord/partitioned_coordination.h "Elastic routing"). A
  // partitioned plane's servers enforce the map strictly: a command routed
  // with a stale map to a partition that no longer owns its key is rejected
  // together with the current map, and the client retries transparently.
  // 0 on unpartitioned deployments (no router in the path).
  uint64_t route_epoch = 0;

  // True for commands that never mutate coordination state (kRead,
  // kReadPrefix). The replication layer serves these from a replica's
  // committed state without a consensus instance (the read-only fast path);
  // everything else must be totally ordered.
  bool is_read_only() const {
    return op == CoordOp::kRead || op == CoordOp::kReadPrefix;
  }

  Bytes Encode() const;
  static Result<CoordCommand> Decode(const Bytes& data);
};

struct CoordEntryView {
  std::string key;
  Bytes value;
  uint64_t version = 0;
};

struct CoordReply {
  ErrorCode code = ErrorCode::kOk;
  Bytes value;
  uint64_t a = 0;  // version / lock token / lease expiry (virtual us)
  std::vector<CoordEntryView> entries;
  // Leases this command revoked while executing (mutations only; empty for
  // reads and for the fast path, which cannot mutate). Deterministic across
  // replicas, so bytewise reply voting still converges.
  std::vector<LeaseRevocation> revoked;

  bool ok() const { return code == ErrorCode::kOk; }
  Status ToStatus(const std::string& context) const {
    if (ok()) {
      return OkStatus();
    }
    return Status(code, context);
  }

  Bytes Encode() const;
  static Result<CoordReply> Decode(const Bytes& data);
};

// Permission bits for kSetEntryAcl.
constexpr uint64_t kCoordPermRead = 1;
constexpr uint64_t kCoordPermWrite = 2;

// The coordination plane's administrative principal: the identity the
// elastic repartitioning controller (a deployment-internal actor, not a
// user) migrates ranges with. The TupleSpace grants it read and write on
// every entry — a range migration must export, import and retire entries
// owned by arbitrary users, exactly like DepSpace's administrative
// credential can. User-facing paths never run under this principal.
inline constexpr const char kCoordAdminPrincipal[] = "__coord-admin";

}  // namespace scfs

#endif  // SCFS_COORD_COMMAND_H_
