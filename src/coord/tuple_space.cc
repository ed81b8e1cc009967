#include "src/coord/tuple_space.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/coord/coordination_service.h"
#include "src/crypto/sha256.h"

namespace scfs {

namespace {
CoordReply ErrorReply(ErrorCode code) {
  CoordReply reply;
  reply.code = code;
  return reply;
}

void AppendStringSet(Bytes* out, const std::set<std::string>& strings) {
  AppendU32(out, static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) {
    AppendString(out, s);
  }
}

bool ReadStringSet(ByteReader* reader, std::set<std::string>* out) {
  uint32_t count = 0;
  if (!reader->ReadU32(&count)) {
    return false;
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string s;
    if (!reader->ReadString(&s)) {
      return false;
    }
    out->insert(std::move(s));
  }
  return true;
}
}  // namespace

Bytes TupleSpace::Snapshot() const {
  Bytes out;
  AppendU64(&out, next_token_);
  AppendU64(&out, stored_bytes_);
  AppendU32(&out, static_cast<uint32_t>(entries_.size()));
  for (const auto& [key, entry] : entries_) {
    AppendString(&out, key);
    AppendBytes(&out, entry.value);
    AppendU64(&out, entry.version);
    AppendString(&out, entry.acl.owner);
    AppendStringSet(&out, entry.acl.readers);
    AppendStringSet(&out, entry.acl.writers);
  }
  AppendU32(&out, static_cast<uint32_t>(locks_.size()));
  for (const auto& [key, lock] : locks_) {
    AppendString(&out, key);
    AppendString(&out, lock.owner);
    AppendU64(&out, lock.token);
    AppendU64(&out, static_cast<uint64_t>(lock.expires_at));
  }
  AppendU64(&out, next_lease_epoch_);
  AppendU32(&out, static_cast<uint32_t>(leases_.size()));
  for (const auto& [prefix, lease] : leases_) {
    AppendString(&out, prefix);
    AppendU64(&out, lease.epoch);
    AppendU64(&out, static_cast<uint64_t>(lease.expires_at));
    AppendStringSet(&out, lease.holders);
  }
  AppendU64(&out, version_floor_);
  return out;
}

bool TupleSpace::Restore(ConstByteSpan snapshot) {
  ByteReader reader(snapshot);
  uint64_t next_token = 0;
  uint64_t stored_bytes = 0;
  uint32_t entry_count = 0;
  if (!reader.ReadU64(&next_token) || !reader.ReadU64(&stored_bytes) ||
      !reader.ReadU32(&entry_count)) {
    return false;
  }
  std::map<std::string, Entry> entries;
  for (uint32_t i = 0; i < entry_count; ++i) {
    std::string key;
    Entry entry;
    if (!reader.ReadString(&key) || !reader.ReadBytes(&entry.value) ||
        !reader.ReadU64(&entry.version) ||
        !reader.ReadString(&entry.acl.owner) ||
        !ReadStringSet(&reader, &entry.acl.readers) ||
        !ReadStringSet(&reader, &entry.acl.writers)) {
      return false;
    }
    entries.emplace(std::move(key), std::move(entry));
  }
  uint32_t lock_count = 0;
  if (!reader.ReadU32(&lock_count)) {
    return false;
  }
  std::map<std::string, Lock> locks;
  for (uint32_t i = 0; i < lock_count; ++i) {
    std::string key;
    Lock lock;
    uint64_t expires_at = 0;
    if (!reader.ReadString(&key) || !reader.ReadString(&lock.owner) ||
        !reader.ReadU64(&lock.token) || !reader.ReadU64(&expires_at)) {
      return false;
    }
    lock.expires_at = static_cast<VirtualTime>(expires_at);
    locks.emplace(std::move(key), lock);
  }
  uint64_t next_lease_epoch = 0;
  uint32_t lease_count = 0;
  if (!reader.ReadU64(&next_lease_epoch) || !reader.ReadU32(&lease_count)) {
    return false;
  }
  std::map<std::string, Lease> leases;
  for (uint32_t i = 0; i < lease_count; ++i) {
    std::string prefix;
    Lease lease;
    uint64_t expires_at = 0;
    if (!reader.ReadString(&prefix) || !reader.ReadU64(&lease.epoch) ||
        !reader.ReadU64(&expires_at) ||
        !ReadStringSet(&reader, &lease.holders)) {
      return false;
    }
    lease.expires_at = static_cast<VirtualTime>(expires_at);
    leases.emplace(std::move(prefix), std::move(lease));
  }
  uint64_t version_floor = 0;
  if (!reader.ReadU64(&version_floor) || !reader.AtEnd()) {
    return false;
  }
  entries_ = std::move(entries);
  locks_ = std::move(locks);
  leases_ = std::move(leases);
  next_token_ = next_token;
  next_lease_epoch_ = next_lease_epoch;
  stored_bytes_ = stored_bytes;
  version_floor_ = version_floor;
  return true;
}

Bytes TupleSpace::StateDigest() const { return Sha256::Hash(Snapshot()); }

CoordReply TupleSpace::Apply(VirtualTime now, const CoordCommand& command) {
  ExpireLocks(now);
  ExpireLeases(now);
  // Entry mutations revoke the leases covering their key in their own
  // ordered slot, after the mutation succeeded: a failed mutation leaves the
  // state (and thus every lease snapshot) untouched. Lock operations touch a
  // disjoint table and revoke nothing, save a lock-and-create that creates.
  switch (command.op) {
    case CoordOp::kWrite: {
      CoordReply reply = Write(command);
      if (reply.ok()) RevokeCoveringLeases(command.key, &reply);
      return reply;
    }
    case CoordOp::kConditionalCreate: {
      CoordReply reply = ConditionalCreate(command);
      if (reply.ok()) RevokeCoveringLeases(command.key, &reply);
      return reply;
    }
    case CoordOp::kCompareAndSwap: {
      CoordReply reply = CompareAndSwap(command);
      if (reply.ok()) RevokeCoveringLeases(command.key, &reply);
      // Publish-and-release: the lock in `aux` is released in the swap's
      // own slot if `b` is its token, whatever the swap's outcome — a close
      // whose publish fails unlocks too.
      if (!command.aux.empty()) ReleaseLock(command.aux, command.b);
      return reply;
    }
    case CoordOp::kRead:
      return Read(command);
    case CoordOp::kReadPrefix:
      return ReadPrefix(command);
    case CoordOp::kRemove: {
      CoordReply reply = Remove(command);
      if (reply.ok()) RevokeCoveringLeases(command.key, &reply);
      return reply;
    }
    case CoordOp::kTryLock:
      return TryLock(now, command);
    case CoordOp::kRenewLock:
      return RenewLock(now, command);
    case CoordOp::kUnlock:
      return Unlock(command);
    case CoordOp::kRenamePrefix: {
      CoordReply reply = RenamePrefix(command);
      if (reply.ok()) {
        // A rename moves a whole subtree: leases anywhere under the source
        // or destination prefix — including leases on broader prefixes that
        // merely cover them — hold snapshots the move invalidates.
        RevokeOverlappingLeases(command.key, &reply);
        RevokeOverlappingLeases(command.aux, &reply);
      }
      return reply;
    }
    case CoordOp::kSetEntryAcl: {
      // An ACL change alters who may read an entry, which a lease snapshot
      // has already baked in — revoke so holders re-read under the new ACL.
      CoordReply reply = SetEntryAcl(command);
      if (reply.ok()) RevokeCoveringLeases(command.key, &reply);
      return reply;
    }
    case CoordOp::kExportPrefix:
      return ExportPrefix(command);
    case CoordOp::kImportEntry: {
      CoordReply reply = ImportEntry(command);
      if (reply.ok()) RevokeCoveringLeases(command.key, &reply);
      return reply;
    }
    case CoordOp::kLeaseAcquire:
      return LeaseAcquire(now, command);
    case CoordOp::kLeaseRelease:
      return LeaseRelease(command);
    case CoordOp::kNoop:
      return CoordReply{};
  }
  return ErrorReply(ErrorCode::kInvalidArgument);
}

CoordReply TupleSpace::Query(const CoordCommand& command) const {
  switch (command.op) {
    case CoordOp::kRead:
      return Read(command);
    case CoordOp::kReadPrefix:
      return ReadPrefix(command);
    default:
      return ErrorReply(ErrorCode::kInvalidArgument);
  }
}

void TupleSpace::ExpireLocks(VirtualTime now) {
  for (auto it = locks_.begin(); it != locks_.end();) {
    if (it->second.expires_at <= now) {
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
}

void TupleSpace::ExpireLeases(VirtualTime now) {
  // Like locks, leases expire at ordered command-execution time, never at a
  // replica-local clock — expiry is part of the deterministic state machine.
  // A client stops serving from an expired lease on its own (it compares
  // against the same virtual clock), so no revocation notice is needed here.
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires_at <= now) {
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
}

void TupleSpace::RevokeCoveringLeases(const std::string& key,
                                      CoordReply* reply) {
  // A lease on prefix P covers key K iff P is a prefix of K. Leases are few
  // (bounded per client by lease_max_prefixes), so a linear scan is fine.
  for (auto it = leases_.begin(); it != leases_.end();) {
    const std::string& prefix = it->first;
    if (key.compare(0, prefix.size(), prefix) == 0) {
      reply->revoked.push_back(LeaseRevocation{prefix, it->second.epoch});
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
}

void TupleSpace::RevokeOverlappingLeases(const std::string& prefix,
                                         CoordReply* reply) {
  // Overlap in either direction: a lease on "m:/a/" overlaps a rename of
  // "m:/a/b/" (the lease covers moved keys) and a lease on "m:/a/b/c/"
  // overlaps it too (every leased key is inside the moved subtree).
  for (auto it = leases_.begin(); it != leases_.end();) {
    const std::string& leased = it->first;
    const size_t n = std::min(leased.size(), prefix.size());
    if (leased.compare(0, n, prefix, 0, n) == 0) {
      reply->revoked.push_back(LeaseRevocation{leased, it->second.epoch});
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
}

CoordReply TupleSpace::LeaseAcquire(VirtualTime now, const CoordCommand& cmd) {
  if (cmd.key.empty() || cmd.a == 0) {
    return ErrorReply(ErrorCode::kInvalidArgument);
  }
  auto it = leases_.find(cmd.key);
  if (it == leases_.end()) {
    Lease lease;
    lease.epoch = next_lease_epoch_++;
    it = leases_.emplace(cmd.key, std::move(lease)).first;
  }
  Lease& lease = it->second;
  lease.holders.insert(cmd.aux.empty() ? cmd.client : cmd.aux);
  // Extend-only: a renewal by one holder must not shorten what another
  // holder was already promised.
  const VirtualTime proposed = now + static_cast<VirtualDuration>(cmd.a);
  if (proposed > lease.expires_at) {
    lease.expires_at = proposed;
  }
  // The grant doubles as the snapshot read: the holder installs these
  // entries and serves them locally until expiry or revocation. ACL
  // filtering matches ReadPrefix, so delegation never widens visibility.
  CoordReply reply = ReadPrefix(cmd);
  reply.a = static_cast<uint64_t>(lease.expires_at);
  reply.value.clear();
  AppendU64(&reply.value, lease.epoch);
  return reply;
}

CoordReply TupleSpace::LeaseRelease(const CoordCommand& cmd) {
  auto it = leases_.find(cmd.key);
  if (it == leases_.end()) {
    return ErrorReply(ErrorCode::kNotFound);
  }
  it->second.holders.erase(cmd.aux.empty() ? cmd.client : cmd.aux);
  if (it->second.holders.empty()) {
    leases_.erase(it);
  }
  return CoordReply{};
}

CoordReply TupleSpace::Write(const CoordCommand& cmd) {
  auto it = entries_.find(cmd.key);
  if (it == entries_.end()) {
    Entry entry;
    entry.value = cmd.value;
    entry.version = version_floor_ + 1;
    entry.acl.owner = cmd.client;
    stored_bytes_ += cmd.key.size() + cmd.value.size();
    CoordReply reply;
    reply.a = entry.version;
    entries_.emplace(cmd.key, std::move(entry));
    return reply;
  }
  Entry& entry = it->second;
  if (!entry.acl.AllowsWrite(cmd.client)) {
    return ErrorReply(ErrorCode::kPermissionDenied);
  }
  stored_bytes_ += cmd.value.size();
  stored_bytes_ -= entry.value.size();
  entry.value = cmd.value;
  entry.version++;
  CoordReply reply;
  reply.a = entry.version;
  return reply;
}

CoordReply TupleSpace::ConditionalCreate(const CoordCommand& cmd) {
  if (entries_.count(cmd.key) > 0) {
    return ErrorReply(ErrorCode::kAlreadyExists);
  }
  return Write(cmd);
}

CoordReply TupleSpace::CompareAndSwap(const CoordCommand& cmd) {
  auto it = entries_.find(cmd.key);
  if (it == entries_.end()) {
    // Expected version 0 names "no entry": create iff still absent.
    return cmd.a == 0 ? Write(cmd) : ErrorReply(ErrorCode::kNotFound);
  }
  Entry& entry = it->second;
  if (!entry.acl.AllowsWrite(cmd.client)) {
    return ErrorReply(ErrorCode::kPermissionDenied);
  }
  if (entry.version != cmd.a) {
    return ErrorReply(ErrorCode::kConflict);
  }
  stored_bytes_ += cmd.value.size();
  stored_bytes_ -= entry.value.size();
  entry.value = cmd.value;
  entry.version++;
  CoordReply reply;
  reply.a = entry.version;
  return reply;
}

CoordReply TupleSpace::Read(const CoordCommand& cmd) const {
  auto it = entries_.find(cmd.key);
  if (it == entries_.end()) {
    return ErrorReply(ErrorCode::kNotFound);
  }
  const Entry& entry = it->second;
  if (!entry.acl.AllowsRead(cmd.client)) {
    return ErrorReply(ErrorCode::kPermissionDenied);
  }
  CoordReply reply;
  reply.value = entry.value;
  reply.a = entry.version;
  return reply;
}

CoordReply TupleSpace::ReadPrefix(const CoordCommand& cmd) const {
  CoordReply reply;
  for (auto it = entries_.lower_bound(cmd.key); it != entries_.end(); ++it) {
    if (it->first.compare(0, cmd.key.size(), cmd.key) != 0) {
      break;
    }
    if (!it->second.acl.AllowsRead(cmd.client)) {
      continue;
    }
    reply.entries.push_back(
        CoordEntryView{it->first, it->second.value, it->second.version});
  }
  return reply;
}

CoordReply TupleSpace::Remove(const CoordCommand& cmd) {
  auto it = entries_.find(cmd.key);
  if (it == entries_.end()) {
    return ErrorReply(ErrorCode::kNotFound);
  }
  if (!it->second.acl.AllowsWrite(cmd.client)) {
    return ErrorReply(ErrorCode::kPermissionDenied);
  }
  // Guards, checked in the remove's own ordered slot: `aux` names a lock
  // that no principal but `value` (default: client) may hold — Apply has
  // already expired the lapsed ones — and a nonzero `a` is the version the
  // caller read.
  if (!cmd.aux.empty()) {
    auto lock = locks_.find(cmd.aux);
    if (lock != locks_.end() &&
        lock->second.owner !=
            (cmd.value.empty() ? cmd.client : ToString(cmd.value))) {
      return ErrorReply(ErrorCode::kBusy);
    }
  }
  if (cmd.a != 0 && it->second.version != cmd.a) {
    return ErrorReply(ErrorCode::kConflict);
  }
  CoordReply reply;
  reply.value = std::move(it->second.value);
  reply.a = it->second.version;
  stored_bytes_ -= it->first.size() + reply.value.size();
  version_floor_ = std::max(version_floor_, it->second.version);
  entries_.erase(it);
  return reply;
}

CoordReply TupleSpace::TryLock(VirtualTime now, const CoordCommand& cmd) {
  // Lock-and-read: `aux` names an entry to read in the lock's own ordered
  // slot, as the principal `value` names (the lock owner is a session of
  // that user). A caller that may not read it does not get the lock either.
  // Lock-and-create (`b` != 0): `value` is that principal, then the entry a
  // granted lock creates if `aux` is absent. Only the lock's own entry may
  // be created: any other key could be one a router reserves.
  std::string reader = ToString(cmd.value);
  Bytes create;
  if (cmd.b != 0) {
    ByteReader payload(cmd.value);
    if (cmd.key.compare(0, 3, "lk:") != 0 ||
        cmd.aux != PartitionRoutingKey(cmd.key) ||
        !payload.ReadString(&reader) || !payload.ReadBytes(&create) ||
        !payload.AtEnd()) {
      return ErrorReply(ErrorCode::kInvalidArgument);
    }
  }
  if (reader.empty()) reader = cmd.client;
  auto entry = cmd.aux.empty() ? entries_.end() : entries_.find(cmd.aux);
  if (entry != entries_.end() && !entry->second.acl.AllowsRead(reader)) {
    return ErrorReply(ErrorCode::kPermissionDenied);
  }
  auto it = locks_.find(cmd.key);
  if (it == locks_.end()) {
    it = locks_.emplace(cmd.key, Lock{cmd.client, next_token_++, 0}).first;
  } else if (it->second.owner != cmd.client) {
    return ErrorReply(ErrorCode::kBusy);
  }
  // Taken, or re-entrant: the lease restarts and the token stays.
  it->second.expires_at = now + static_cast<VirtualDuration>(cmd.a);
  CoordReply reply;
  reply.a = it->second.token;
  if (cmd.b != 0 && entry == entries_.end()) {
    // As a compare-and-swap on version 0 creates it, owned by `reader`.
    Write(CoordCommand{CoordOp::kWrite, reader, cmd.aux, std::move(create)});
    RevokeCoveringLeases(cmd.aux, &reply);
    entry = entries_.find(cmd.aux);
    reply.value = {1};  // created
  }
  if (entry != entries_.end()) {
    reply.entries.push_back(CoordEntryView{entry->first, entry->second.value,
                                           entry->second.version});
  }
  return reply;
}

CoordReply TupleSpace::RenewLock(VirtualTime now, const CoordCommand& cmd) {
  auto it = locks_.find(cmd.key);
  if (it == locks_.end() || it->second.token != cmd.b) {
    return ErrorReply(ErrorCode::kNotFound);
  }
  it->second.expires_at = now + static_cast<VirtualDuration>(cmd.a);
  return CoordReply{};
}

CoordReply TupleSpace::Unlock(const CoordCommand& cmd) {
  return ReleaseLock(cmd.key, cmd.b) ? CoordReply{}
                                     : ErrorReply(ErrorCode::kNotFound);
}

bool TupleSpace::ReleaseLock(const std::string& name, uint64_t token) {
  auto it = locks_.find(name);
  if (it == locks_.end() || it->second.token != token) {
    return false;
  }
  locks_.erase(it);
  return true;
}

CoordReply TupleSpace::RenamePrefix(const CoordCommand& cmd) {
  // DepSpace lacks hierarchical structures; the paper extended it with
  // triggers so rename is one atomic server-side operation instead of a
  // client-side read-rewrite of every descendant tuple.
  const std::string& old_prefix = cmd.key;
  const std::string& new_prefix = cmd.aux;
  std::vector<std::pair<std::string, Entry>> moved;
  auto it = entries_.lower_bound(old_prefix);
  while (it != entries_.end() &&
         it->first.compare(0, old_prefix.size(), old_prefix) == 0) {
    if (!it->second.acl.AllowsWrite(cmd.client)) {
      return ErrorReply(ErrorCode::kPermissionDenied);
    }
    std::string new_key = new_prefix + it->first.substr(old_prefix.size());
    version_floor_ = std::max(version_floor_, it->second.version);
    moved.emplace_back(std::move(new_key), std::move(it->second));
    it = entries_.erase(it);
  }
  if (moved.empty()) {
    return ErrorReply(ErrorCode::kNotFound);
  }
  CoordReply reply;
  reply.a = moved.size();
  for (auto& [key, entry] : moved) {
    stored_bytes_ += key.size();
    stored_bytes_ -= old_prefix.size() +
                     (key.size() - new_prefix.size());  // old key size
    // Above every version removed or renamed away here, the moved entries'
    // own included, and above the replaced entry's (see version_floor_): a
    // renamed-in entry never repeats a version its new key had.
    entry.version = version_floor_ + 1;
    auto replaced = entries_.find(key);
    if (replaced != entries_.end()) {
      entry.version = std::max(entry.version, replaced->second.version + 1);
    }
    entries_[key] = std::move(entry);
  }
  return reply;
}

Bytes TupleSpace::EncodeEntryPayload(const Entry& entry) {
  Bytes out;
  AppendBytes(&out, entry.value);
  AppendU64(&out, entry.version);
  AppendString(&out, entry.acl.owner);
  AppendStringSet(&out, entry.acl.readers);
  AppendStringSet(&out, entry.acl.writers);
  return out;
}

bool TupleSpace::DecodeEntryPayload(ConstByteSpan payload, Entry* out) {
  ByteReader reader(payload);
  return reader.ReadBytes(&out->value) && reader.ReadU64(&out->version) &&
         reader.ReadString(&out->acl.owner) &&
         ReadStringSet(&reader, &out->acl.readers) &&
         ReadStringSet(&reader, &out->acl.writers) && reader.AtEnd();
}

CoordReply TupleSpace::ExportPrefix(const CoordCommand& cmd) const {
  // The read half of a cross-partition move. Like RenamePrefix it demands
  // write access on every matching entry (a move rewrites them all); unlike
  // ReadPrefix an empty result is not an error — with the key space hashed
  // across partitions, most partitions legitimately hold no piece of a
  // given subtree, and the router's caller decides what "nothing anywhere"
  // means. Always ordered (never the read fast path): the export is the
  // linearization point the intent-record protocol builds on.
  CoordReply reply;
  for (auto it = entries_.lower_bound(cmd.key); it != entries_.end(); ++it) {
    if (it->first.compare(0, cmd.key.size(), cmd.key) != 0) {
      break;
    }
    if (!it->second.acl.AllowsWrite(cmd.client)) {
      return ErrorReply(ErrorCode::kPermissionDenied);
    }
    reply.entries.push_back(CoordEntryView{
        it->first, EncodeEntryPayload(it->second), it->second.version});
  }
  reply.a = reply.entries.size();
  return reply;
}

CoordReply TupleSpace::ImportEntry(const CoordCommand& cmd) {
  // The write half of a cross-partition move: installs an exported entry —
  // value, ACL and all — under a new key, bumping the tuple version exactly
  // like the rename trigger does. Deliberately idempotent: the new version
  // is derived from the payload, not the current entry, so a crash-recovery
  // replay that re-imports lands on the identical state. The importing
  // client must hold write permission under the imported ACL itself (the
  // same trust RenamePrefix extends to writers), and overwriting an
  // existing entry additionally requires write access to it.
  Entry imported;
  if (!DecodeEntryPayload(cmd.value, &imported)) {
    return ErrorReply(ErrorCode::kInvalidArgument);
  }
  if (!imported.acl.AllowsWrite(cmd.client)) {
    return ErrorReply(ErrorCode::kPermissionDenied);
  }
  // Above the version of any entry removed here, too (version_floor_),
  // which a replay finds unchanged.
  imported.version = std::max(imported.version, version_floor_) + 1;
  const uint64_t new_version = imported.version;
  auto it = entries_.find(cmd.key);
  if (it != entries_.end()) {
    if (!it->second.acl.AllowsWrite(cmd.client)) {
      return ErrorReply(ErrorCode::kPermissionDenied);
    }
    stored_bytes_ -= it->second.value.size();
    stored_bytes_ += imported.value.size();
    it->second = std::move(imported);
  } else {
    stored_bytes_ += cmd.key.size() + imported.value.size();
    entries_.emplace(cmd.key, std::move(imported));
  }
  CoordReply reply;
  reply.a = new_version;
  return reply;
}

CoordReply TupleSpace::SetEntryAcl(const CoordCommand& cmd) {
  auto it = entries_.find(cmd.key);
  if (it == entries_.end()) {
    return ErrorReply(ErrorCode::kNotFound);
  }
  Entry& entry = it->second;
  if (cmd.client != entry.acl.owner) {
    return ErrorReply(ErrorCode::kPermissionDenied);
  }
  const bool read = (cmd.a & kCoordPermRead) != 0;
  const bool write = (cmd.a & kCoordPermWrite) != 0;
  if (read) {
    entry.acl.readers.insert(cmd.aux);
  } else {
    entry.acl.readers.erase(cmd.aux);
  }
  if (write) {
    entry.acl.writers.insert(cmd.aux);
  } else {
    entry.acl.writers.erase(cmd.aux);
  }
  return CoordReply{};
}

}  // namespace scfs
