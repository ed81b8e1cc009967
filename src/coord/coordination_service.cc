#include "src/coord/coordination_service.h"

namespace scfs {

Status CoordinationService::Write(const std::string& client,
                                  const std::string& key, const Bytes& value) {
  CoordCommand cmd;
  cmd.op = CoordOp::kWrite;
  cmd.client = client;
  cmd.key = key;
  cmd.value = value;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord write " + key);
}

Status CoordinationService::ConditionalCreate(const std::string& client,
                                              const std::string& key,
                                              const Bytes& value) {
  CoordCommand cmd;
  cmd.op = CoordOp::kConditionalCreate;
  cmd.client = client;
  cmd.key = key;
  cmd.value = value;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord create " + key);
}

Result<uint64_t> CoordinationService::CompareAndSwap(
    const std::string& client, const std::string& key, const Bytes& value,
    uint64_t expected_version,
    const std::optional<CoordLockRelease>& release) {
  CoordCommand cmd;
  cmd.op = CoordOp::kCompareAndSwap;
  cmd.client = client;
  cmd.key = key;
  cmd.value = value;
  cmd.a = expected_version;
  if (release.has_value()) {
    cmd.aux = release->name;
    cmd.b = release->token;
  }
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  RETURN_IF_ERROR(reply.ToStatus("coord cas " + key));
  return reply.a;
}

Result<CoordEntry> CoordinationService::Read(const std::string& client,
                                             const std::string& key) {
  CoordCommand cmd;
  cmd.op = CoordOp::kRead;
  cmd.client = client;
  cmd.key = key;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  RETURN_IF_ERROR(reply.ToStatus("coord read " + key));
  return CoordEntry{reply.value, reply.a};
}

Result<std::vector<CoordEntryView>> CoordinationService::ReadPrefix(
    const std::string& client, const std::string& prefix) {
  CoordCommand cmd;
  cmd.op = CoordOp::kReadPrefix;
  cmd.client = client;
  cmd.key = prefix;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  RETURN_IF_ERROR(reply.ToStatus("coord read prefix " + prefix));
  return reply.entries;
}

Status CoordinationService::Remove(const std::string& client,
                                   const std::string& key) {
  CoordCommand cmd;
  cmd.op = CoordOp::kRemove;
  cmd.client = client;
  cmd.key = key;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord remove " + key);
}

Result<CoordEntry> CoordinationService::RemoveGuarded(
    const std::string& client, const std::string& key,
    uint64_t expected_version, const std::string& lock,
    const std::string& lock_owner) {
  CoordCommand cmd;
  cmd.op = CoordOp::kRemove;
  cmd.client = client;
  cmd.key = key;
  cmd.aux = lock;
  cmd.value = ToBytes(lock_owner);
  cmd.a = expected_version;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  RETURN_IF_ERROR(reply.ToStatus("coord remove " + key));
  return CoordEntry{std::move(reply.value), reply.a};
}

Result<CoordLock> CoordinationService::TryLock(const std::string& client,
                                               const std::string& name,
                                               VirtualDuration lease,
                                               const std::string& read_key,
                                               const std::string& reader,
                                               const Bytes* create) {
  CoordCommand cmd;
  cmd.op = CoordOp::kTryLock;
  cmd.client = client;
  cmd.key = name;
  cmd.aux = read_key;
  cmd.value = ToBytes(reader);
  cmd.a = static_cast<uint64_t>(lease);
  if (create != nullptr) {  // the principal, then the entry to create
    cmd.b = 1;
    cmd.value.clear();
    AppendString(&cmd.value, reader);
    AppendBytes(&cmd.value, *create);
  }
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  RETURN_IF_ERROR(reply.ToStatus("coord lock " + name));
  CoordLock lock{reply.a, std::nullopt, !reply.value.empty()};
  if (!reply.entries.empty()) {
    lock.entry = CoordEntry{std::move(reply.entries[0].value),
                            reply.entries[0].version};
  }
  return lock;
}

Status CoordinationService::RenewLock(const std::string& client,
                                      const std::string& name, uint64_t token,
                                      VirtualDuration lease) {
  CoordCommand cmd;
  cmd.op = CoordOp::kRenewLock;
  cmd.client = client;
  cmd.key = name;
  cmd.a = static_cast<uint64_t>(lease);
  cmd.b = token;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord renew " + name);
}

Status CoordinationService::Unlock(const std::string& client,
                                   const std::string& name, uint64_t token) {
  CoordCommand cmd;
  cmd.op = CoordOp::kUnlock;
  cmd.client = client;
  cmd.key = name;
  cmd.b = token;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord unlock " + name);
}

Status CoordinationService::RenamePrefix(const std::string& client,
                                         const std::string& old_prefix,
                                         const std::string& new_prefix) {
  CoordCommand cmd;
  cmd.op = CoordOp::kRenamePrefix;
  cmd.client = client;
  cmd.key = old_prefix;
  cmd.aux = new_prefix;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord rename " + old_prefix);
}

Result<std::vector<CoordEntryView>> CoordinationService::ExportPrefix(
    const std::string& client, const std::string& prefix) {
  CoordCommand cmd;
  cmd.op = CoordOp::kExportPrefix;
  cmd.client = client;
  cmd.key = prefix;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  RETURN_IF_ERROR(reply.ToStatus("coord export prefix " + prefix));
  return reply.entries;
}

Result<LeaseGrant> CoordinationService::AcquireLease(const std::string& client,
                                                     const std::string& session,
                                                     const std::string& prefix,
                                                     VirtualDuration ttl) {
  CoordCommand cmd;
  cmd.op = CoordOp::kLeaseAcquire;
  cmd.client = client;
  cmd.key = prefix;
  cmd.aux = session;
  cmd.a = static_cast<uint64_t>(ttl);
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  RETURN_IF_ERROR(reply.ToStatus("coord lease acquire " + prefix));
  LeaseGrant grant;
  grant.expires_at = static_cast<VirtualTime>(reply.a);
  grant.entries = std::move(reply.entries);
  ByteReader reader(reply.value);
  reader.ReadU64(&grant.epoch);  // empty for scattered multi-partition grants
  return grant;
}

Status CoordinationService::ReleaseLease(const std::string& client,
                                         const std::string& session,
                                         const std::string& prefix) {
  CoordCommand cmd;
  cmd.op = CoordOp::kLeaseRelease;
  cmd.client = client;
  cmd.key = prefix;
  cmd.aux = session;
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord lease release " + prefix);
}

Status CoordinationService::GrantEntryAccess(const std::string& owner,
                                             const std::string& key,
                                             const std::string& grantee,
                                             bool read, bool write) {
  CoordCommand cmd;
  cmd.op = CoordOp::kSetEntryAcl;
  cmd.client = owner;
  cmd.key = key;
  cmd.aux = grantee;
  cmd.a = (read ? kCoordPermRead : 0) | (write ? kCoordPermWrite : 0);
  ASSIGN_OR_RETURN(CoordReply reply, Submit(cmd));
  return reply.ToStatus("coord set acl " + key);
}

namespace {

// Maps a SubmitAsync future to a status future, preserving the charge.
Future<Status> AsStatus(Future<Result<CoordReply>> submitted,
                        std::string context) {
  Promise<Status> promise;
  submitted.OnReady([promise, context = std::move(context)](
                        const Result<CoordReply>& reply,
                        VirtualDuration charge) {
    promise.Set(reply.ok() ? reply->ToStatus(context) : reply.status(),
                charge);
  });
  return promise.future();
}

}  // namespace

Future<Status> CoordinationService::WriteAsync(const std::string& client,
                                               const std::string& key,
                                               const Bytes& value) {
  CoordCommand cmd;
  cmd.op = CoordOp::kWrite;
  cmd.client = client;
  cmd.key = key;
  cmd.value = value;
  return AsStatus(SubmitAsync(cmd), "coord write " + key);
}

Future<Status> CoordinationService::RemoveAsync(const std::string& client,
                                                const std::string& key) {
  CoordCommand cmd;
  cmd.op = CoordOp::kRemove;
  cmd.client = client;
  cmd.key = key;
  return AsStatus(SubmitAsync(cmd), "coord remove " + key);
}

Future<Status> CoordinationService::RenewLockAsync(const std::string& client,
                                                   const std::string& name,
                                                   uint64_t token,
                                                   VirtualDuration lease) {
  CoordCommand cmd;
  cmd.op = CoordOp::kRenewLock;
  cmd.client = client;
  cmd.key = name;
  cmd.a = static_cast<uint64_t>(lease);
  cmd.b = token;
  return AsStatus(SubmitAsync(cmd), "coord renew " + name);
}

std::string PartitionRoutingKey(const std::string& key) {
  if (key.compare(0, 3, "lk:") == 0) {
    return "m:" + key.substr(3) + "/";
  }
  return key;
}

}  // namespace scfs
