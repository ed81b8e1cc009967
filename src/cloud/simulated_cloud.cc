#include "src/cloud/simulated_cloud.h"

#include <algorithm>

namespace scfs {

SimulatedCloud::SimulatedCloud(CloudProfile profile, Environment* env,
                               uint64_t seed)
    : profile_(std::move(profile)),
      env_(env),
      rng_(seed),
      faults_(seed ^ 0x9e3779b9ULL),
      costs_(profile_.prices),
      timers_(env) {}

SimulatedCloud::~SimulatedCloud() { async_ops_.AwaitIdle(); }

Future<Status> SimulatedCloud::PutAsync(const CloudCredentials& creds,
                                        const std::string& key,
                                        std::shared_ptr<const Bytes> data) {
  auto pending = StartPending<Status>();
  VirtualDuration latency = SampleLatency(profile_.write_latency, data->size());
  AfterRoundTrip(latency, [this, pending, creds, key, data = std::move(data)](
                              VirtualDuration charged) mutable {
    pending.Finish(ApplyPut(creds, key, std::move(data)), charged);
  });
  return pending.promise.future();
}

Future<Result<Bytes>> SimulatedCloud::GetAsync(const CloudCredentials& creds,
                                               const std::string& key) {
  auto pending = StartPending<Result<Bytes>>();
  VirtualDuration latency = SampleLatency(GetRoundTrip(), 0);
  AfterRoundTrip(latency, [this, pending, creds,
                           key](VirtualDuration charged) {
    Result<std::shared_ptr<const Bytes>> stored = ApplyGet(creds, key);
    if (!stored.ok()) {
      pending.Finish(stored.status(), charged);
      return;
    }
    // Transfer time for the payload, then the response.
    LatencyModel transfer;
    transfer.bytes_per_second = profile_.read_latency.bytes_per_second;
    VirtualDuration sent = SampleLatency(transfer, (*stored)->size());
    After(sent, [this, pending, stored = *std::move(stored), charged, sent] {
      pending.Finish(Respond(*stored), charged + sent);
    });
  });
  return pending.promise.future();
}

Future<Status> SimulatedCloud::DeleteAsync(const CloudCredentials& creds,
                                           const std::string& key) {
  auto pending = StartPending<Status>();
  AfterRoundTrip(SampleLatency(profile_.control_latency, 0),
                 [this, pending, creds, key](VirtualDuration charged) {
                   pending.Finish(ApplyDelete(creds, key), charged);
                 });
  return pending.promise.future();
}

Future<Result<std::vector<ObjectInfo>>> SimulatedCloud::ListAsync(
    const CloudCredentials& creds, const std::string& prefix) {
  auto pending = StartPending<Result<std::vector<ObjectInfo>>>();
  AfterRoundTrip(SampleLatency(profile_.control_latency, 0),
                 [this, pending, creds, prefix](VirtualDuration charged) {
                   pending.Finish(ApplyList(creds, prefix), charged);
                 });
  return pending.promise.future();
}

Future<Status> SimulatedCloud::SetAclAsync(const CloudCredentials& creds,
                                           const std::string& key,
                                           const CanonicalId& grantee,
                                           ObjectPermissions permissions) {
  auto pending = StartPending<Status>();
  AfterRoundTrip(SampleLatency(profile_.control_latency, 0),
                 [this, pending, creds, key, grantee,
                  permissions](VirtualDuration charged) {
                   pending.Finish(ApplySetAcl(creds, key, grantee, permissions),
                                  charged);
                 });
  return pending.promise.future();
}

void SimulatedCloud::After(VirtualDuration delay, std::function<void()> step) {
  if (env_->instant()) {
    // No timers fire in an instant environment: advance the logical clock
    // on the worker (not on the issuing thread, which must not be charged).
    DefaultExecutor().Post([env = env_, delay, step = std::move(step)] {
      env->Sleep(delay);
      step();
    });
    return;
  }
  timers_.Schedule(env_->Now() + delay, [step = std::move(step)]() mutable {
    DefaultExecutor().Post(std::move(step));
  });
}

void SimulatedCloud::AfterRoundTrip(
    VirtualDuration latency, std::function<void(VirtualDuration)> apply) {
  // The degradation is read once the round trip is over, as the blocking
  // calls read it after their first sleep.
  After(latency, [this, latency, apply = std::move(apply)]() mutable {
    VirtualDuration extra = faults_.latency_degradation();
    if (extra <= 0) {
      apply(latency);
      return;
    }
    After(extra, [apply = std::move(apply), charged = latency + extra] {
      apply(charged);
    });
  });
}

VirtualDuration SimulatedCloud::SampleLatency(const LatencyModel& model,
                                              size_t bytes) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return model.Sample(rng_, bytes);
}

void SimulatedCloud::SleepFor(const LatencyModel& model, size_t bytes) {
  env_->Sleep(SampleLatency(model, bytes));
}

void SimulatedCloud::SleepDegradation() {
  VirtualDuration extra = faults_.latency_degradation();
  if (extra > 0) {
    env_->Sleep(extra);
  }
}

Status SimulatedCloud::FailIfDown() {
  if (faults_.ShouldFailOperation()) {
    return UnavailableError(profile_.name + " unavailable");
  }
  return OkStatus();
}

LatencyModel SimulatedCloud::GetRoundTrip() const {
  // RTT happens before we know the size; transfer charged on actual bytes.
  return LatencyModel::Fixed(profile_.read_latency.base +
                             profile_.read_latency.jitter / 2);
}

const SimulatedCloud::Version* SimulatedCloud::VisibleVersion(
    const Object& object, VirtualTime now) const {
  const Version* best = nullptr;
  for (const auto& version : object.versions) {
    if (version.visible_at <= now) {
      best = &version;
    }
  }
  if (faults_.byzantine() && !object.versions.empty()) {
    // A byzantine provider may serve an arbitrarily old version.
    return &object.versions.front();
  }
  return best;
}

Status SimulatedCloud::Put(const CloudCredentials& creds,
                           const std::string& key,
                           std::shared_ptr<const Bytes> data) {
  SleepFor(profile_.write_latency, data->size());
  SleepDegradation();
  return ApplyPut(creds, key, std::move(data));
}

Status SimulatedCloud::ApplyPut(const CloudCredentials& creds,
                                const std::string& key,
                                std::shared_ptr<const Bytes> data) {
  RETURN_IF_ERROR(FailIfDown());

  VirtualDuration window = profile_.consistency_window_base;
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    if (profile_.consistency_window_jitter > 0) {
      window += static_cast<VirtualDuration>(rng_.UniformU64(
          static_cast<uint64_t>(profile_.consistency_window_jitter) + 1));
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    Object object;
    object.created = static_cast<VirtualTime>(++create_seq_);
    object.acl.owner = creds.canonical_id;
    // New objects are immediately visible (matching S3's read-after-write
    // consistency for new keys); only overwrites are eventually consistent.
    costs_.RecordPut(creds.canonical_id, data->size());
    costs_.AddStoredBytes(creds.canonical_id,
                          static_cast<int64_t>(data->size()));
    object.versions.push_back(Version{std::move(data), env_->Now()});
    objects_.emplace(key, std::move(object));
    return OkStatus();
  }

  Object& object = it->second;
  if (!object.acl.AllowsWrite(creds.canonical_id)) {
    return PermissionDeniedError("no write permission on " + key);
  }
  costs_.RecordPut(creds.canonical_id, data->size());
  int64_t delta = static_cast<int64_t>(data->size()) -
                  static_cast<int64_t>(object.versions.back().data->size());
  costs_.AddStoredBytes(object.acl.owner, delta);
  object.versions.push_back(Version{std::move(data), env_->Now() + window});
  // Prune versions that can never be served again: keep everything from the
  // newest already-visible version onwards.
  VirtualTime now = env_->Now();
  while (object.versions.size() > 1 && object.versions[1].visible_at <= now) {
    object.versions.pop_front();
  }
  return OkStatus();
}

Result<Bytes> SimulatedCloud::Get(const CloudCredentials& creds,
                                  const std::string& key) {
  SleepFor(GetRoundTrip(), 0);
  SleepDegradation();
  ASSIGN_OR_RETURN(std::shared_ptr<const Bytes> stored, ApplyGet(creds, key));
  // Transfer time for the payload.
  LatencyModel transfer;
  transfer.bytes_per_second = profile_.read_latency.bytes_per_second;
  SleepFor(transfer, stored->size());
  return Respond(*stored);
}

Result<std::shared_ptr<const Bytes>> SimulatedCloud::ApplyGet(
    const CloudCredentials& creds, const std::string& key) {
  RETURN_IF_ERROR(FailIfDown());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError(key);
  }
  if (!it->second.acl.AllowsRead(creds.canonical_id)) {
    return PermissionDeniedError("no read permission on " + key);
  }
  const Version* version = VisibleVersion(it->second, env_->Now());
  if (version == nullptr) {
    return NotFoundError(key + " (not yet visible)");
  }
  costs_.RecordGet(creds.canonical_id, version->data->size());
  return version->data;
}

Bytes SimulatedCloud::Respond(const Bytes& stored) {
  // The response copy happens outside the lock: readers share the stored
  // buffer, so a large GET never serializes every other request.
  Bytes data = stored;
  if (faults_.ShouldCorruptRead()) {
    faults_.CorruptPayload(ByteSpan(data));
  }
  return data;
}

Status SimulatedCloud::Delete(const CloudCredentials& creds,
                              const std::string& key) {
  SleepFor(profile_.control_latency, 0);
  SleepDegradation();
  return ApplyDelete(creds, key);
}

Status SimulatedCloud::ApplyDelete(const CloudCredentials& creds,
                                   const std::string& key) {
  RETURN_IF_ERROR(FailIfDown());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError(key);
  }
  if (!it->second.acl.AllowsWrite(creds.canonical_id)) {
    return PermissionDeniedError("no write permission on " + key);
  }
  costs_.RecordDelete(creds.canonical_id);
  costs_.AddStoredBytes(
      it->second.acl.owner,
      -static_cast<int64_t>(it->second.versions.back().data->size()));
  objects_.erase(it);
  return OkStatus();
}

Result<std::vector<ObjectInfo>> SimulatedCloud::List(
    const CloudCredentials& creds, const std::string& prefix) {
  SleepFor(profile_.control_latency, 0);
  SleepDegradation();
  return ApplyList(creds, prefix);
}

Result<std::vector<ObjectInfo>> SimulatedCloud::ApplyList(
    const CloudCredentials& creds, const std::string& prefix) {
  RETURN_IF_ERROR(FailIfDown());
  std::lock_guard<std::mutex> lock(mu_);
  costs_.RecordList(creds.canonical_id);
  std::vector<ObjectInfo> out;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    if (!it->second.acl.AllowsRead(creds.canonical_id)) {
      continue;
    }
    ObjectInfo info;
    info.key = it->first;
    info.size = it->second.versions.back().data->size();
    info.owner = it->second.acl.owner;
    info.created = it->second.created;
    out.push_back(std::move(info));
  }
  return out;
}

Status SimulatedCloud::SetAcl(const CloudCredentials& creds,
                              const std::string& key,
                              const CanonicalId& grantee,
                              ObjectPermissions permissions) {
  SleepFor(profile_.control_latency, 0);
  SleepDegradation();
  return ApplySetAcl(creds, key, grantee, permissions);
}

Status SimulatedCloud::ApplySetAcl(const CloudCredentials& creds,
                                   const std::string& key,
                                   const CanonicalId& grantee,
                                   ObjectPermissions permissions) {
  RETURN_IF_ERROR(FailIfDown());
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError(key);
  }
  if (creds.canonical_id != it->second.acl.owner) {
    return PermissionDeniedError("only the owner may change ACLs");
  }
  if (!permissions.read && !permissions.write) {
    it->second.acl.grants.erase(grantee);
  } else {
    it->second.acl.grants[grantee] = permissions;
  }
  return OkStatus();
}

Result<ObjectAcl> SimulatedCloud::GetAcl(const CloudCredentials& creds,
                                         const std::string& key) {
  SleepFor(profile_.control_latency, 0);
  SleepDegradation();
  RETURN_IF_ERROR(FailIfDown());

  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError(key);
  }
  if (!it->second.acl.AllowsRead(creds.canonical_id)) {
    return PermissionDeniedError("no read permission on " + key);
  }
  return it->second.acl;
}

Result<Bytes> SimulatedCloud::PeekLatest(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError(key);
  }
  return *it->second.versions.back().data;
}

}  // namespace scfs
