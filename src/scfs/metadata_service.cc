#include "src/scfs/metadata_service.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/path.h"
#include "src/crypto/sha1.h"

namespace scfs {

namespace {
constexpr VirtualDuration kPnsLockLease = 600 * kSecond;
}  // namespace

MetadataService::MetadataService(Environment* env, CoordinationService* coord,
                                 StorageService* storage, std::string user,
                                 MetadataServiceOptions options)
    : env_(env),
      coord_(coord),
      storage_(storage),
      user_(std::move(user)),
      options_(options) {
  if (LeasesEnabled()) {
    lease_holder_id_ = options_.leases->RegisterHolder(
        [this](const std::string& prefix) { OnLeaseRevoked(prefix); });
  }
}

MetadataService::~MetadataService() {
  if (lease_holder_id_ != 0) {
    options_.leases->UnregisterHolder(lease_holder_id_);
  }
}

std::string MetadataService::LeasePrefixFor(const std::string& path) {
  const std::string dir = ParentPath(path);
  return dir == "/" ? "m:/" : "m:" + dir + "/";
}

MetadataService::LeasedPrefix* MetadataService::FindCoveringLease(
    const std::string& mkey) {
  const VirtualTime now = env_->Now();
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires_at <= now) {
      // Same expiry rule as the state machine: at `expires_at` the replicas
      // consider the lease dead and mutations stop notifying, so the client
      // must already have stopped serving from it.
      it = leases_.erase(it);
      continue;
    }
    if (mkey.compare(0, it->first.size(), it->first) == 0) {
      it->second.last_used = now;
      return &it->second;
    }
    ++it;
  }
  return nullptr;
}

void MetadataService::OnLeaseRevoked(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  ++lease_revocation_gen_;
  lease_revocation_log_.emplace_back(lease_revocation_gen_, prefix);
  if (lease_revocation_log_.size() > 64) {
    lease_revocation_log_.pop_front();
  }
  bool lost = false;
  for (auto it = leases_.begin(); it != leases_.end();) {
    // Overlap in either direction (the empty prefix — InvalidateAll —
    // covers every lease).
    const size_t n = std::min(prefix.size(), it->first.size());
    if (prefix.compare(0, n, it->first, 0, n) == 0) {
      it = leases_.erase(it);
      lost = true;
    } else {
      ++it;
    }
  }
  // A grant in flight for an overlapping prefix is about to be discarded by
  // the race check — that wasted round counts as a loss too.
  for (const auto& in_flight : lease_grants_in_flight_) {
    const size_t n = std::min(prefix.size(), in_flight.size());
    if (prefix.compare(0, n, in_flight, 0, n) == 0) {
      lost = true;
      break;
    }
  }
  // Drop covered TTL-cache entries too: the revocation proves a mutation is
  // about to ack, so a fresh read should not resurrect the old value for up
  // to cache_ttl.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (prefix.empty() ||
        MetadataKey(it->first).compare(0, prefix.size(), prefix) == 0) {
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  // Penalize the prefix only when this client actually lost something — a
  // live lease or an in-flight grant. Revocation notices also reach clients
  // that hold nothing under the prefix (the manager fans every notice to all
  // registered holders); escalating on those would let one writer's burst
  // blacklist the prefix for every bystander long after the writes stop.
  if (!prefix.empty()) {
    const VirtualTime now = env_->Now();
    if (lost) {
      LeaseHoldoff& holdoff = lease_holdoff_[prefix];
      if (holdoff.until != 0 && now > holdoff.until + options_.lease_ttl) {
        holdoff.penalty = 1;  // the prefix has been quiet; forget the history
      }
      holdoff.until = now + options_.lease_holdoff * holdoff.penalty;
      // Cap the escalation at 4x the base holdoff: a persistently write-hot
      // prefix keeps losing its lease and so keeps refreshing the holdoff
      // anyway (at most one wasted grant round per cap period), while a
      // prefix whose write burst just ended (e.g. fileset setup) recovers
      // within a few seconds instead of staying banned for a multiple of
      // the TTL.
      if (holdoff.penalty < 4) {
        holdoff.penalty *= 2;
      }
    } else {
      // Bystander refresh: someone else's lease on this prefix just died
      // to a mutation. If we are already backing off the prefix, extend the
      // window without escalating — their loss is the probe we would have
      // wasted a grant round on. A prefix whose holdoff already expired is
      // NOT re-penalized: it has earned its next probe.
      auto it = lease_holdoff_.find(prefix);
      if (it != lease_holdoff_.end() && now < it->second.until) {
        it->second.until =
            std::max(it->second.until,
                     now + options_.lease_holdoff * it->second.penalty);
      }
    }
  }
}

Status MetadataService::AcquireLeaseFor(const std::string& prefix) {
  if (!options_.leases->AllowsGrants()) {
    return UnavailableError("lease grants suspended");
  }
  uint64_t gen_before = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto holdoff = lease_holdoff_.find(prefix);
    if (holdoff != lease_holdoff_.end() &&
        env_->Now() < holdoff->second.until) {
      return BusyError("lease holdoff " + prefix);
    }
    if (!lease_grants_in_flight_.insert(prefix).second) {
      return BusyError("lease grant already in flight " + prefix);
    }
    gen_before = lease_revocation_gen_;
  }
  Result<LeaseGrant> granted =
      coord_->AcquireLease(user_, options_.session, prefix,
                           options_.lease_ttl);
  std::lock_guard<std::mutex> lock(mu_);
  lease_grants_in_flight_.erase(prefix);
  if (!granted.ok()) {
    return granted.status();
  }
  LeaseGrant& grant = *granted;
  if (lease_revocation_gen_ != gen_before) {
    // Revocation notices landed while the grant was in flight; if any of
    // them overlaps this prefix the grant may have been ordered before the
    // revoking mutation. Discard it then — the server-side lease record it
    // created just expires. Non-overlapping revocations (a busy unrelated
    // directory) don't invalidate this grant.
    bool overlapping =
        !lease_revocation_log_.empty() &&
        lease_revocation_log_.front().first > gen_before + 1;  // log pruned
    for (const auto& entry : lease_revocation_log_) {
      if (entry.first <= gen_before || overlapping) {
        continue;
      }
      const std::string& revoked = entry.second;
      const size_t n = std::min(revoked.size(), prefix.size());
      overlapping = revoked.compare(0, n, prefix, 0, n) == 0;
    }
    if (overlapping) {
      return BusyError("lease grant raced a revocation " + prefix);
    }
  }
  if (leases_.size() >= options_.lease_max_prefixes &&
      leases_.count(prefix) == 0) {
    auto lru = leases_.begin();
    for (auto it = leases_.begin(); it != leases_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) {
        lru = it;
      }
    }
    leases_.erase(lru);
  }
  LeasedPrefix lease;
  lease.epoch = grant.epoch;
  lease.expires_at = grant.expires_at;
  lease.last_used = env_->Now();
  for (const auto& entry : grant.entries) {
    auto md = FileMetadata::Decode(entry.value);
    if (!md.ok()) {
      continue;  // non-metadata tuple under the prefix (none today)
    }
    std::string entry_path = entry.key.substr(2);  // strip "m:"
    if (!entry_path.empty() && entry_path.back() == '/') {
      entry_path.pop_back();
    }
    md->path = entry_path;
    md->entry_version = entry.version;
    lease.entries.emplace(std::move(entry_path), std::move(*md));
  }
  leases_[prefix] = std::move(lease);
  lease_grants_.fetch_add(1, std::memory_order_relaxed);
  options_.leases->RecordGrant();
  return OkStatus();
}

Status MetadataService::Mount() {
  if (options_.session.empty()) {
    options_.session = user_;
  }
  if (UsesPartitionedCoord()) {
    // Finish any cross-partition rename a crashed session left behind
    // before serving metadata: a half-moved subtree must converge to the
    // rename's destination, not stay split across partitions.
    RETURN_IF_ERROR(ReplayRenameIntents());
  }
  if (!using_pns()) {
    return OkStatus();
  }
  // Lock the PNS against a second session logged in as the same user, then
  // fetch the PNS object from the cloud (paper §2.7).
  PnsAnchor anchor;
  if (coord_ != nullptr) {
    ASSIGN_OR_RETURN(CoordLock lock,
                     coord_->TryLock(options_.session,
                                     LockKey(PnsTupleKey(user_)),
                                     kPnsLockLease));
    pns_lock_token_ = lock.token;
    auto tuple = coord_->Read(user_, PnsTupleKey(user_));
    if (tuple.ok()) {
      ASSIGN_OR_RETURN(anchor, DecodePnsAnchor(tuple->value));
    } else if (tuple.status().code() != ErrorCode::kNotFound) {
      return tuple.status();
    }
  }

  Result<Bytes> blob = NotFoundError("no pns yet");
  if (!anchor.hash.empty()) {
    blob = storage_->Fetch(PnsObjectId(), anchor.hash, anchor.locator);
  } else if (options_.non_sharing) {
    // Non-sharing mode has no coordination service to anchor the PNS hash;
    // read the newest visible PNS object directly (S3QL-style).
    blob = storage_->backend().ReadLatest(PnsObjectId());
  }
  if (blob.ok()) {
    ASSIGN_OR_RETURN(PrivateNameSpace pns, PrivateNameSpace::Decode(*blob));
    std::lock_guard<std::mutex> lock(mu_);
    pns_ = std::move(pns);
  } else if (blob.status().code() != ErrorCode::kNotFound &&
             blob.status().code() != ErrorCode::kTimeout) {
    return blob.status();
  }
  pns_loaded_ = true;
  return OkStatus();
}

Status MetadataService::Unmount() {
  if (!using_pns()) {
    return OkStatus();
  }
  Status flush = FlushPns();
  if (coord_ != nullptr && pns_lock_token_ != 0) {
    (void)coord_->Unlock(options_.session, LockKey(PnsTupleKey(user_)),
                         pns_lock_token_);
  }
  return flush;
}

Status MetadataService::FlushPns() {
  // Serialized end to end: a close's stage-1 Put lands in pns_.entries
  // before its stage-2 flush, so of two serialized flushes the later one
  // always snapshots a superset — the last tuple write can never point at a
  // snapshot missing a completed close.
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  Bytes encoded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    encoded = pns_.Encode();
  }
  const std::string hash = HexEncode(Sha1::Hash(encoded));
  // The session-lock renewal commutes with both the storage push and the
  // tuple write (different keys), so its coordination round overlaps the
  // cloud upload instead of serializing after it. Joined before returning:
  // Unmount's Unlock must never race an in-flight renewal.
  Future<Status> renewed;
  if (coord_ != nullptr) {
    renewed = coord_->RenewLockAsync(options_.session,
                                     LockKey(PnsTupleKey(user_)),
                                     pns_lock_token_, kPnsLockLease);
  }
  Result<Bytes> pushed = storage_->Push(PnsObjectId(), hash, encoded, {});
  if (!pushed.ok()) {
    if (renewed.valid()) {
      renewed.Join();
    }
    return pushed.status();
  }
  if (coord_ != nullptr) {
    // The tuple write is anchored after the push; only the renewal overlaps.
    Status written =
        coord_
            ->WriteAsync(user_, PnsTupleKey(user_),
                         EncodePnsAnchor(PnsAnchor{hash, *std::move(pushed)}))
            .Get();
    renewed.Join();
    RETURN_IF_ERROR(written);
  }
  return OkStatus();
}

bool MetadataService::InPns(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return pns_.entries.count(path) > 0;
}

Result<FileMetadata> MetadataService::GetFromCoord(const std::string& path) {
  if (coord_ == nullptr) {
    return NotFoundError(path);
  }
  Result<CoordEntry> entry = coord_->Read(user_, MetadataKey(path));
  // A NOT_FOUND or PERMISSION_DENIED answer cost the round too.
  if (entry.ok() || entry.status().code() == ErrorCode::kNotFound ||
      entry.status().code() == ErrorCode::kPermissionDenied) {
    coord_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  RETURN_IF_ERROR(entry.status());
  ASSIGN_OR_RETURN(FileMetadata md, FileMetadata::Decode(entry->value));
  md.path = path;  // the key is authoritative (rename triggers move keys)
  md.entry_version = entry->version;
  return md;
}

Result<FileMetadata> MetadataService::ReadShared(const std::string& path) {
  ASSIGN_OR_RETURN(FileMetadata md, GetFromCoord(path));
  std::lock_guard<std::mutex> lock(mu_);
  cache_[path] = CachedEntry{md, env_->Now()};
  return md;
}

Result<FileMetadata> MetadataService::Get(const std::string& path) {
  const std::string mkey = MetadataKey(path);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // 1. This agent's in-flight close updates: authoritative until their
    // background publish completes, so they outrank the TTL cache — an
    // older chain's publish refreshes the cache with its (stale) version
    // while a newer close's override is still pending.
    auto override_it = local_overrides_.find(path);
    if (override_it != local_overrides_.end()) {
      return override_it->second;
    }
    // 1b. Write-credit pin: we hold the path's write lock, so our own last
    // publish is the newest committed version — serve it with zero
    // coordination messages until the lock's lease bound.
    auto pinned_it = pinned_.find(path);
    if (pinned_it != pinned_.end()) {
      if (env_->Now() < pinned_it->second.valid_until) {
        pinned_hits_.fetch_add(1, std::memory_order_relaxed);
        if (options_.leases != nullptr) {
          options_.leases->RecordLocalHit();
        }
        return pinned_it->second.metadata;
      }
      pinned_.erase(pinned_it);
    }
    // 2. A live lease covering the path: the grant snapshot is the
    // coordination service's state as of the grant, kept honest by
    // revocation notices, so it outranks the TTL cache — and a covered path
    // absent from it is authoritatively absent from the coordination
    // service (negative caching; it may still be private in the PNS).
    if (LeasedPrefix* lease = FindCoveringLease(mkey)) {
      lease_hits_.fetch_add(1, std::memory_order_relaxed);
      options_.leases->RecordLocalHit();
      auto entry_it = lease->entries.find(path);
      if (entry_it != lease->entries.end()) {
        return entry_it->second;
      }
      auto pns_it = pns_.entries.find(path);
      if (pns_it != pns_.entries.end()) {
        return pns_it->second;
      }
      return NotFoundError(path);
    }
    // 3. Short-term cache.
    auto it = cache_.find(path);
    if (it != cache_.end()) {
      if (env_->Now() - it->second.fetched_at <= options_.cache_ttl) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second.metadata;
      }
      cache_.erase(it);
    }
    // 4. PNS (always authoritative for private files — we hold its lock).
    auto pns_it = pns_.entries.find(path);
    if (pns_it != pns_.entries.end()) {
      return pns_it->second;
    }
  }
  // 5. Acquire a lease on the parent directory: one ordered command whose
  // grant snapshot answers this read and every following read under the
  // directory until a mutation revokes it.
  if (LeasesEnabled()) {
    const std::string prefix = LeasePrefixFor(path);
    if (AcquireLeaseFor(prefix).ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (LeasedPrefix* lease = FindCoveringLease(mkey)) {
        auto entry_it = lease->entries.find(path);
        if (entry_it != lease->entries.end()) {
          return entry_it->second;
        }
        auto pns_it = pns_.entries.find(path);
        if (pns_it != pns_.entries.end()) {
          return pns_it->second;
        }
        return NotFoundError(path);
      }
      // Revoked between install and this lookup: fall through to the
      // anchored read.
    }
  }
  // 6. Coordination service (the anchored path).
  return ReadShared(path);
}

Status MetadataService::Put(const FileMetadata& metadata,
                            const std::optional<CoordLockRelease>& release) {
  {
    // A pin serves this agent's previous publish of the path, which this one
    // supersedes (and a release ends the hold that backs it): drop it before
    // the command is sent. The caller pins the new copy if the lock stays
    // held.
    std::lock_guard<std::mutex> lock(mu_);
    pinned_.erase(metadata.path);
  }
  // An entry goes to the PNS iff it is private: already there, or not shared
  // while PNS is enabled. Everything goes there in non-sharing mode.
  const bool in_pns = InPns(metadata.path);
  bool goes_to_pns =
      options_.non_sharing ||
      (options_.use_pns && (in_pns || !metadata.IsShared()));

  if (goes_to_pns && !in_pns && coord_ != nullptr && !options_.non_sharing) {
    // Unknown entry with PNS enabled: it may exist as a shared coordination
    // tuple (e.g. created by another client and opened here). Prefer the
    // coordination service if it already has it.
    auto existing = coord_->Read(user_, MetadataKey(metadata.path));
    if (existing.ok()) {
      goes_to_pns = false;
    }
  }

  if (goes_to_pns) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pns_.entries[metadata.path] = metadata;
      cache_[metadata.path] = CachedEntry{metadata, env_->Now()};
    }
    UnlockUncarried(release);
    return OkStatus();
  }

  std::optional<CoordLockRelease> uncarried = release;
  Result<uint64_t> written = WriteShared(metadata, &uncarried);
  UnlockUncarried(uncarried);
  ASSIGN_OR_RETURN(uint64_t version, std::move(written));
  std::lock_guard<std::mutex> lock(mu_);
  CacheWithVersion(metadata, version);
  // The coordination service is now at least as fresh as any pending local
  // override this Put was published for.
  auto override_it = local_overrides_.find(metadata.path);
  if (override_it != local_overrides_.end() &&
      override_it->second.version <= metadata.version) {
    local_overrides_.erase(override_it);
  }
  return OkStatus();
}

Status MetadataService::Create(const FileMetadata& metadata) {
  if (options_.non_sharing || options_.use_pns) {
    // New files are born private: existence is checked in the local PNS only
    // (private namespaces are per-user, so private files of different users
    // never collide — §2.7).
    std::lock_guard<std::mutex> lock(mu_);
    if (pns_.entries.count(metadata.path) > 0) {
      return AlreadyExistsError(metadata.path);
    }
    pns_.entries[metadata.path] = metadata;
    cache_[metadata.path] = CachedEntry{metadata, env_->Now()};
    return OkStatus();
  }

  bool locked = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = locked_versions_.find(metadata.path);
    locked = it != locked_versions_.end() && it->second == 0;
  }
  uint64_t version = 0;
  if (locked) {
    // Created under this agent's write lock: the create is the first
    // publish on the "no entry" base the lock read.
    Result<uint64_t> created = WriteShared(metadata);
    if (created.status().code() == ErrorCode::kConflict) {
      return AlreadyExistsError(metadata.path);
    }
    RETURN_IF_ERROR(created.status());
    version = *created;
  } else {
    RETURN_IF_ERROR(coord_->ConditionalCreate(
        user_, MetadataKey(metadata.path), metadata.Encode()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  CacheWithVersion(metadata, version);
  return OkStatus();
}

void MetadataService::CacheWithVersion(const FileMetadata& metadata,
                                     uint64_t version) {
  CachedEntry& cached = cache_[metadata.path];
  cached = CachedEntry{metadata, env_->Now()};
  cached.metadata.entry_version = version;
}

Result<uint64_t> MetadataService::WriteShared(
    const FileMetadata& metadata, std::optional<CoordLockRelease>* release) {
  std::optional<uint64_t> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = locked_versions_.find(metadata.path);
    if (it != locked_versions_.end()) {
      base = it->second;
    }
  }
  const std::string key = MetadataKey(metadata.path);
  if (!base.has_value()) {
    RETURN_IF_ERROR(coord_->Write(user_, key, metadata.Encode()));
    return 0;
  }
  Result<uint64_t> swapped = coord_->CompareAndSwap(
      user_, key, metadata.Encode(), *base,
      release != nullptr ? *release : std::nullopt);
  if (release != nullptr &&
      swapped.status().code() != ErrorCode::kUnavailable) {
    release->reset();  // a reply: the swap's slot ran, and released the lock
  }
  ASSIGN_OR_RETURN(uint64_t version, std::move(swapped));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = locked_versions_.find(metadata.path);
  if (it != locked_versions_.end() && it->second == *base) {
    it->second = version;
  }
  return version;
}

void MetadataService::UnlockUncarried(
    const std::optional<CoordLockRelease>& release) {
  if (!release.has_value()) {
    return;
  }
  Status status =
      coord_->Unlock(options_.session, release->name, release->token);
  // kNotFound: the lease expired, which released the lock already.
  if (!status.ok() && status.code() != ErrorCode::kNotFound) {
    SCFS_LOG(Warning) << "unlock of " << release->name
                      << " failed; its lease ends it: " << status.ToString();
  }
}

Result<FileMetadata> MetadataService::OpenLocked(
    const std::string& path, const std::optional<CoordEntry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  locked_versions_[path] = entry.has_value() ? entry->version : 0;
  // The entry read under the lock outranks whatever this agent still
  // remembers of the path: an override left by a failed background publish
  // never became visible.
  local_overrides_.erase(path);
  if (entry.has_value()) {
    ASSIGN_OR_RETURN(FileMetadata md, FileMetadata::Decode(entry->value));
    md.path = path;  // the key is authoritative (rename triggers move keys)
    md.entry_version = entry->version;
    cache_[path] = CachedEntry{md, env_->Now()};
    return md;
  }
  cache_.erase(path);
  auto pns_it = pns_.entries.find(path);
  if (pns_it != pns_.entries.end()) {
    return pns_it->second;
  }
  return NotFoundError(path);
}

Status MetadataService::Remove(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.erase(path);
    local_overrides_.erase(path);
    pinned_.erase(path);
    auto it = pns_.entries.find(path);
    if (it != pns_.entries.end()) {
      pns_.entries.erase(it);
      return OkStatus();
    }
  }
  if (coord_ == nullptr) {
    return NotFoundError(path);
  }
  RETURN_IF_ERROR(coord_->Remove(user_, MetadataKey(path)));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = locked_versions_.find(path);
  if (it != locked_versions_.end()) {
    it->second = 0;
  }
  return OkStatus();
}

Result<FileMetadata> MetadataService::RemoveShared(const std::string& path,
                                                   uint64_t version) {
  if (coord_ == nullptr) {
    return NotFoundError(path);
  }
  Result<CoordEntry> removed =
      coord_->RemoveGuarded(user_, MetadataKey(path), version, LockKey(path),
                            options_.session);
  std::lock_guard<std::mutex> lock(mu_);
  if (!removed.ok()) {
    if (removed.status().code() == ErrorCode::kConflict ||
        removed.status().code() == ErrorCode::kNotFound) {
      cache_.erase(path);  // the copy the caller checked is stale
    }
    return removed.status();
  }
  cache_.erase(path);
  local_overrides_.erase(path);
  pinned_.erase(path);
  auto it = locked_versions_.find(path);
  if (it != locked_versions_.end()) {
    it->second = 0;
  }
  ASSIGN_OR_RETURN(FileMetadata md, FileMetadata::Decode(removed->value));
  md.path = path;
  md.entry_version = removed->version;
  return md;
}

Result<std::vector<FileMetadata>> MetadataService::ListDir(
    const std::string& path) {
  std::vector<FileMetadata> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [entry_path, md] : pns_.entries) {
      if (ParentPath(entry_path) == path && entry_path != path) {
        out.push_back(md);
      }
    }
  }
  if (coord_ != nullptr && !options_.non_sharing) {
    const std::string prefix = (path == "/") ? "m:/" : "m:" + path + "/";
    // A live lease on exactly this directory's prefix answers the listing
    // from the grant snapshot — the common readdir costs no messages.
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto lease_it = leases_.find(prefix);
      if (lease_it != leases_.end() &&
          env_->Now() < lease_it->second.expires_at) {
        lease_it->second.last_used = env_->Now();
        lease_hits_.fetch_add(1, std::memory_order_relaxed);
        options_.leases->RecordLocalHit();
        for (const auto& [entry_path, md] : lease_it->second.entries) {
          if (ParentPath(entry_path) == path && entry_path != path) {
            out.push_back(md);
          }
        }
        return out;
      }
    }
    if (LeasesEnabled() && AcquireLeaseFor(prefix).ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      auto lease_it = leases_.find(prefix);
      if (lease_it != leases_.end()) {
        for (const auto& [entry_path, md] : lease_it->second.entries) {
          if (ParentPath(entry_path) == path && entry_path != path) {
            out.push_back(md);
          }
        }
        return out;
      }
    }
    ASSIGN_OR_RETURN(std::vector<CoordEntryView> entries,
                     coord_->ReadPrefix(user_, prefix));
    for (const auto& entry : entries) {
      auto md = FileMetadata::Decode(entry.value);
      if (!md.ok()) {
        continue;
      }
      // Key layout is "m:<path>/"; recover the path and keep only children.
      std::string entry_path = entry.key.substr(2);
      if (!entry_path.empty() && entry_path.back() == '/') {
        entry_path.pop_back();
      }
      if (ParentPath(entry_path) != path || entry_path == path) {
        continue;
      }
      md->path = entry_path;
      out.push_back(std::move(*md));
    }
  }
  return out;
}

Status MetadataService::RenameSubtree(const std::string& from,
                                      const std::string& to) {
  bool renamed_any = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, FileMetadata>> moved;
    for (auto it = pns_.entries.begin(); it != pns_.entries.end();) {
      if (PathIsWithin(it->first, from)) {
        std::string new_path = to + it->first.substr(from.size());
        FileMetadata md = std::move(it->second);
        md.path = new_path;
        moved.emplace_back(std::move(new_path), std::move(md));
        it = pns_.entries.erase(it);
        renamed_any = true;
      } else {
        ++it;
      }
    }
    for (auto& [new_path, md] : moved) {
      pns_.entries[new_path] = std::move(md);
    }
    cache_.clear();
    // A rename moves whole subtrees under other keys, versions and all;
    // pinned copies and publish bases of the paths must not survive it.
    for (auto it = pinned_.begin(); it != pinned_.end();) {
      if (PathIsWithin(it->first, from) || PathIsWithin(it->first, to)) {
        it = pinned_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = locked_versions_.begin(); it != locked_versions_.end();) {
      if (PathIsWithin(it->first, from) || PathIsWithin(it->first, to)) {
        it = locked_versions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (coord_ != nullptr && !options_.non_sharing) {
    Status s;
    if (coord_->partition_count() > 1) {
      // The subtree's tuples hash across partitions, out of reach of the
      // single-partition trigger: run the intent-record protocol.
      s = CrossPartitionRename(from, to);
    } else {
      // One atomic server-side trigger (the DepSpace extension the paper
      // added for rename): "m:<from>/" covers the entry itself and every
      // descendant.
      s = coord_->RenamePrefix(user_, "m:" + from + "/", "m:" + to + "/");
    }
    if (s.ok()) {
      renamed_any = true;
    } else if (s.code() != ErrorCode::kNotFound) {
      return s;
    }
  }
  return renamed_any ? OkStatus() : NotFoundError(from);
}

Status MetadataService::CrossPartitionRename(const std::string& from,
                                             const std::string& to) {
  const std::string intent_key = RenameIntentKey(from);
  const Bytes intent = EncodeRenameIntent(from, to);
  // Prepare: the intent record, durably ordered on the source subtree's
  // partition. ConditionalCreate makes a concurrent rename of the same
  // subtree (or a crashed one's leftover) visible as kAlreadyExists.
  Status created = coord_->ConditionalCreate(user_, intent_key, intent);
  if (created.code() == ErrorCode::kAlreadyExists) {
    // A crashed rename of this same source is outstanding: finish it, then
    // claim the key for ours.
    ASSIGN_OR_RETURN(CoordEntry stale, coord_->Read(user_, intent_key));
    auto decoded = DecodeRenameIntent(stale.value);
    if (decoded.ok()) {
      Status replay = ExecuteRenameIntent(decoded->from, decoded->to);
      if (!replay.ok() && replay.code() != ErrorCode::kNotFound) {
        return replay;
      }
    }
    RETURN_IF_ERROR(coord_->Remove(user_, intent_key));
    created = coord_->ConditionalCreate(user_, intent_key, intent);
  }
  RETURN_IF_ERROR(created);
  bool mutated = false;
  Status moved = ExecuteRenameIntent(from, to, &mutated);
  if (moved.ok() || moved.code() == ErrorCode::kNotFound ||
      (!mutated && moved.code() == ErrorCode::kPermissionDenied)) {
    // Done, nothing to move, or refused before anything moved (the
    // export's permission check runs ahead of all imports): the prepare
    // record is dead either way. A failure after the first import — even
    // a permission one, e.g. an unwritable pre-existing destination entry
    // — keeps the record so Mount can replay (or an operator can fix the
    // ACL and remount); dropping it would strand a half-moved subtree.
    (void)coord_->Remove(user_, intent_key);
  }
  return moved;
}

Status MetadataService::ExecuteRenameIntent(const std::string& from,
                                            const std::string& to,
                                            bool* mutated) {
  const std::string src_prefix = MetadataKey(from);
  const std::string dst_prefix = MetadataKey(to);
  const std::string commit_key = RenameCommitKey(to);

  // Phase detection. Only a commit marker recording THIS rename's
  // (from, to) proves our imports completed; a leftover marker from a
  // crashed rename of a *different* source into the same destination must
  // not make us skip our import phase (we would delete sources that were
  // never installed). Such a foreign marker is resolved first: finish the
  // crashed rename it records — its marker proves its own imports are
  // done, so that is just its remaining deletes — and retire its records.
  bool committed = false;
  auto marker = coord_->Read(user_, commit_key);
  if (marker.ok()) {
    auto recorded = DecodeRenameIntent(marker->value);
    if (recorded.ok() && recorded->from == from && recorded->to == to) {
      committed = true;
    } else if (recorded.ok()) {
      RETURN_IF_ERROR(ExecuteRenameIntent(recorded->from, recorded->to));
      (void)coord_->Remove(user_, RenameIntentKey(recorded->from));
    } else {
      (void)coord_->Remove(user_, commit_key);  // unreplayable garbage
    }
  }

  // The source entries still in place — on a replay, the not-yet-retired
  // remainder. Export checks write permission on every entry (the same
  // demand RenamePrefix makes) before anything moves.
  ASSIGN_OR_RETURN(std::vector<CoordEntryView> exported,
                   coord_->ExportPrefix(user_, src_prefix));
  if (exported.empty() && !committed) {
    return NotFoundError(from);
  }
  if (!committed) {
    // Import: install every entry at its destination key, each routed to
    // its own partition. ImportEntry derives the new version from the
    // exported payload, so a replayed import rewrites identical state —
    // crashing between any two of these and re-running is harmless. The
    // imports commute (distinct keys): fan out and join.
    if (mutated != nullptr) {
      *mutated = true;
    }
    std::vector<Future<Status>> imports;
    imports.reserve(exported.size());
    for (const auto& entry : exported) {
      std::string new_key = dst_prefix + entry.key.substr(src_prefix.size());
      imports.push_back(
          coord_->ImportEntryAsync(user_, std::move(new_key), entry.value));
    }
    for (const Status& s : WhenAll(std::move(imports)).Get()) {
      RETURN_IF_ERROR(s);
    }
    // Commit: the marker on the destination's partition. From here the
    // move is decided; a crash leaves only source-side deletes.
    Status mark = coord_->ConditionalCreate(user_, commit_key,
                                            EncodeRenameIntent(from, to));
    if (!mark.ok() && mark.code() != ErrorCode::kAlreadyExists) {
      return mark;
    }
  }
  // Retire the source keys (kNotFound = a replay finding work already
  // done), then the commit marker; the caller retires the intent record.
  if (mutated != nullptr) {
    *mutated = true;
  }
  std::vector<Future<Status>> removals;
  removals.reserve(exported.size());
  for (const auto& entry : exported) {
    removals.push_back(coord_->RemoveAsync(user_, entry.key));
  }
  for (const Status& s : WhenAll(std::move(removals)).Get()) {
    if (!s.ok() && s.code() != ErrorCode::kNotFound) {
      return s;
    }
  }
  Status unmark = coord_->Remove(user_, commit_key);
  if (!unmark.ok() && unmark.code() != ErrorCode::kNotFound) {
    return unmark;
  }
  return OkStatus();
}

Status MetadataService::ReplayRenameIntents() {
  ASSIGN_OR_RETURN(std::vector<CoordEntryView> intents,
                   coord_->ReadPrefix(user_, kRenameIntentPrefix));
  for (const auto& record : intents) {
    auto intent = DecodeRenameIntent(record.value);
    if (!intent.ok()) {
      // Unreplayable garbage; keeping it would wedge every future rename
      // of the same source.
      (void)coord_->Remove(user_, record.key);
      continue;
    }
    Status replayed = ExecuteRenameIntent(intent->from, intent->to);
    if (replayed.ok() || replayed.code() == ErrorCode::kNotFound) {
      (void)coord_->Remove(user_, record.key);
    } else {
      // Leave the intent for the next mount rather than failing this one:
      // the half-moved subtree is still replayable, and per-key operations
      // remain correct meanwhile.
      SCFS_LOG(Warning) << "rename intent replay " << intent->from << " -> "
                        << intent->to << " failed: " << replayed.message();
    }
  }
  return OkStatus();
}

Status MetadataService::AddTombstone(const std::string& object_id) {
  if (using_pns()) {
    std::lock_guard<std::mutex> lock(mu_);
    pns_.tombstones.push_back(object_id);
    return OkStatus();
  }
  return coord_->Write(user_, TombstoneKey(user_, object_id), {});
}

Result<std::vector<std::string>> MetadataService::ListTombstones() {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = pns_.tombstones;
  }
  if (coord_ != nullptr && !options_.non_sharing) {
    const std::string prefix = "t:" + user_ + ":";
    ASSIGN_OR_RETURN(std::vector<CoordEntryView> entries,
                     coord_->ReadPrefix(user_, prefix));
    for (const auto& entry : entries) {
      out.push_back(entry.key.substr(prefix.size()));
    }
  }
  return out;
}

Status MetadataService::RemoveTombstone(const std::string& object_id) {
  return RemoveTombstoneAsync(object_id).Get();
}

Future<Status> MetadataService::RemoveTombstoneAsync(
    const std::string& object_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(pns_.tombstones.begin(), pns_.tombstones.end(),
                        object_id);
    if (it != pns_.tombstones.end()) {
      pns_.tombstones.erase(it);
      return Future<Status>::Ready(OkStatus());
    }
  }
  if (coord_ == nullptr) {
    return Future<Status>::Ready(NotFoundError(object_id));
  }
  return coord_->RemoveAsync(user_, TombstoneKey(user_, object_id));
}

Status MetadataService::PromoteToShared(const FileMetadata& metadata) {
  if (!options_.use_pns || coord_ == nullptr) {
    return Put(metadata);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pns_.entries.erase(metadata.path);
  }
  ASSIGN_OR_RETURN(uint64_t version, WriteShared(metadata));
  std::lock_guard<std::mutex> lock(mu_);
  CacheWithVersion(metadata, version);
  return OkStatus();
}

Status MetadataService::DemoteToPrivate(const FileMetadata& metadata) {
  if (!options_.use_pns || coord_ == nullptr) {
    return Put(metadata);
  }
  RETURN_IF_ERROR(Remove(metadata.path));
  std::lock_guard<std::mutex> lock(mu_);
  pns_.entries[metadata.path] = metadata;
  cache_[metadata.path] = CachedEntry{metadata, env_->Now()};
  return OkStatus();
}

Status MetadataService::GrantEntry(const std::string& path,
                                   const std::string& grantee, bool read,
                                   bool write) {
  if (coord_ == nullptr) {
    return NotSupportedError("no coordination service in non-sharing mode");
  }
  return coord_->GrantEntryAccess(user_, MetadataKey(path), grantee, read,
                                  write);
}

void MetadataService::InvalidateCache(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.erase(path);
  pinned_.erase(path);
}

void MetadataService::PinOwned(const FileMetadata& metadata,
                               VirtualTime valid_until) {
  if (valid_until == 0) {
    return;  // lock not actually held (e.g. non-sharing mode)
  }
  std::lock_guard<std::mutex> lock(mu_);
  PinnedEntry& pin = pinned_[metadata.path];
  pin = PinnedEntry{metadata, valid_until};
  auto base = locked_versions_.find(metadata.path);
  pin.metadata.entry_version =
      base != locked_versions_.end() ? base->second : 0;
}

void MetadataService::ForgetLock(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  pinned_.erase(path);
  locked_versions_.erase(path);
}

bool MetadataService::IsPrivateEntry(const FileMetadata& metadata) {
  if (options_.non_sharing) {
    return true;
  }
  return options_.use_pns && !metadata.IsShared() && InPns(metadata.path);
}

void MetadataService::CacheLocally(const FileMetadata& metadata) {
  std::lock_guard<std::mutex> lock(mu_);
  // Not published yet: the entry version it will get is unknown.
  CacheWithVersion(metadata, 0);
  FileMetadata& pending = local_overrides_[metadata.path];
  pending = metadata;
  pending.entry_version = 0;
}

void MetadataService::SetPnsLocator(const std::string& path,
                                    const std::string& content_hash,
                                    const Bytes& locator) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pns_.entries.find(path);
  if (it == pns_.entries.end() || it->second.content_hash != content_hash) {
    return;  // a later close (or an unlink) already replaced this version
  }
  it->second.locator = locator;
}

std::vector<FileMetadata> MetadataService::PnsEntries() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FileMetadata> out;
  out.reserve(pns_.entries.size());
  for (const auto& [path, md] : pns_.entries) {
    out.push_back(md);
  }
  return out;
}

}  // namespace scfs
