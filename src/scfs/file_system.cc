#include "src/scfs/file_system.h"

#include <algorithm>

#include "src/common/executor.h"
#include "src/common/logging.h"
#include "src/common/path.h"
#include "src/crypto/sha1.h"

namespace scfs {

namespace {
// Registry tuples: the per-user list of cloud canonical ids (paper §2.6).
Bytes EncodeCloudIds(const std::vector<CanonicalId>& ids) {
  Bytes out;
  AppendU32(&out, static_cast<uint32_t>(ids.size()));
  for (const auto& id : ids) {
    AppendString(&out, id);
  }
  return out;
}

Result<std::vector<CanonicalId>> DecodeCloudIds(const Bytes& data) {
  ByteReader reader(data);
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) {
    return CorruptionError("bad user registry tuple");
  }
  std::vector<CanonicalId> ids(count);
  for (auto& id : ids) {
    if (!reader.ReadString(&id)) {
      return CorruptionError("bad user registry tuple");
    }
  }
  return ids;
}

// Unlink removes files, and only for a user who may write them.
Status CheckUnlinkable(const std::string& path, const FileMetadata& md,
                       const std::string& user) {
  if (md.type == FileType::kDirectory) {
    return IsDirectoryError(path);
  }
  if (!md.AllowsWrite(user)) {
    return PermissionDeniedError(path);
  }
  return OkStatus();
}

// Re-reads after a guarded remove's kConflict: each one means another agent
// changed the entry between this agent's read and its remove.
constexpr int kUnlinkConflictRetries = 3;
}  // namespace

ScfsFileSystem::ScfsFileSystem(Environment* env, CoordinationService* coord,
                               BlobBackend* backend, ScfsOptions options)
    : env_(env),
      coord_(options.mode == ScfsMode::kNonSharing ? nullptr : coord),
      options_(std::move(options)),
      backend_(backend),
      rng_(std::hash<std::string>{}(options_.user) ^ 0x5cf5ULL ^
           GlobalRng().NextU64()) {
  storage_ = std::make_unique<StorageService>(env_, backend_, options_.storage);
  // Locks are owned by this agent session, not by the user: two machines
  // logged in as the same user must still exclude each other.
  const std::string session = options_.user + "@" + rng_.RandomName(8);
  MetadataServiceOptions md_options;
  md_options.cache_ttl = options_.metadata_cache_ttl;
  md_options.use_pns = options_.use_pns;
  md_options.non_sharing = options_.mode == ScfsMode::kNonSharing;
  md_options.session = session;
  if (options_.leases != nullptr && options_.lease_ttl > 0) {
    md_options.leases = options_.leases;
    md_options.lease_ttl = options_.lease_ttl;
    md_options.lease_max_prefixes = options_.lease_max_prefixes;
  }
  metadata_ = std::make_unique<MetadataService>(env_, coord_, storage_.get(),
                                                options_.user, md_options);
  LockServiceOptions lock_options = options_.locks;
  lock_options.reader = options_.user;
  if (options_.leases != nullptr && options_.lease_ttl > 0) {
    lock_options.leases = options_.leases;
    lock_options.linger = true;
  }
  // Write-credit pins and publish bases are only valid while the lock is
  // held; tear them down the moment the hold ends for real (before a
  // contender can acquire).
  lock_options.on_release = [this](const std::string& path) {
    metadata_->ForgetLock(path);
  };
  locks_ = std::make_unique<LockService>(env_, coord_, session, lock_options);
  uploader_ = std::make_unique<BackgroundUploader>();
  // GC passes must not overlap each other: single-lane FIFO.
  BackgroundUploaderOptions gc_options;
  gc_options.serialize = true;
  gc_worker_ = std::make_unique<BackgroundUploader>(gc_options);
}

ScfsFileSystem::~ScfsFileSystem() {
  if (mounted_) {
    (void)Unmount();
  } else {
    // Drain before member destruction even when never mounted (or mount
    // failed): an in-flight close chain's callbacks touch fs_mu_ and
    // close_chains_, which die before the uploader member would.
    DrainBackground();
  }
}

Status ScfsFileSystem::Mount() {
  RETURN_IF_ERROR(metadata_->Mount());
  if (coord_ != nullptr) {
    // Publish this user's cloud canonical ids (world-readable so other
    // owners can grant this user access — §2.6).
    RETURN_IF_ERROR(coord_->Write(options_.user,
                                  UserRegistryKey(options_.user),
                                  EncodeCloudIds(options_.user_cloud_ids)));
    RETURN_IF_ERROR(coord_->GrantEntryAccess(
        options_.user, UserRegistryKey(options_.user), "*", true, false));
  }
  mounted_ = true;
  return OkStatus();
}

Status ScfsFileSystem::Unmount() {
  DrainBackground();
  Status s = metadata_->Unmount();
  mounted_ = false;
  return s;
}

void ScfsFileSystem::DrainBackground() {
  uploader_->Drain();
  gc_worker_->Drain();
}

Status ScfsFileSystem::SyncBarrier() {
  DrainBackground();
  return OkStatus();
}

void ScfsFileSystem::WaitForCloseChains(const std::string& path) {
  std::vector<Future<Status>> tails;
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    for (const auto& [chain_path, chain] : close_chains_) {
      if (PathIsWithin(chain_path, path)) {
        tails.push_back(chain.publish);
      }
    }
  }
  // Like Drain(), the barrier itself is not charged to the caller.
  for (const auto& tail : tails) {
    tail.Wait();
  }
}

void ScfsFileSystem::StopOpenFileStats(const std::string& path) {
  for (auto& [handle, file] : open_files_) {
    if (PathIsWithin(file.metadata.path, path)) {
      file.answers_stat = false;
    }
  }
}

std::string ScfsFileSystem::NewObjectId() {
  std::lock_guard<std::mutex> lock(fs_mu_);
  return options_.user + "-" + rng_.RandomName(16);
}

Status ScfsFileSystem::CheckParentDirectory(const std::string& path) {
  const std::string parent = ParentPath(path);
  if (parent == "/") {
    return OkStatus();
  }
  ASSIGN_OR_RETURN(FileMetadata md, metadata_->Get(parent));
  if (md.type != FileType::kDirectory) {
    return NotDirectoryError(parent);
  }
  return OkStatus();
}

Result<FileMetadata> ScfsFileSystem::ResolveForOpen(
    const std::string& path, uint32_t flags,
    const LockService::LockedRead* locked, const Status* parent_checked,
    bool* created) {
  *created = false;
  // A lock taken with a coordination round read the entry at the lock's
  // position in the total order: a cached entry could predate another
  // agent's acknowledged close.
  auto existing = locked != nullptr && locked->fresh
                      ? metadata_->OpenLocked(path, locked->entry)
                      : metadata_->Get(path);
  if (existing.ok()) {
    return existing;
  }
  if (existing.status().code() != ErrorCode::kNotFound ||
      (flags & kOpenCreate) == 0) {
    return existing.status();
  }
  RETURN_IF_ERROR(parent_checked != nullptr ? *parent_checked
                                            : CheckParentDirectory(path));
  FileMetadata md;
  md.path = path;
  md.type = FileType::kFile;
  md.owner = options_.user;
  md.object_id = NewObjectId();
  md.ctime = env_->Now();
  md.mtime = md.ctime;
  RETURN_IF_ERROR(metadata_->Create(md));
  *created = true;
  return md;
}

Result<FileHandle> ScfsFileSystem::Open(const std::string& path,
                                        uint32_t flags) {
  const std::string normalized = NormalizePath(path);
  if (normalized.empty() || normalized == "/") {
    return InvalidArgumentError("bad path: " + path);
  }
  const bool write_mode = (flags & kOpenWrite) != 0;

  // Step (ii) of the open protocol (Figure 4): opening for writing locks the
  // file before anything else so a losing racer fails fast with BUSY.
  // (Creation also takes the lock: the created entry is immediately
  // write-opened.) A create that takes the lock with a coordination round
  // looks its parent directory up during that round; the lookup is used
  // only if the lock's read finds no entry. (A reclaimed lock costs no
  // round to overlap with.)
  LockService::LockedRead locked;
  std::optional<Status> parent_checked;
  if (write_mode) {
    Future<Status> parent;
    if ((flags & kOpenCreate) != 0 && coord_ != nullptr &&
        locks_->HeldUntil(normalized) == 0) {
      parent = DefaultExecutor().Submit(
          [this, normalized] { return CheckParentDirectory(normalized); });
    }
    const VirtualDuration before = Environment::ThreadCharged();
    Status acquired = locks_->Acquire(normalized, &locked);
    if (parent.valid()) {
      // Charged as WhenAll charges a pair: the longer of the two rounds.
      const VirtualDuration lock_round = Environment::ThreadCharged() - before;
      parent.Wait();
      Environment::AddThreadCharge(
          std::max<VirtualDuration>(0, parent.charge() - lock_round));
      parent.OnReady([&parent_checked](const Status& checked,
                                       VirtualDuration) {
        parent_checked = checked;  // ready: runs inline, charges nothing
      });
    }
    RETURN_IF_ERROR(acquired);
  }

  bool created = false;
  auto metadata = ResolveForOpen(
      normalized, flags, write_mode ? &locked : nullptr,
      parent_checked.has_value() ? &*parent_checked : nullptr, &created);
  if (!metadata.ok()) {
    if (write_mode) {
      (void)locks_->Release(normalized);
    }
    return metadata.status();
  }
  auto fail = [&](Status status) -> Result<FileHandle> {
    if (write_mode) {
      (void)locks_->Release(normalized);
    }
    return status;
  };

  if (metadata->type == FileType::kDirectory) {
    return fail(IsDirectoryError(normalized));
  }
  if (write_mode && !metadata->AllowsWrite(options_.user)) {
    return fail(PermissionDeniedError(normalized));
  }
  if (!write_mode && !metadata->AllowsRead(options_.user)) {
    return fail(PermissionDeniedError(normalized));
  }

  // Step (iii): bring the file data into the memory cache — locally when the
  // cached copy matches the anchored hash, from the cloud otherwise.
  OpenFile open_file;
  open_file.metadata = std::move(*metadata);
  open_file.predecessor = open_file.metadata.locator;
  open_file.write_mode = write_mode;
  if ((flags & kOpenTruncate) != 0) {
    open_file.dirty = open_file.metadata.size > 0;
    open_file.metadata.size = 0;
    open_file.metadata.content_hash.clear();
    open_file.metadata.locator.clear();
  } else {
    auto data = storage_->Fetch(open_file.metadata.object_id,
                                open_file.metadata.content_hash,
                                open_file.metadata.locator);
    if (!data.ok()) {
      return fail(data.status());
    }
    open_file.data = std::move(*data);
  }

  open_file.opened_at = env_->Now();
  FileHandle handle = next_handle_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    open_files_.emplace(handle, std::move(open_file));
  }
  return handle;
}

Result<Bytes> ScfsFileSystem::Read(FileHandle handle, uint64_t offset,
                                   size_t size) {
  std::lock_guard<std::mutex> lock(fs_mu_);
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    return InvalidArgumentError("bad handle");
  }
  const Bytes& data = it->second.data;
  if (offset >= data.size()) {
    return Bytes{};
  }
  size_t n = std::min<size_t>(size, data.size() - offset);
  return Bytes(data.begin() + static_cast<ptrdiff_t>(offset),
               data.begin() + static_cast<ptrdiff_t>(offset + n));
}

Status ScfsFileSystem::Write(FileHandle handle, uint64_t offset,
                             const Bytes& data) {
  std::lock_guard<std::mutex> lock(fs_mu_);
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    return InvalidArgumentError("bad handle");
  }
  OpenFile& file = it->second;
  if (!file.write_mode) {
    return PermissionDeniedError("file not open for writing");
  }
  if (offset + data.size() > file.data.size()) {
    file.data.resize(offset + data.size(), 0);
  }
  std::copy(data.begin(), data.end(),
            file.data.begin() + static_cast<ptrdiff_t>(offset));
  file.dirty = true;
  file.metadata.size = file.data.size();
  file.metadata.mtime = env_->Now();
  return OkStatus();
}

Status ScfsFileSystem::Truncate(FileHandle handle, uint64_t size) {
  std::lock_guard<std::mutex> lock(fs_mu_);
  auto it = open_files_.find(handle);
  if (it == open_files_.end()) {
    return InvalidArgumentError("bad handle");
  }
  OpenFile& file = it->second;
  if (!file.write_mode) {
    return PermissionDeniedError("file not open for writing");
  }
  file.data.resize(size, 0);
  file.dirty = true;
  file.metadata.size = size;
  file.metadata.mtime = env_->Now();
  return OkStatus();
}

Status ScfsFileSystem::Fsync(FileHandle handle) {
  Bytes data;
  std::string object_id;
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    auto it = open_files_.find(handle);
    if (it == open_files_.end()) {
      return InvalidArgumentError("bad handle");
    }
    if (!it->second.dirty) {
      return OkStatus();
    }
    data = it->second.data;
    object_id = it->second.metadata.object_id;
  }
  // Durability level 1: the local disk survives a process/system crash.
  const std::string hash = HexEncode(Sha1::Hash(data));
  return storage_->FlushToDisk(object_id, hash, data);
}

std::vector<BackendGrant> ScfsFileSystem::BuildGrants(
    const FileMetadata& metadata) {
  std::vector<BackendGrant> grants;
  // When a grantee writes, the cloud objects it creates belong to the
  // grantee's accounts; the file owner must be granted access back.
  if (metadata.owner != options_.user) {
    auto owner_ids = LookupUserCloudIds(metadata.owner);
    if (owner_ids.ok()) {
      BackendGrant grant;
      grant.cloud_ids = std::move(*owner_ids);
      grant.read = true;
      grant.write = true;
      grants.push_back(std::move(grant));
    }
  }
  for (const auto& [user, bits] : metadata.acl) {
    auto ids = LookupUserCloudIds(user);
    if (!ids.ok()) {
      SCFS_LOG(Warning) << "no cloud ids registered for " << user;
      continue;
    }
    BackendGrant grant;
    grant.cloud_ids = std::move(*ids);
    grant.read = (bits & 1) != 0;
    grant.write = (bits & 2) != 0;
    grants.push_back(std::move(grant));
  }
  return grants;
}

Result<std::vector<CanonicalId>> ScfsFileSystem::LookupUserCloudIds(
    const std::string& user) {
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    auto it = registry_cache_.find(user);
    if (it != registry_cache_.end()) {
      return it->second;
    }
  }
  if (user == options_.user) {
    return options_.user_cloud_ids;
  }
  if (coord_ == nullptr) {
    return NotSupportedError("no registry in non-sharing mode");
  }
  ASSIGN_OR_RETURN(CoordEntry entry,
                   coord_->Read(options_.user, UserRegistryKey(user)));
  ASSIGN_OR_RETURN(std::vector<CanonicalId> ids, DecodeCloudIds(entry.value));
  std::lock_guard<std::mutex> lock(fs_mu_);
  registry_cache_[user] = ids;
  return ids;
}

// Close-time synchronization (Figure 4 close path + §3.1 modes), as a
// future pipeline.
Future<Status> ScfsFileSystem::SynchronizeOnCloseAsync(OpenFile&& file) {
  FileMetadata md = std::move(file.metadata);
  const Bytes predecessor = std::move(file.predecessor);
  auto data = std::make_shared<const Bytes>(std::move(file.data));
  const std::string hash =
      data->empty() ? "" : HexEncode(Sha1::Hash(*data));
  md.content_hash = hash;
  md.locator.clear();  // set from the upload, before the entry is published
  md.size = data->size();
  md.version++;
  std::vector<BackendGrant> grants = BuildGrants(md);
  const std::string path = md.path;
  const uint64_t written = data->size();

  // Queue capacity is acquired BEFORE this close registers itself as a
  // dependency of later same-path closes: once its placeholder tails are
  // visible in close_chains_, its stages already hold their slots and can
  // always be enqueued, so every tail a queued stage waits on belongs to an
  // admitted chain and eventually resolves. (Reserving after registering
  // would let later closes fill the queue with stages gated on a tail whose
  // producer is still blocked in Reserve — a circular wait.) Reserving the
  // whole chain atomically also means the producer never holds one stage's
  // slot while blocking for another's, and the pending count covers the
  // chain from the first enqueue, so a concurrent Unlink's barrier cannot
  // slip between the stages.
  uploader_->Reserve(2);

  // Per-file ordering: a close of a re-opened file must apply its path-keyed
  // metadata updates only after the previous close of the same path (the
  // lock service is re-entrant, so the reopen is legal while the chain is in
  // flight). Stage 1 orders on the previous stage 1 (a disk flush, never the
  // previous cloud upload); stage 2 orders on the previous publish. The new
  // tails are registered as placeholders under the same lock that reads the
  // previous ones, so two concurrent closes of the same path (two write
  // handles) cannot fork the chain.
  Future<Status> dep_level1;
  Future<Status> dep_publish;
  uint64_t gen;
  Promise<Status> level1_tail;
  Promise<Status> publish_tail;
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    auto it = close_chains_.find(path);
    if (it != close_chains_.end()) {
      dep_level1 = it->second.level1;
      dep_publish = it->second.publish;
    }
    gen = ++close_chain_gen_;
    close_chains_[path] =
        CloseChainTails{gen, level1_tail.future(), publish_tail.future()};
  }

  Future<Status> result;     // what the caller waits on
  Future<Status> chain_end;  // completion of the whole chain

  if (options_.mode == ScfsMode::kBlocking) {
    // Level 2/3 before the future completes: data to disk and a cloud write
    // quorum, then the entry published (a compare-and-swap on the version
    // the open's lock read) in the command that also releases the lock
    // (DESIGN.md "Publish-and-release"). DepSky's cloud metadata is written
    // behind the close, started once the publish succeeded; the chain's
    // last stage waits for it (`behind`). A failed push still releases the
    // file lock — a failed write must not leave the file locked. The task's
    // charge reaches the foreground waiter through the future, so it is
    // excluded from the uploader's background accounting.
    Promise<Status> behind;
    auto task = [this, md, data, hash, grants, path, written, predecessor,
                 behind]() mutable {
      // Renew the file lock's lease if it runs short: the renewal's
      // coordination round overlaps the cloud push instead of risking a
      // mid-push expiry. Joined before the release (renew/unlock on the
      // same path must not race).
      Future<Status> lease = locks_->RenewAsync(path);
      Future<Status> metadata_written = Future<Status>::Ready(OkStatus());
      Status s = OkStatus();
      std::function<Future<Status>(std::optional<VirtualTime>)> finish;
      if (!hash.empty()) {
        Result<StartedVersion> started = storage_->StartPush(
            md.object_id, hash, *data, grants, predecessor);
        if (started.ok()) {
          md.locator = std::move(started->locator);
          finish = std::move(started->finish);
        } else {
          s = started.status();
        }
      }
      lease.Join();
      if (s.ok()) {
        s = PublishAndRelease(md, finish, &metadata_written);
      } else {
        (void)locks_->Release(path);
      }
      metadata_written.OnReady(
          [behind](const Status& status, VirtualDuration charge) {
            behind.Set(status, charge);
          });
      if (s.ok()) {
        MaybeTriggerGc(written);
      }
      return s;
    };
    result = dep_publish.valid()
                 ? uploader_->EnqueueAfterReserved(dep_publish, std::move(task),
                                                   /*account_charge=*/false)
                 : uploader_->EnqueueReserved(std::move(task),
                                              /*account_charge=*/false);
    // Background work: charged to the uploader, not to the close.
    chain_end = uploader_->EnqueueAfterReserved(
        behind.future(), [written_behind = behind.future()] {
          return written_behind.Get();
        });
  } else {
    // Non-blocking / non-sharing. Stage 1 — durability level 1 plus the
    // local visibility updates, which happen only once the flush succeeded
    // (a failed close must not become visible as the new version). Its
    // charge reaches a foreground Close() through the future, so it is
    // excluded from the uploader's background accounting.
    const bool private_entry = metadata_->IsPrivateEntry(md);
    auto level1_status = std::make_shared<Status>();

    // Stage 2 — upload, then metadata, then unlock: strictly after this
    // close's stage 1 AND the previous chain's publish (gated on the
    // stage-1 placeholder).
    Future<Status> stage2_gate =
        dep_publish.valid()
            ? AsCompletion(
                  WhenAll<Status>({level1_tail.future(), dep_publish}))
            : level1_tail.future();
    chain_end = uploader_->EnqueueAfterReserved(
        stage2_gate, [this, md, data, hash, grants, path, private_entry,
                      level1_status, predecessor]() mutable {
          if (!level1_status->ok()) {
            // Level 1 failed: nothing was published; just release the lock
            // so a failed write doesn't leave the file locked.
            (void)locks_->Release(path);
            return *level1_status;
          }
          // Lease renewal overlaps the cloud upload (see blocking mode);
          // joined before the release.
          Future<Status> lease = locks_->RenewAsync(path);
          std::function<Future<Status>(std::optional<VirtualTime>)> finish;
          if (!hash.empty()) {
            Result<StartedVersion> started = storage_->backend().StartVersion(
                md.object_id, hash, *data, grants, predecessor);
            if (started.ok()) {
              md.locator = std::move(started->locator);
              finish = std::move(started->finish);
            } else {
              SCFS_LOG(Warning) << "background upload failed: "
                                << started.status().ToString();
            }
          }
          Future<Status> metadata_written = Future<Status>::Ready(OkStatus());
          Status released;
          if (private_entry) {
            // Stage 1 put the entry in the PNS without a locator.
            metadata_->SetPnsLocator(path, hash, md.locator);
            Status s = metadata_->FlushPns();
            if (!s.ok()) {
              SCFS_LOG(Warning) << "background pns flush failed: "
                                << s.ToString();
            } else if (finish) {
              // DepSky's cloud metadata: started before the unlock, so the
              // next writer's wait for it is bounded (DESIGN.md
              // "Write-behind metadata"), landing after it, still inside
              // this close's chain.
              metadata_written = finish(std::nullopt);
            }
            lease.Join();
            released = locks_->Release(path);
          } else {
            lease.Join();
            released = PublishAndRelease(md, finish, &metadata_written);
            if (!released.ok()) {
              SCFS_LOG(Warning) << "background metadata update failed: "
                                << released.ToString();
            }
          }
          Status written_behind = metadata_written.Get();
          if (!written_behind.ok()) {
            SCFS_LOG(Warning) << "background metadata write failed: "
                              << written_behind.ToString();
          }
          return released;
        });

    // Stage 1, ordered on the previous close's stage 1 only: the path-keyed
    // local metadata update must apply in close order, but a reopened
    // file's Close() costs a disk flush, never the previous cloud upload.
    auto stage1 = [this, md, data, hash, private_entry, level1_status] {
      if (!hash.empty()) {
        Status s = storage_->FlushToDisk(md.object_id, hash, *data);
        if (!s.ok()) {
          *level1_status = s;
          return s;
        }
        storage_->PutMemory(md.object_id, hash, *data);
      }
      if (private_entry) {
        // PNS entries are local structures: update now (cheap), persist
        // the PNS object in stage 2.
        Status s = metadata_->Put(md);
        if (!s.ok()) {
          *level1_status = s;
          return s;
        }
      } else {
        // Shared entries: the coordination tuple is only updated after
        // the data reaches the clouds, but this agent sees its own
        // close as soon as level 1 completes.
        metadata_->CacheLocally(md);
      }
      return OkStatus();
    };
    result = uploader_->EnqueueAfterReserved(dep_level1, std::move(stage1),
                                             /*account_charge=*/false);
    MaybeTriggerGc(written);
  }

  // Resolve the registered tail placeholders as the chain progresses, and
  // prune the map entry unless a newer chain already replaced it.
  result.OnReady([level1_tail](const Status& status, VirtualDuration charge) {
    level1_tail.Set(status, charge);
  });
  chain_end.OnReady(
      [publish_tail](const Status& status, VirtualDuration charge) {
        publish_tail.Set(status, charge);
      });
  publish_tail.future().OnReady([this, path, gen](const Status&,
                                                  VirtualDuration) {
    std::lock_guard<std::mutex> lock(fs_mu_);
    auto it = close_chains_.find(path);
    if (it != close_chains_.end() && it->second.gen == gen) {
      close_chains_.erase(it);
    }
  });
  return result;
}

Status ScfsFileSystem::PublishAndRelease(
    const FileMetadata& md,
    const std::function<Future<Status>(std::optional<VirtualTime>)>& finish,
    Future<Status>* written_behind) {
  return locks_->PublishAndRelease(
      md.path, [&](const std::optional<CoordLockRelease>& release) {
        // Handing the lock off with this command lets the next writer start
        // once its slot has run: the write-behind must launch soon after.
        std::optional<VirtualTime> handed_off;
        if (release.has_value()) {
          handed_off = env_->Now();
        }
        Status published = metadata_->Put(md, release);
        if (!published.ok()) {
          return published;
        }
        if (!release.has_value()) {
          // Write credit: the lock stays held (a re-entrant reference, or
          // the release lingers it), so nobody else can publish and our
          // own publish stays the newest — serve reads of it locally until
          // the lock lease bound.
          metadata_->PinOwned(md, locks_->HeldUntil(md.path));
        }
        if (finish) {
          *written_behind = finish(handed_off);
        }
        return published;
      });
}

Status ScfsFileSystem::Close(FileHandle handle) {
  return CloseAsync(handle).Get();
}

Future<Status> ScfsFileSystem::CloseAsync(FileHandle handle) {
  OpenFile file;
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    auto it = open_files_.find(handle);
    if (it == open_files_.end()) {
      return Future<Status>::Ready(InvalidArgumentError("bad handle"));
    }
    file = std::move(it->second);
    open_files_.erase(it);
    if (file.write_mode && file.dirty) {
      StopOpenFileStats(file.metadata.path);  // this close publishes
    }
  }

  if (!file.write_mode) {
    return Future<Status>::Ready(OkStatus());
  }
  if (!file.dirty) {
    return Future<Status>::Ready(locks_->Release(file.metadata.path));
  }
  return SynchronizeOnCloseAsync(std::move(file));
}

Status ScfsFileSystem::Mkdir(const std::string& path) {
  const std::string normalized = NormalizePath(path);
  if (normalized.empty() || normalized == "/") {
    return InvalidArgumentError("bad path: " + path);
  }
  RETURN_IF_ERROR(CheckParentDirectory(normalized));
  if (metadata_->Get(normalized).ok()) {
    return AlreadyExistsError(normalized);
  }
  FileMetadata md;
  md.path = normalized;
  md.type = FileType::kDirectory;
  md.owner = options_.user;
  md.ctime = env_->Now();
  md.mtime = md.ctime;
  return metadata_->Create(md);
}

Status ScfsFileSystem::Rmdir(const std::string& path) {
  const std::string normalized = NormalizePath(path);
  ASSIGN_OR_RETURN(FileMetadata md, metadata_->Get(normalized));
  if (md.type != FileType::kDirectory) {
    return NotDirectoryError(normalized);
  }
  ASSIGN_OR_RETURN(std::vector<FileMetadata> children,
                   metadata_->ListDir(normalized));
  if (!children.empty()) {
    return NotEmptyError(normalized);
  }
  return metadata_->Remove(normalized);
}

Status ScfsFileSystem::Unlink(const std::string& path) {
  const std::string normalized = NormalizePath(path);
  // Serialize with this path's queued close-publications: a pending
  // background metadata update must not resurrect the file after its
  // removal. (Every mode: blocking-mode CloseAsync also publishes through
  // the uploader.)
  WaitForCloseChains(normalized);
  ASSIGN_OR_RETURN(FileMetadata md, metadata_->Get(normalized));
  RETURN_IF_ERROR(CheckUnlinkable(normalized, md, options_.user));
  const bool shared_entry = !metadata_->IsPrivateEntry(md);
  FileMetadata removed;
  if (shared_entry) {
    ASSIGN_OR_RETURN(removed, UnlinkShared(normalized, std::move(md)));
  } else {
    RETURN_IF_ERROR(metadata_->Remove(normalized));
    removed = std::move(md);
  }
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    StopOpenFileStats(normalized);
  }
  if (!removed.object_id.empty() && !removed.content_hash.empty()) {
    // Versions stay in the cloud until the garbage collector reclaims them
    // (multi-versioning: removed files can be recovered until then). A
    // shared file's tombstone is a coordination round, written behind the
    // ack; SyncBarrier and DrainBackground wait for it. Its charge is no
    // close's publish, so the uploader does not account it.
    if (shared_entry) {
      Future<Status> written = uploader_->Enqueue(
          [this, object_id = removed.object_id] {
            return metadata_->AddTombstone(object_id);
          },
          /*account_charge=*/false);
      std::lock_guard<std::mutex> lock(fs_mu_);
      pending_tombstones_.erase(
          std::remove_if(pending_tombstones_.begin(), pending_tombstones_.end(),
                         [](const Future<Status>& f) { return f.ready(); }),
          pending_tombstones_.end());
      pending_tombstones_.push_back(std::move(written));
    } else {
      (void)metadata_->AddTombstone(removed.object_id);
    }
  }
  return OkStatus();
}

Result<FileMetadata> ScfsFileSystem::UnlinkShared(const std::string& path,
                                                  FileMetadata md) {
  // One ordered command removes the entry iff it is still the version the
  // checks ran on and no other session holds the file's write lock — the
  // exclusion a lock -> remove -> unlock sequence gave, in one round.
  bool asked_release = false;
  int conflicts = 0;
  while (true) {
    if (md.entry_version == 0) {
      // A copy whose entry version this agent never learned cannot guard
      // the remove: read the entry.
      ASSIGN_OR_RETURN(md, metadata_->ReadShared(path));
      RETURN_IF_ERROR(CheckUnlinkable(path, md, options_.user));
    }
    Result<FileMetadata> removed =
        metadata_->RemoveShared(path, md.entry_version);
    if (removed.ok()) {
      return removed;
    }
    const ErrorCode code = removed.status().code();
    if (code == ErrorCode::kBusy && !asked_release &&
        locks_->RequestRelease(path)) {
      // Another mount lingered on the lock and has released it.
      asked_release = true;
      continue;
    }
    if (code != ErrorCode::kConflict || ++conflicts > kUnlinkConflictRetries) {
      return removed.status();
    }
    md.entry_version = 0;
  }
}

Status ScfsFileSystem::Rename(const std::string& from, const std::string& to) {
  const std::string src = NormalizePath(from);
  const std::string dst = NormalizePath(to);
  if (src.empty() || dst.empty() || src == "/" || dst == "/") {
    return InvalidArgumentError("bad rename");
  }
  if (PathIsWithin(dst, src)) {
    return InvalidArgumentError("cannot rename into own subtree");
  }
  // As in Unlink: queued publications under either endpoint must land before
  // the namespace moves, or a background metadata write would re-create the
  // source path (or overwrite the destination with a stale version).
  WaitForCloseChains(src);
  WaitForCloseChains(dst);
  RETURN_IF_ERROR(CheckParentDirectory(dst));
  if (metadata_->Get(dst).ok()) {
    return AlreadyExistsError(dst);
  }
  RETURN_IF_ERROR(metadata_->RenameSubtree(src, dst));
  metadata_->InvalidateCache(src);
  std::lock_guard<std::mutex> lock(fs_mu_);
  StopOpenFileStats(src);
  return OkStatus();
}

Result<FileStat> ScfsFileSystem::Stat(const std::string& path) {
  const std::string normalized = NormalizePath(path);
  if (normalized == "/") {
    FileStat root;
    root.type = FileType::kDirectory;
    root.owner = options_.user;
    return root;
  }
  // A just-opened file answers from its own metadata. The metadata cache
  // counts its TTL from the metadata read, before the open's cloud fetch, so
  // a stat right after a cold open would pay a coordination read or not
  // depending on whether the fetch outlasted the TTL. The newest read
  // handle wins.
  {
    const VirtualTime now = env_->Now();
    std::lock_guard<std::mutex> lock(fs_mu_);
    for (auto it = open_files_.rbegin(); it != open_files_.rend(); ++it) {
      const OpenFile& file = it->second;
      if (!file.write_mode && file.answers_stat &&
          file.metadata.path == normalized &&
          now - file.opened_at <= options_.metadata_cache_ttl) {
        return file.metadata.ToStat();
      }
    }
  }
  ASSIGN_OR_RETURN(FileMetadata md, metadata_->Get(normalized));
  if (md.type == FileType::kFile && !md.AllowsRead(options_.user)) {
    return PermissionDeniedError(normalized);
  }
  return md.ToStat();
}

Result<std::vector<DirEntry>> ScfsFileSystem::ReadDir(const std::string& path) {
  const std::string normalized = NormalizePath(path);
  if (normalized != "/") {
    ASSIGN_OR_RETURN(FileMetadata md, metadata_->Get(normalized));
    if (md.type != FileType::kDirectory) {
      return NotDirectoryError(normalized);
    }
  }
  ASSIGN_OR_RETURN(std::vector<FileMetadata> children,
                   metadata_->ListDir(normalized));
  std::vector<DirEntry> out;
  out.reserve(children.size());
  for (const auto& child : children) {
    out.push_back(DirEntry{Basename(child.path), child.type});
  }
  std::sort(out.begin(), out.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return out;
}

Status ScfsFileSystem::SetFacl(const std::string& path, const std::string& user,
                               bool read, bool write) {
  if (coord_ == nullptr) {
    return NotSupportedError("sharing disabled in non-sharing mode");
  }
  const std::string normalized = NormalizePath(path);
  // The backend grant rewrites the file's cloud metadata: this agent's
  // pending write-behind of it must land first.
  WaitForCloseChains(normalized);
  ASSIGN_OR_RETURN(FileMetadata md, metadata_->Get(normalized));
  if (md.owner != options_.user) {
    return PermissionDeniedError("only the owner may change ACLs");
  }

  // Step (i) — paper §2.6: update the ACLs of the cloud objects holding the
  // file data, using the grantee's registered canonical ids.
  ASSIGN_OR_RETURN(std::vector<CanonicalId> ids, LookupUserCloudIds(user));
  BackendGrant grant;
  grant.cloud_ids = std::move(ids);
  grant.read = read;
  grant.write = write;
  if (md.type == FileType::kFile && !md.content_hash.empty()) {
    RETURN_IF_ERROR(backend_->SetGrant(md.object_id, grant));
  }

  const bool was_shared = md.IsShared();
  uint8_t bits = (read ? 1 : 0) | (write ? 2 : 0);
  if (bits == 0) {
    md.acl.erase(user);
  } else {
    md.acl[user] = bits;
  }

  // Step (ii): update the metadata tuple's ACL in the coordination service —
  // moving the entry out of (or back into) the PNS as its shared status
  // changes (§2.7).
  if (!was_shared && md.IsShared()) {
    RETURN_IF_ERROR(metadata_->PromoteToShared(md));
  } else if (was_shared && !md.IsShared()) {
    RETURN_IF_ERROR(metadata_->DemoteToPrivate(md));
  } else {
    RETURN_IF_ERROR(metadata_->Put(md));
  }
  if (md.IsShared()) {
    RETURN_IF_ERROR(metadata_->GrantEntry(normalized, user, read, write));
  }
  return OkStatus();
}

Result<std::vector<AclEntry>> ScfsFileSystem::GetFacl(const std::string& path) {
  ASSIGN_OR_RETURN(FileMetadata md, metadata_->Get(NormalizePath(path)));
  std::vector<AclEntry> out;
  for (const auto& [user, bits] : md.acl) {
    out.push_back(AclEntry{user, (bits & 1) != 0, (bits & 2) != 0});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Garbage collection (paper §2.5.3)
// ---------------------------------------------------------------------------

void ScfsFileSystem::MaybeTriggerGc(uint64_t written_bytes) {
  if (!options_.gc.enabled) {
    return;
  }
  uint64_t total = bytes_written_since_gc_.fetch_add(written_bytes) +
                   written_bytes;
  if (total < options_.gc.written_bytes_threshold) {
    return;
  }
  bytes_written_since_gc_.store(0);
  // "...it starts the garbage collector as a separated thread that runs in
  // parallel with the rest of the system."
  gc_worker_->Enqueue([this] { return RunGarbageCollection(); });
}

Status ScfsFileSystem::GcCollectFile(const FileMetadata& metadata) {
  if (metadata.type != FileType::kFile || metadata.object_id.empty()) {
    return OkStatus();
  }
  // Listing and deleting versions rewrite the file's cloud metadata: this
  // agent's pending write-behind of it must land first.
  WaitForCloseChains(metadata.path);
  ASSIGN_OR_RETURN(std::vector<BlobVersionInfo> versions,
                   backend_->ListVersions(metadata.object_id));
  if (versions.size() <= options_.gc.versions_to_keep) {
    return OkStatus();
  }
  size_t to_delete = versions.size() - options_.gc.versions_to_keep;
  for (size_t i = 0; i < to_delete; ++i) {
    // Never delete the currently anchored version, whatever its age.
    if (versions[i].content_hash == metadata.content_hash) {
      continue;
    }
    (void)backend_->DeleteVersionByHash(metadata.object_id,
                                        versions[i].content_hash);
  }
  return OkStatus();
}

Status ScfsFileSystem::RunGarbageCollection() {
  // Old versions of live files owned by this user.
  std::vector<FileMetadata> files;
  if (coord_ != nullptr) {
    auto entries = coord_->ReadPrefix(options_.user, "m:/");
    if (entries.ok()) {
      for (const auto& entry : *entries) {
        auto md = FileMetadata::Decode(entry.value);
        if (md.ok() && md->owner == options_.user) {
          files.push_back(std::move(*md));
        }
      }
    }
  }
  for (const auto& md : metadata_->PnsEntries()) {
    files.push_back(md);
  }
  for (const auto& md : files) {
    (void)GcCollectFile(md);
  }

  // Deleted files: drop entire data units and their tombstones. The
  // tombstones of unlinks acknowledged so far must be listed first.
  std::vector<Future<Status>> tombstones_written;
  {
    std::lock_guard<std::mutex> lock(fs_mu_);
    tombstones_written = pending_tombstones_;
  }
  for (const auto& written : tombstones_written) {
    written.Wait();
  }
  // Each object's tombstone removal (a coordination round) is fired
  // asynchronously so it overlaps the next object's cloud deletes —
  // per-object order (delete before tombstone removal) is preserved,
  // different objects are independent. The fan-out is joined in bounded
  // windows: one client's in-flight set must stay well inside the SMR's
  // per-client reply table, or a retransmission could outlive its cached
  // reply and re-execute.
  constexpr size_t kGcRemovalWindow = 64;
  ASSIGN_OR_RETURN(std::vector<std::string> tombstones,
                   metadata_->ListTombstones());
  std::vector<Future<Status>> removals;
  removals.reserve(std::min(tombstones.size(), kGcRemovalWindow));
  for (const auto& object_id : tombstones) {
    (void)backend_->DeleteUnit(object_id);
    removals.push_back(metadata_->RemoveTombstoneAsync(object_id));
    if (removals.size() >= kGcRemovalWindow) {
      for (const auto& removal : removals) {
        removal.Join();
      }
      removals.clear();
    }
  }
  for (const auto& removal : removals) {
    removal.Join();
  }
  return OkStatus();
}

}  // namespace scfs
