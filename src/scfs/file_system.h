// ScfsFileSystem: the SCFS Agent (paper §2.3, §2.5) — the file system client
// that composes the metadata, storage and lock services into a POSIX-like
// file system with consistency-on-close semantics.
//
// Modes of operation (paper §3.1, Table 2):
//   kBlocking     close() returns after data reaches the cloud(s) and the
//                 metadata/lock updates complete (durability level 2/3);
//                 DepSky's cloud metadata is written behind the close.
//   kNonBlocking  close() returns once the file is durable on the local disk;
//                 upload, metadata update and unlock run in background, in
//                 that order, so mutual exclusion is preserved.
//   kNonSharing   no coordination service at all; all metadata lives in a
//                 Private Name Space object (an S3QL-like design, but capable
//                 of using a cloud-of-clouds backend).

#ifndef SCFS_SCFS_FILE_SYSTEM_H_
#define SCFS_SCFS_FILE_SYSTEM_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/coord/coordination_service.h"
#include "src/fsapi/file_system.h"
#include "src/scfs/background.h"
#include "src/scfs/blob_backend.h"
#include "src/scfs/lock_service.h"
#include "src/scfs/metadata.h"
#include "src/scfs/metadata_service.h"
#include "src/scfs/storage_service.h"

namespace scfs {

enum class ScfsMode { kBlocking, kNonBlocking, kNonSharing };

struct GcOptions {
  bool enabled = true;
  uint64_t written_bytes_threshold = 64ull * 1024 * 1024;  // W
  unsigned versions_to_keep = 2;                           // V
};

struct ScfsOptions {
  ScfsMode mode = ScfsMode::kBlocking;
  std::string user;
  // This user's canonical account id at each backend cloud, registered in the
  // coordination service so other clients can grant it access (§2.6).
  std::vector<CanonicalId> user_cloud_ids;
  VirtualDuration metadata_cache_ttl = FromMillis(500);
  bool use_pns = false;
  StorageServiceOptions storage;
  LockServiceOptions locks;
  GcOptions gc;
  // Lease-delegated caching (DESIGN.md): set by Deployment::Mount when the
  // deployment enables leases. A null manager or zero TTL disables both the
  // metadata read leases and the lock linger.
  LeaseManager* leases = nullptr;
  VirtualDuration lease_ttl = 0;
  size_t lease_max_prefixes = 16;
};

class ScfsFileSystem : public FileSystem {
 public:
  // `coord` must be null iff mode == kNonSharing.
  ScfsFileSystem(Environment* env, CoordinationService* coord,
                 BlobBackend* backend, ScfsOptions options);
  ~ScfsFileSystem() override;

  // Loads the PNS, locks it, and publishes this user's cloud account ids.
  Status Mount();
  // Drains background uploads and flushes the PNS.
  Status Unmount();

  // fsapi::FileSystem
  Result<FileHandle> Open(const std::string& path, uint32_t flags) override;
  Result<Bytes> Read(FileHandle handle, uint64_t offset, size_t size) override;
  Status Write(FileHandle handle, uint64_t offset, const Bytes& data) override;
  Status Truncate(FileHandle handle, uint64_t size) override;
  Status Fsync(FileHandle handle) override;
  Status Close(FileHandle handle) override;
  // Non-blocking mode: retires the handle immediately and returns a future
  // that completes at durability level 1 (local disk); the upload ->
  // metadata -> unlock chain continues in background, strictly in that
  // order. Blocking mode: the future completes at durability level 2/3.
  // Close() is CloseAsync().Get().
  Future<Status> CloseAsync(FileHandle handle) override;
  // Waits until every close issued so far is fully synchronized (uploads
  // done, metadata published, locks released, DepSky's cloud metadata
  // written).
  Status SyncBarrier() override;
  Status Mkdir(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  // For one metadata cache TTL after an open for reading returns, the open
  // file answers with the version it opened (the one Read returns), with no
  // metadata round; otherwise the metadata service answers.
  Result<FileStat> Stat(const std::string& path) override;
  Result<std::vector<DirEntry>> ReadDir(const std::string& path) override;
  Status SetFacl(const std::string& path, const std::string& user, bool read,
                 bool write) override;
  Result<std::vector<AclEntry>> GetFacl(const std::string& path) override;

  // Forces all queued uploads to complete (tests, experiments).
  void DrainBackground();
  // Runs one garbage-collection pass synchronously.
  Status RunGarbageCollection();

  MetadataService& metadata_service() { return *metadata_; }
  StorageService& storage_service() { return *storage_; }
  LockService& lock_service() { return *locks_; }
  BackgroundUploader& uploader() { return *uploader_; }
  const ScfsOptions& options() const { return options_; }

 private:
  struct OpenFile {
    FileMetadata metadata;
    // Locator of the version the open resolved (kept through a truncating
    // open): the predecessor of the version this handle's close writes.
    Bytes predecessor;
    Bytes data;
    bool write_mode = false;
    bool dirty = false;
    // A read handle answers Stat of its path for one metadata cache TTL
    // after `opened_at`, unless this agent itself changes the path first
    // (unlink, rename, a publishing close).
    VirtualTime opened_at = 0;
    bool answers_stat = true;
  };

  std::string NewObjectId();
  // `locked`: what the open's write lock read, or null for a read-only
  // open. A freshly taken lock resolves from the entry it read.
  // `parent_checked`: the outcome of a create's parent-directory check made
  // during the lock round, or null to check it here if the path is absent.
  Result<FileMetadata> ResolveForOpen(const std::string& path, uint32_t flags,
                                      const LockService::LockedRead* locked,
                                      const Status* parent_checked,
                                      bool* created);
  Status CheckParentDirectory(const std::string& path);
  // Unlink of a shared entry, starting from the copy `md` (DESIGN.md
  // "One-round unlink"). Returns the removed entry.
  Result<FileMetadata> UnlinkShared(const std::string& path, FileMetadata md);
  std::vector<BackendGrant> BuildGrants(const FileMetadata& metadata);
  Result<std::vector<CanonicalId>> LookupUserCloudIds(const std::string& user);
  Future<Status> SynchronizeOnCloseAsync(OpenFile&& file);
  // A close's publish of its shared entry, ending its hold on the file
  // lock (DESIGN.md "Publish-and-release"): the release rides the publish
  // when the close drops the last local reference and the lock does not
  // linger; otherwise the entry is published, pinned while the lock stays
  // held, and the reference released. Once the publish succeeded, starts
  // the write-behind (`finish`, if any) into *written_behind. Returns the
  // publish's status if it failed, else the release's.
  Status PublishAndRelease(
      const FileMetadata& md,
      const std::function<Future<Status>(std::optional<VirtualTime>)>& finish,
      Future<Status>* written_behind);
  // Blocks until every in-flight close chain publishing at `path` or below
  // it has completed. Namespace operations use this instead of a full
  // Drain(): the resurrection hazard they guard against is path-keyed, so
  // an unlink or rename must not barrier behind unrelated files' uploads.
  void WaitForCloseChains(const std::string& path);
  // Stops open read handles at or below `path` from answering Stat: this
  // agent changed the path, so the version they hold is no longer its view.
  // Requires fs_mu_.
  void StopOpenFileStats(const std::string& path);
  void MaybeTriggerGc(uint64_t written_bytes);
  Status GcCollectFile(const FileMetadata& metadata);

  Environment* env_;
  CoordinationService* coord_;
  ScfsOptions options_;

  std::unique_ptr<StorageService> storage_;
  std::unique_ptr<MetadataService> metadata_;
  std::unique_ptr<LockService> locks_;
  std::unique_ptr<BackgroundUploader> uploader_;
  std::unique_ptr<BackgroundUploader> gc_worker_;
  BlobBackend* backend_;

  std::mutex fs_mu_;  // open-file table + registry cache + close chains
  std::map<FileHandle, OpenFile> open_files_;
  std::atomic<uint64_t> next_handle_{1};
  std::map<std::string, std::vector<CanonicalId>> registry_cache_;
  Rng rng_;

  // Tails of the in-flight close chain per path: a re-opened file (the lock
  // service is re-entrant precisely to allow reopening while the previous
  // close is still uploading) must apply its path-keyed metadata updates in
  // close order, or a stale write could overwrite a newer one. Two tails:
  // `level1` (local flush + local metadata — the next close's stage 1 waits
  // only for this, a disk flush, never the previous cloud upload) and
  // `publish` (upload + coordination metadata + unlock — gates the next
  // stage 2, and the DepSky metadata written behind the close). Entries
  // are pruned when the chain completes; the generation counter guards
  // against pruning a newer chain that reused the path.
  struct CloseChainTails {
    uint64_t gen = 0;
    Future<Status> level1;
    Future<Status> publish;
  };
  std::map<std::string, CloseChainTails> close_chains_;
  uint64_t close_chain_gen_ = 0;
  // Tombstone writes of shared unlinks, queued behind their acks; a garbage
  // collection pass waits for them. Completed ones are pruned on insert.
  std::vector<Future<Status>> pending_tombstones_;

  std::atomic<uint64_t> bytes_written_since_gc_{0};
  bool mounted_ = false;
};

}  // namespace scfs

#endif  // SCFS_SCFS_FILE_SYSTEM_H_
