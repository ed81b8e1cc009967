// StorageService: the SCFS agent's local service for file data (paper
// §2.5.1), implementing the "always write / avoid reading" principle over two
// cache levels:
//
//   level 0  main-memory LRU of open/recent files (hundreds of MB),
//   level 1  local-disk LRU (GBs) — evictions from memory spill to disk,
//   level 2/3  the cloud backend (single cloud or cloud-of-clouds).
//
// Caches are content-addressed by (object id, anchor hash), so validation
// against the metadata service is a key comparison: a cached entry with the
// anchored hash *is* the current version. Reads resolve locally whenever the
// hash matches; writes always go to the cloud (uploads are free).
//
// A push returns the backend's locator for the version (BlobBackend::
// WriteVersion), which the caller anchors next to the hash; a fetch that
// misses both caches hands it back to the backend, so a cloud-of-clouds
// read goes straight to the shard holders.

#ifndef SCFS_SCFS_STORAGE_SERVICE_H_
#define SCFS_SCFS_STORAGE_SERVICE_H_

#include <atomic>
#include <filesystem>
#include <mutex>
#include <string>

#include "src/common/backoff.h"
#include "src/common/lru_cache.h"
#include "src/common/rng.h"
#include "src/scfs/blob_backend.h"
#include "src/sim/environment.h"

namespace scfs {

struct StorageServiceOptions {
  size_t memory_cache_bytes = 256ull * 1024 * 1024;
  size_t disk_cache_bytes = 4ull * 1024 * 1024 * 1024;  // file bytes on disk
  std::filesystem::path disk_cache_dir;  // empty => unique temp directory
  VirtualDuration disk_write_latency = FromMillis(5);  // 15K RPM SCSI-ish
  VirtualDuration disk_read_latency = FromMillis(2);
  // Consistency-anchor read loop: capped exponential backoff with jitter
  // between attempts (replaces the old fixed 100 ms delay). The cap keeps
  // the wait bounded once the consistency window is clearly being ridden
  // out; the jitter de-synchronizes agents re-reading the same anchor.
  BackoffPolicy read_backoff{FromMillis(25), FromMillis(1000), 2.0, 0.5};
  int max_read_retries = 100;
};

class StorageService {
 public:
  StorageService(Environment* env, BlobBackend* backend,
                 StorageServiceOptions options);
  ~StorageService();

  // Fetches the version `hash` of `id`: memory -> disk -> cloud (with the
  // consistency-anchor read loop, starting from the anchored `locator`;
  // empty locates the version by the hash alone). The result is cached at
  // both levels. Once `*abandoned` is set, the read loop makes no further
  // attempt (a prefetch its open no longer needs).
  Result<Bytes> Fetch(const std::string& id, const std::string& hash,
                      const Bytes& locator,
                      const std::atomic<bool>* abandoned = nullptr);

  // True if the version is available locally (memory or disk) — the paper's
  // "local file version compared with the metadata service" check reduces to
  // this because caches are content-addressed.
  bool HasLocal(const std::string& id, const std::string& hash);

  // Installs data into the memory cache only (durability level 0).
  void PutMemory(const std::string& id, const std::string& hash, Bytes data);

  // Flushes one version to the local disk cache (fsync — durability level 1).
  Status FlushToDisk(const std::string& id, const std::string& hash,
                     ConstByteSpan data);

  // Pushes to local disk, then to the cloud backend (BlobBackend::
  // WriteVersion, with the anchor's `predecessor` and `anchored_version`),
  // and returns the version's locator once the data is on the cloud(s) —
  // close in blocking mode, durability level 2/3. `data` is a borrowed
  // view; the only copy made here is the one the memory cache keeps.
  Result<Bytes> Push(const std::string& id, const std::string& hash,
                     ConstByteSpan data,
                     const std::vector<BackendGrant>& grants,
                     const Bytes& predecessor = {},
                     uint64_t anchored_version = 0);

  BlobBackend& backend() { return *backend_; }
  const std::filesystem::path& disk_dir() const { return disk_dir_; }

  // Counters for experiments.
  uint64_t memory_hits() const { return memory_hits_; }
  uint64_t disk_hits() const { return disk_hits_; }
  uint64_t cloud_reads() const { return cloud_reads_; }
  // Backend reads that had to loop on NOT_FOUND (consistency-anchor waits).
  uint64_t read_retries() const { return read_retries_; }

 private:
  std::string CacheKey(const std::string& id, const std::string& hash) const {
    return id + ":" + hash;
  }
  std::filesystem::path DiskPath(const std::string& id,
                                 const std::string& hash) const;
  void SpillToDisk(const std::string& key, Bytes&& data);
  // Reads the `size` bytes of a disk-cache entry. Needs no lock.
  Result<Bytes> ReadFromDisk(const std::string& id, const std::string& hash,
                             uint64_t size);
  void WriteToDisk(const std::string& id, const std::string& hash,
                   ConstByteSpan data);

  Environment* env_;
  BlobBackend* backend_;
  StorageServiceOptions options_;
  std::filesystem::path disk_dir_;
  bool owns_disk_dir_ = false;

  std::mutex mu_;
  LruCache<std::string, Bytes> memory_;
  LruCache<std::string, uint64_t> disk_index_;  // key -> size on disk (bytes)

  uint64_t memory_hits_ = 0;
  uint64_t disk_hits_ = 0;
  uint64_t cloud_reads_ = 0;
  uint64_t read_retries_ = 0;
  Rng retry_rng_{0x5cf5u};  // jitter only; fixed seed keeps runs replayable
};

}  // namespace scfs

#endif  // SCFS_SCFS_STORAGE_SERVICE_H_
