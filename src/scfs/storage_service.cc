#include "src/scfs/storage_service.h"

#include <unistd.h>

#include <fstream>
#include <optional>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace scfs {

namespace {
std::string SanitizeForFilename(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    out.push_back((std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                   c == '-' || c == '.')
                      ? c
                      : '_');
  }
  return out;
}
}  // namespace

StorageService::StorageService(Environment* env, BlobBackend* backend,
                               StorageServiceOptions options)
    : env_(env),
      backend_(backend),
      options_(options),
      memory_(options.memory_cache_bytes,
              [](const Bytes& data) { return data.size(); },
              [this](const std::string& key, Bytes&& data) {
                SpillToDisk(key, std::move(data));
              }),
      disk_index_(options.disk_cache_bytes,
                  [](const uint64_t& size) { return size; },
                  [this](const std::string& key, uint64_t&&) {
                    std::error_code ec;
                    std::filesystem::remove(
                        disk_dir_ / SanitizeForFilename(key), ec);
                  }) {
  if (options_.disk_cache_dir.empty()) {
    // The process id keeps concurrent processes apart: GlobalRng has a
    // fixed seed, so every process draws the same sequence, and two of
    // them would share (and delete) one directory.
    disk_dir_ = std::filesystem::temp_directory_path() /
                ("scfs-cache-" + std::to_string(::getpid()) + "-" +
                 std::to_string(GlobalRng().NextU64() & 0xffffffffULL));
    owns_disk_dir_ = true;
  } else {
    disk_dir_ = options_.disk_cache_dir;
  }
  std::error_code ec;
  std::filesystem::create_directories(disk_dir_, ec);
}

StorageService::~StorageService() {
  if (owns_disk_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(disk_dir_, ec);
  }
}

std::filesystem::path StorageService::DiskPath(const std::string& id,
                                               const std::string& hash) const {
  return disk_dir_ / SanitizeForFilename(CacheKey(id, hash));
}

// Eviction callback from the memory cache: the disk becomes a cache
// extension, as in the paper's open() path.
void StorageService::SpillToDisk(const std::string& key, Bytes&& data) {
  // key is id:hash; recover the halves for the disk path.
  size_t sep = key.rfind(':');
  if (sep == std::string::npos) {
    return;
  }
  WriteToDisk(key.substr(0, sep), key.substr(sep + 1), data);
}

void StorageService::WriteToDisk(const std::string& id,
                                 const std::string& hash, ConstByteSpan data) {
  if (data.size() > disk_index_.budget()) {
    return;  // the index would refuse it: write no file at all
  }
  std::ofstream out(DiskPath(id, hash), std::ios::binary | std::ios::trunc);
  if (!out) {
    SCFS_LOG(Warning) << "disk cache write failed for " << id;
    return;
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.close();
  disk_index_.Put(CacheKey(id, hash), data.size());
}

Result<Bytes> StorageService::ReadFromDisk(const std::string& id,
                                           const std::string& hash,
                                           uint64_t size) {
  std::ifstream in(DiskPath(id, hash), std::ios::binary);
  if (!in) {
    return NotFoundError("disk cache entry vanished");
  }
  Bytes data(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  // Read without the lock: an eviction may unlink the file, and a flush of
  // the same version rewrite it, meanwhile. Every byte read is the
  // version's own (the name is content-addressed), so only a short read is
  // a miss.
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    return NotFoundError("disk cache entry changed under the read");
  }
  return data;
}

bool StorageService::HasLocal(const std::string& id, const std::string& hash) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = CacheKey(id, hash);
  return memory_.Contains(key) || disk_index_.Contains(key);
}

void StorageService::PutMemory(const std::string& id, const std::string& hash,
                               Bytes data) {
  std::lock_guard<std::mutex> lock(mu_);
  memory_.Put(CacheKey(id, hash), std::move(data));
}

Status StorageService::FlushToDisk(const std::string& id,
                                   const std::string& hash,
                                   ConstByteSpan data) {
  env_->Sleep(options_.disk_write_latency);
  std::lock_guard<std::mutex> lock(mu_);
  WriteToDisk(id, hash, data);
  return OkStatus();
}

Result<Bytes> StorageService::Fetch(const std::string& id,
                                    const std::string& hash,
                                    const Bytes& locator,
                                    const std::atomic<bool>* abandoned) {
  if (hash.empty()) {
    return Bytes{};  // a never-written file is empty
  }
  const std::string key = CacheKey(id, hash);
  // The caches are probed under the lock; a disk hit's file read and its
  // latency run outside it, as a flush's do, so the agent's other fetches,
  // puts and probes do not queue behind the disk.
  std::optional<uint64_t> on_disk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto hit = memory_.Get(key);
    if (hit.has_value()) {
      ++memory_hits_;
      return std::move(*hit);
    }
    on_disk = disk_index_.Get(key);
  }
  if (on_disk.has_value()) {
    auto from_disk = ReadFromDisk(id, hash, *on_disk);
    if (from_disk.ok()) {
      env_->Sleep(options_.disk_read_latency);
      std::lock_guard<std::mutex> lock(mu_);
      ++disk_hits_;
      memory_.Put(key, *from_disk);
      return from_disk;
    }
  }

  // Consistency-anchor read loop (Figure 3, r2): keep asking the eventually
  // consistent backend until the anchored version becomes visible.
  for (int attempt = 0; attempt < options_.max_read_retries; ++attempt) {
    auto data = backend_->ReadByHash(id, hash, locator);
    if (data.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++cloud_reads_;
      WriteToDisk(id, hash, *data);
      memory_.Put(key, *data);
      return data;
    }
    if (data.status().code() != ErrorCode::kNotFound ||
        (abandoned != nullptr && abandoned->load())) {
      return data.status();
    }
    VirtualDuration delay;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++read_retries_;
      delay = options_.read_backoff.Delay(attempt, retry_rng_);
    }
    env_->Sleep(delay);
  }
  return TimeoutError("version " + hash + " of " + id +
                      " never became visible");
}

Result<Bytes> StorageService::Push(const std::string& id,
                                   const std::string& hash, ConstByteSpan data,
                                   const std::vector<BackendGrant>& grants,
                                   const Bytes& predecessor,
                                   uint64_t anchored_version) {
  // Local disk first (cheap), then the cloud. A finished push gives
  // durability level 2 (single cloud) or 3 (cloud-of-clouds).
  RETURN_IF_ERROR(FlushToDisk(id, hash, data));
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_.Put(CacheKey(id, hash), CopyToBytes(data));
  }
  return backend_->WriteVersion(id, hash, data, grants, predecessor,
                                anchored_version);
}

}  // namespace scfs
