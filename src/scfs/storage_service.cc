#include "src/scfs/storage_service.h"

#include <fstream>

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
    disk_dir_ = std::filesystem::temp_directory_path() /
                ("scfs-cache-" +
                 std::to_string(GlobalRng().NextU64() & 0xffffffffULL));
    owns_disk_dir_ = true;
  } else {
    disk_dir_ = options_.disk_cache_dir;
  }
  std::error_code ec;
  std::filesystem::create_directories(disk_dir_, ec);
}

StorageService::~StorageService() {
  async_ops_.AwaitIdle();
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
  std::ofstream out(DiskPath(id, hash), std::ios::binary | std::ios::trunc);
  if (!out) {
    SCFS_LOG(Warning) << "disk cache write failed for " << id;
    return;
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.close();
  if (!disk_index_.Put(CacheKey(id, hash), data.size())) {
    // Larger than the whole disk budget: the index refused it, so the file
    // must not linger untracked.
    std::error_code ec;
    std::filesystem::remove(DiskPath(id, hash), ec);
  }
}

Result<Bytes> StorageService::ReadFromDisk(const std::string& id,
                                           const std::string& hash) {
  if (!disk_index_.Contains(CacheKey(id, hash))) {
    return NotFoundError("not in disk cache");
  }
  std::ifstream in(DiskPath(id, hash), std::ios::binary | std::ios::ate);
  if (!in) {
    disk_index_.Erase(CacheKey(id, hash));
    return NotFoundError("disk cache entry vanished");
  }
  std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
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
                                    const std::string& hash) {
  if (hash.empty()) {
    return Bytes{};  // a never-written file is empty
  }
  const std::string key = CacheKey(id, hash);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto hit = memory_.Get(key);
    if (hit.has_value()) {
      ++memory_hits_;
      return std::move(*hit);
    }
    auto from_disk = ReadFromDisk(id, hash);
    if (from_disk.ok()) {
      ++disk_hits_;
      memory_.Put(key, *from_disk);
      env_->Sleep(options_.disk_read_latency);
      return from_disk;
    }
  }

  // Consistency-anchor read loop (Figure 3, r2): keep asking the eventually
  // consistent backend until the anchored version becomes visible.
  for (int attempt = 0; attempt < options_.max_read_retries; ++attempt) {
    auto data = backend_->ReadByHash(id, hash);
    if (data.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++cloud_reads_;
      WriteToDisk(id, hash, *data);
      memory_.Put(key, *data);
      return data;
    }
    if (data.status().code() != ErrorCode::kNotFound) {
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

Status StorageService::Push(const std::string& id, const std::string& hash,
                            ConstByteSpan data,
                            const std::vector<BackendGrant>& grants) {
  // Local disk first (cheap), then the cloud. A completed Push gives
  // durability level 2 (single cloud) or 3 (cloud-of-clouds).
  RETURN_IF_ERROR(FlushToDisk(id, hash, data));
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_.Put(CacheKey(id, hash), CopyToBytes(data));
  }
  return backend_->WriteVersion(id, hash, data, grants);
}

Future<Status> StorageService::PushAsync(const std::string& id,
                                         const std::string& hash, Bytes data,
                                         std::vector<BackendGrant> grants) {
  return SubmitTracked(
      &async_ops_,
      [this, id, hash, data = std::move(data), grants = std::move(grants)] {
        return Push(id, hash, data, grants);
      });
}

Future<Result<Bytes>> StorageService::PrefetchAsync(const std::string& id,
                                                    const std::string& hash) {
  return SubmitTracked(&async_ops_,
                       [this, id, hash] { return Fetch(id, hash); });
}

}  // namespace scfs
