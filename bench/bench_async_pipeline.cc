// Async pipeline microbenchmark: quantifies the two wins of the Future-based
// storage redesign against the still-available synchronous paths.
//
//  1. Non-blocking close: a burst of dirty closes through CloseAsync overlaps
//     the level-1 disk flushes (and the whole upload pipeline), where the
//     blocking Close() pays each flush serially.
//  2. DepSky f=1 write/read: the async ObjectStore API fans shard PUTs and
//     metadata round trips out to all clouds and returns at the n-f quorum;
//     the sync path (default inline adapters, used by any backend that does
//     not override the async API) pays every cloud in sequence.
//
// Times are modelled virtual time charged to the calling thread — the same
// deterministic metric the Table 3 harness reports (elapsed real time at
// bench scale is dominated by unmodelled compute, so the charged wall time
// is what the overlap shows up in).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cloud/providers.h"
#include "src/cloud/simulated_cloud.h"
#include "src/common/executor.h"
#include "src/common/future.h"
#include "src/crypto/sha1.h"
#include "src/depsky/depsky.h"
#include "src/scfs/deployment.h"

namespace scfs {
namespace {

constexpr int kCloseBurst = 16;
constexpr size_t kFileSize = 64 * 1024;
constexpr int kDepSkyOps = 8;

// Forwards the blocking API and inherits the default inline async adapters:
// exactly what a provider that never implemented the async API looks like.
class SyncOnlyStore : public ObjectStore {
 public:
  explicit SyncOnlyStore(ObjectStore* inner) : inner_(inner) {}

  using ObjectStore::Put;
  Status Put(const CloudCredentials& creds, const std::string& key,
             std::shared_ptr<const Bytes> data) override {
    return inner_->Put(creds, key, std::move(data));
  }
  Result<Bytes> Get(const CloudCredentials& creds,
                    const std::string& key) override {
    return inner_->Get(creds, key);
  }
  Status Delete(const CloudCredentials& creds,
                const std::string& key) override {
    return inner_->Delete(creds, key);
  }
  Result<std::vector<ObjectInfo>> List(const CloudCredentials& creds,
                                       const std::string& prefix) override {
    return inner_->List(creds, prefix);
  }
  Status SetAcl(const CloudCredentials& creds, const std::string& key,
                const CanonicalId& grantee,
                ObjectPermissions permissions) override {
    return inner_->SetAcl(creds, key, grantee, permissions);
  }
  Result<ObjectAcl> GetAcl(const CloudCredentials& creds,
                           const std::string& key) override {
    return inner_->GetAcl(creds, key);
  }
  const std::string& provider_name() const override {
    return inner_->provider_name();
  }

 private:
  ObjectStore* inner_;
};

Bytes MakePayload(size_t size, uint8_t salt) {
  Bytes data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>((i * 31 + salt) & 0xff);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Part 1: non-blocking-mode close burst, sync vs async.
// ---------------------------------------------------------------------------

std::string FormatMs(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return std::string(buf);
}

std::string FormatSpeedup(double base, double improved) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fx", improved > 0 ? base / improved : 0.0);
  return std::string(buf);
}

void RunCloseBurst(Environment* env) {
  auto run = [&](bool use_async, double* charged_ms) {
    DeploymentOptions options;
    options.backend = ScfsBackendKind::kAws;
    auto deployment = Deployment::Create(env, options);
    ScfsOptions fs_options;
    fs_options.mode = ScfsMode::kNonBlocking;
    auto fs = deployment->Mount("u", fs_options);
    if (!fs.ok()) {
      *charged_ms = -1;
      return;
    }

    std::vector<FileHandle> handles;
    for (int i = 0; i < kCloseBurst; ++i) {
      auto fh = (*fs)->Open("/f" + std::to_string(i),
                            kOpenWrite | kOpenCreate);
      if (!fh.ok()) {
        *charged_ms = -1;
        return;
      }
      (void)(*fs)->Write(*fh, 0, MakePayload(kFileSize, static_cast<uint8_t>(i)));
      handles.push_back(*fh);
    }

    Environment::ResetThreadCharged();
    if (use_async) {
      std::vector<Future<Status>> closes;
      closes.reserve(handles.size());
      for (FileHandle fh : handles) {
        closes.push_back((*fs)->CloseAsync(fh));
      }
      (void)WhenAll<Status>(std::move(closes)).Get();
    } else {
      for (FileHandle fh : handles) {
        (void)(*fs)->Close(fh);
      }
    }
    *charged_ms = ToSeconds(Environment::ThreadCharged()) * 1e3;
    (void)(*fs)->SyncBarrier();
    (void)(*fs)->Unmount();
  };

  double sync_charged = 0;
  double async_charged = 0;
  run(false, &sync_charged);
  run(true, &async_charged);

  PrintHeader("Non-blocking close: burst of " + std::to_string(kCloseBurst) +
              " dirty closes (charged level-1 latency, ms)");
  std::vector<int> widths = {34, 14, 9};
  PrintRow({"path", "charged ms", "speedup"}, widths);
  PrintRow({"sync Close() x" + std::to_string(kCloseBurst),
            FormatMs(sync_charged), "1.0x"}, widths);
  PrintRow({"CloseAsync() + WhenAll", FormatMs(async_charged),
            FormatSpeedup(sync_charged, async_charged)}, widths);
}

// ---------------------------------------------------------------------------
// Part 2: DepSky f=1 write/read, sync ObjectStore API vs async fan-out.
// ---------------------------------------------------------------------------

void RunDepSky(Environment* env) {
  // The four storage clouds of the paper's CoC deployment, cheapest first,
  // with their distinct wide-area latencies — what makes quorum waits pay
  // off.
  const std::vector<CloudProfile> profiles = CocStorageProfiles();

  auto run = [&](bool use_async, double* write_ms, double* read_ms) {
    std::vector<std::unique_ptr<SimulatedCloud>> clouds;
    std::vector<std::unique_ptr<SyncOnlyStore>> wrappers;
    std::vector<DepSkyCloud> depsky_clouds;
    for (size_t i = 0; i < profiles.size(); ++i) {
      clouds.push_back(
          std::make_unique<SimulatedCloud>(profiles[i], env, 1000 + i));
      DepSkyCloud entry;
      if (use_async) {
        entry.store = clouds.back().get();
      } else {
        wrappers.push_back(
            std::make_unique<SyncOnlyStore>(clouds.back().get()));
        entry.store = wrappers.back().get();
      }
      entry.creds = CloudCredentials{"u"};
      depsky_clouds.push_back(entry);
    }
    DepSkyConfig config;
    config.f = 1;
    config.auth_key = ToBytes("bench-auth-key");
    DepSkyClient client(env, std::move(depsky_clouds), config, 77);

    VirtualDuration write_charged = 0;
    VirtualDuration read_charged = 0;
    for (int i = 0; i < kDepSkyOps; ++i) {
      Bytes payload = MakePayload(kFileSize, static_cast<uint8_t>(i));
      const std::string hash = HexEncode(Sha1::Hash(payload));
      Environment::ResetThreadCharged();
      auto written = client.WriteVersion("unit", hash, payload);
      write_charged += Environment::ThreadCharged();
      if (!written.ok()) {
        *write_ms = *read_ms = -1;
        return;
      }
      // Let the providers' eventual-consistency windows (up to ~1.35s) pass
      // so the fresh metadata is visible — SCFS's anchor read loop would
      // otherwise retry through them, obscuring the protocol latency.
      env->Sleep(2 * kSecond);
      Environment::ResetThreadCharged();
      auto read = client.ReadByHash("unit", hash);
      read_charged += Environment::ThreadCharged();
      if (!read.ok()) {
        *write_ms = *read_ms = -1;
        return;
      }
    }
    *write_ms = ToSeconds(write_charged) * 1e3 / kDepSkyOps;
    *read_ms = ToSeconds(read_charged) * 1e3 / kDepSkyOps;
  };

  double sync_write = 0, sync_read = 0, async_write = 0, async_read = 0;
  run(false, &sync_write, &sync_read);
  run(true, &async_write, &async_read);

  PrintHeader("DepSky f=1 (4 clouds, 64KB): per-op modelled latency (ms)");
  std::vector<int> widths = {34, 14, 14};
  PrintRow({"path", "write ms", "read ms"}, widths);
  char buf[64];
  auto fmt = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string(buf);
  };
  PrintRow({"sync ObjectStore API (serial)", fmt(sync_write), fmt(sync_read)},
           widths);
  PrintRow({"async fan-out + quorum waits", fmt(async_write), fmt(async_read)},
           widths);
  std::printf("  write speedup: %.1fx   read speedup: %.1fx\n",
              async_write > 0 ? sync_write / async_write : 0.0,
              async_read > 0 ? sync_read / async_read : 0.0);
}

void RunAll() {
  auto env = Environment::Scaled(BenchTimeScale());
  RunCloseBurst(env.get());
  RunDepSky(env.get());
  std::printf(
      "\nPaper shape check: CloseAsync burst charges ~one level-1 flush\n"
      "(close latency independent of burst size) vs. burst-size flushes for\n"
      "sync Close(); DepSky async write ~2-3x and read ~2-3x faster than the\n"
      "serial sync path, since quorum waits cost max-of-(n-f) cloud round\n"
      "trips instead of the sum over all n clouds.\n");
}

}  // namespace
}  // namespace scfs

int main() {
  scfs::RunAll();
  return 0;
}
