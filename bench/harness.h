// Shared benchmark harness: the FUSE-layer simulator, the Filebench-style
// workloads of Table 3, the file-synchronization trace of Figure 7,
// percentile statistics and table printing.

#ifndef SCFS_BENCH_HARNESS_H_
#define SCFS_BENCH_HARNESS_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/coord/smr.h"
#include "src/fsapi/file_system.h"
#include "src/sim/environment.h"

namespace scfs {

// Time scale used by all benchmarks: 1 virtual second = 0.2 real ms, unless
// overridden with the SCFS_TIME_SCALE environment variable. A set but
// non-numeric or non-positive SCFS_TIME_SCALE aborts the benchmark with an
// error instead of being silently ignored — a long sweep must not run at an
// unintended scale because of a typo in the override.
double BenchTimeScale();
// Same, with a benchmark-specific default scale (e.g. the coordination and
// scenario benches run coarser so host scheduling noise stays out of the
// virtual-time results).
double BenchTimeScale(double default_scale);

// ---------------------------------------------------------------------------
// FuseSim: models the FUSE crossing the paper's user-level file systems pay
// on every operation (the reason even memory-cache reads in Table 3 cost tens
// of microseconds). It also issues the getattr FUSE performs on every path
// resolution — the burst the short-term metadata cache absorbs (Figure 10a).
// ---------------------------------------------------------------------------

// Calibrated against Table 3's LocalFS column: 256k random 4KB reads ~11s,
// 256k random 4KB writes ~35s.
struct FuseCosts {
  VirtualDuration per_read = FromMillis(0.02);    // read crossing
  VirtualDuration per_write = FromMillis(0.07);   // write crossing
  VirtualDuration per_meta = FromMillis(0.05);    // open/close/stat crossing
  double read_mb_per_s = 170.0;  // copy-through-FUSE throughput
  double write_mb_per_s = 60.0;
  bool getattr_before_open = true;
  // getattr flurry after open: "opening a file with the vim editor can cause
  // more than five stat calls" (paper §2.5.1) — these are the bursts the
  // short-term metadata cache absorbs (Figure 10a).
  int getattr_burst_after_open = 3;
};

class FuseSim : public FileSystem {
 public:
  FuseSim(Environment* env, FileSystem* inner, FuseCosts costs = {})
      : env_(env), inner_(inner), costs_(costs) {}

  Result<FileHandle> Open(const std::string& path, uint32_t flags) override {
    env_->Sleep(costs_.per_meta);
    if (costs_.getattr_before_open) {
      (void)inner_->Stat(path);  // FUSE lookup/getattr on path resolution
    }
    auto handle = inner_->Open(path, flags);
    if (handle.ok()) {
      for (int i = 0; i < costs_.getattr_burst_after_open; ++i) {
        env_->Sleep(costs_.per_meta);
        (void)inner_->Stat(path);
      }
    }
    return handle;
  }
  Result<Bytes> Read(FileHandle h, uint64_t off, size_t n) override {
    auto data = inner_->Read(h, off, n);
    // Charge the bytes returned: a read to EOF asks for SIZE_MAX.
    env_->Sleep(costs_.per_read +
                Transfer(data.ok() ? data->size() : 0, costs_.read_mb_per_s));
    return data;
  }
  Status Write(FileHandle h, uint64_t off, const Bytes& data) override {
    env_->Sleep(costs_.per_write +
                Transfer(data.size(), costs_.write_mb_per_s));
    return inner_->Write(h, off, data);
  }
  Status Truncate(FileHandle h, uint64_t size) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Truncate(h, size);
  }
  Status Fsync(FileHandle h) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Fsync(h);
  }
  Status Close(FileHandle h) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Close(h);
  }
  Status Mkdir(const std::string& p) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Mkdir(p);
  }
  Status Rmdir(const std::string& p) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Rmdir(p);
  }
  Status Unlink(const std::string& p) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Unlink(p);
  }
  Status Rename(const std::string& a, const std::string& b) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Rename(a, b);
  }
  Result<FileStat> Stat(const std::string& p) override {
    env_->Sleep(costs_.per_meta);
    return inner_->Stat(p);
  }
  Result<std::vector<DirEntry>> ReadDir(const std::string& p) override {
    env_->Sleep(costs_.per_meta);
    return inner_->ReadDir(p);
  }
  Status SetFacl(const std::string& p, const std::string& u, bool r,
                 bool w) override {
    return inner_->SetFacl(p, u, r, w);
  }
  Result<std::vector<AclEntry>> GetFacl(const std::string& p) override {
    return inner_->GetFacl(p);
  }

 private:
  static VirtualDuration Transfer(size_t bytes, double mb_per_s) {
    if (mb_per_s <= 0) {
      return 0;
    }
    return static_cast<VirtualDuration>(
        static_cast<double>(bytes) / (mb_per_s * 1024.0 * 1024.0) * kSecond);
  }

  Environment* env_;
  FileSystem* inner_;
  FuseCosts costs_;
};

// ---------------------------------------------------------------------------
// Filebench-style micro-benchmarks (Table 3). IO-intensive workloads return
// the *charged* virtual time of the calling thread (open/close excluded, as
// in the paper); metadata-intensive workloads return elapsed virtual time.
// ---------------------------------------------------------------------------

struct MicroResult {
  double seconds = 0;
  bool ok = true;
};

// Sequential whole-file read/write of `file_size` bytes in 128 KB chunks.
MicroResult MicroSequentialRead(Environment* env, FileSystem* fs,
                                size_t file_size);
MicroResult MicroSequentialWrite(Environment* env, FileSystem* fs,
                                 size_t file_size);
// `ops` random 4KB reads/writes in a `file_size` file; the result is scaled
// to `report_ops` operations (the paper runs 256k).
MicroResult MicroRandomRead(Environment* env, FileSystem* fs, size_t file_size,
                            int ops, int report_ops);
MicroResult MicroRandomWrite(Environment* env, FileSystem* fs,
                             size_t file_size, int ops, int report_ops);
// Create `count` files of `size` bytes (open/create + write + close each).
MicroResult MicroCreateFiles(Environment* env, FileSystem* fs, int count,
                             size_t size, const std::string& dir = "/cr");
// Copy `count` pre-created files of `size` bytes.
MicroResult MicroCopyFiles(Environment* env, FileSystem* fs, int count,
                           size_t size);

// ---------------------------------------------------------------------------
// File-synchronization benchmark (Figure 7): the OpenOffice open/save/close
// trace. Lock files go to `lock_fs` — pass the same fs, or a LocalFs for the
// "(L)" variants.
// ---------------------------------------------------------------------------

struct FileSyncResult {
  double open_s = 0;
  double save_s = 0;
  double close_s = 0;
  bool ok = true;
};

FileSyncResult RunFileSyncBenchmark(Environment* env, FileSystem* fs,
                                    FileSystem* lock_fs, size_t file_size,
                                    int iterations);

// ---------------------------------------------------------------------------
// Machine-readable results. Benchmarks collect named metrics and write them
// as a JSON array (e.g. BENCH_codec.json) so successive PRs can track the
// perf trajectory without scraping stdout.
// ---------------------------------------------------------------------------

class BenchJsonWriter {
 public:
  void Add(const std::string& name, double value, const std::string& unit);

  std::string ToJson() const;
  // Writes ToJson() to `path`; returns false (and prints a warning) on I/O
  // failure.
  bool WriteFile(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Statistics and printing.
// ---------------------------------------------------------------------------

// Interpolated-rank percentile (linear interpolation between closest ranks,
// the numpy default): p in [0, 100]. Returns 0 on an empty sample — callers
// printing summary tables treat "no data" as zero rather than poisoning the
// output with NaN.
double Percentile(std::vector<double> values, double p);

// One-sort summary of a latency sample: mean plus the common percentiles.
// The single shared implementation for the closed-loop benches — the
// scenario engine's fixed-memory LatencyRecorder (bench/scenario) is the
// tool for open-loop sample counts.
struct LatencySummary {
  size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};
LatencySummary Summarize(std::vector<double> values);

// One-line coordination-plane counter report (ordered commands, instances,
// batch factor, fast-path reads, fallbacks), shared by the benches that
// drive the replicated coordination service.
void PrintCoordCounters(const std::string& label, const SmrCounters& counters);

// Folds a deployment's coordination counters into `into` (no-op for
// backends without a replicated coordination service).
class Deployment;
void AccumulateCoordCounters(Deployment* deployment, SmrCounters* into);

void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);
std::string FormatSeconds(double seconds);

}  // namespace scfs

#endif  // SCFS_BENCH_HARNESS_H_
