// The benchmark: sets up a stock deployment for one workload, runs
// the open-loop window, checks every read against what was written, and
// gathers the end-to-end and per-layer metrics.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/content.h"
#include "perfbench/src/tracing.h"
#include "perfbench/src/workload.h"
#include "src/scfs/deployment.h"

namespace perfbench {

// Named metrics in insertion order, each with its unit.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;

  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

struct RunOutcome {
  MetricSet metrics;
  uint64_t attempted = 0;  // ops issued by the arrival loop
  uint64_t failed = 0;     // ops that ended non-OK, plus drops
  // Correctness problems (wrong bytes read, lost acknowledged writes, ...).
  std::vector<std::string> problems;
  // Reasons this run cannot stand as a measurement (e.g. the arrival loop
  // fell behind its schedule).
  std::vector<std::string> flags;
  // Where each op-class median came from ("window" or "probe").
  std::map<std::string, std::string> sources;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, std::filesystem::path dir);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Deployment, mounts, fileset and priming: everything up to the first
  // timed arrival.
  scfs::Status Setup();

  // The timed window of `real_seconds`, then the post-window checks and
  // probes. With `trace`, agents are wrapped in TracingFileSystem, spans land
  // in `spans` (one log per worker) and the layer probes run.
  void Run(double real_seconds, bool trace, RunOutcome* out,
           std::vector<SpanLog>* spans);

 private:
  struct OpRecord;
  struct PendingOp;
  struct WorkerState;
  struct Counters;
  struct FileTrack;

  scfs::Result<std::unique_ptr<scfs::ScfsFileSystem>> MountAgent(
      const std::string& tag, scfs::ScfsMode mode);
  PendingOp MakeOp(uint64_t id, scfs::VirtualTime scheduled) const;
  void Execute(unsigned worker, scfs::FileSystem* fs, const PendingOp& op,
               OpRecord* rec, WorkerState* state);
  scfs::Status Append(unsigned worker, scfs::FileSystem* fs,
                      const PendingOp& op, OpRecord* rec, WorkerState* state);
  scfs::Result<scfs::FileHandle> OpenForWrite(scfs::FileSystem* fs,
                                              const std::string& path,
                                              uint32_t flags, uint64_t op,
                                              OpRecord* rec);
  void CheckRead(uint64_t file, const scfs::Bytes& data,
                 scfs::VirtualTime started, WorkerState* state);
  Counters Snapshot();
  void ProbeMissingClasses(RunOutcome* out);
  void FinalCheck(RunOutcome* out);
  void LayerProbes(RunOutcome* out);

  WorkloadSpec spec_;
  uint64_t seed_;
  std::filesystem::path dir_;
  Contents contents_;
  std::vector<std::string> fileset_;
  std::vector<double> zipf_cdf_;  // empty for uniform picks
  double mix_phase_ = 0;

  std::unique_ptr<scfs::Environment> env_;
  std::unique_ptr<scfs::Deployment> deployment_;
  std::vector<std::unique_ptr<scfs::ScfsFileSystem>> agents_;

  // Shared bookkeeping of what the benchmark wrote (write-shared).
  std::vector<std::unique_ptr<FileTrack>> tracks_;
  struct Created {
    std::string path;
    uint64_t op = 0;
  };
  std::mutex pool_mu_;
  std::vector<Created> pool_;                    // live, deletable
  std::vector<std::string> deleted_;             // acknowledged unlinks
  std::vector<std::vector<uint64_t>> log_ops_;   // records of each log
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
