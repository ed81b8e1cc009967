// The benchmark's workloads. Each one is an open-loop mix of SCFS operations
// run against a stock Deployment (kCoc, f = 1, all defaults) with one mounted
// agent per worker thread. perfbench/README.md says why each one exists and
// what it is expected to move.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/scfs/file_system.h"

namespace perfbench {

// Operation classes, in the order their end-to-end medians are reported.
enum class OpClass { kRead = 0, kAppend, kCreate, kDelete };
constexpr size_t kOpClassCount = 4;
const char* OpClassName(OpClass op);

struct WorkloadSpec {
  std::string name;
  scfs::ScfsMode mode = scfs::ScfsMode::kNonBlocking;
  // Real seconds per virtual second for the whole run.
  double time_scale = 0.1;
  // Offered load in ops per virtual second (about half of what the worker
  // pool sustains at the workload's service time).
  double offered_ops_per_s = 10;
  // Share of each OpClass in the mix (sums to 1).
  std::array<double, kOpClassCount> mix{};
  // Fileset: files of file_size bytes created at setup; reads pick from it.
  uint64_t files = 128;
  size_t file_size = 16 * 1024;
  size_t append_size = 8 * 1024;
  // Zipf exponent of the reads' file choice (0 = uniform); appends always
  // pick uniformly.
  double zipf_theta = 0;
  // true: appends go to a fileset file every agent shares; false: each agent
  // appends to logs of its own.
  bool appends_to_fileset = false;
  // Every agent reads every fileset file once before timing starts.
  bool prime = false;
  // Files pre-created at setup for deletes to consume.
  uint64_t delete_pool = 0;
  // Ops per probe of an op class the mix does not issue (run one at a time
  // after the window; sized to take a few real seconds at time_scale).
  size_t probe_ops = 32;
  // Agent caches; 0 keeps the StorageServiceOptions defaults.
  size_t memory_cache_bytes = 0;
  size_t disk_cache_bytes = 0;
};

// Worker threads: one arrival thread plus the workers stay within four
// threads, whatever the host's core count, so runs on different hosts drive
// the same load.
constexpr unsigned kWorkers = 3;

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
