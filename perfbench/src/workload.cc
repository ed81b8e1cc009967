#include "perfbench/src/workload.h"

namespace perfbench {

const char* OpClassName(OpClass op) {
  switch (op) {
    case OpClass::kRead:
      return "read";
    case OpClass::kAppend:
      return "append";
    case OpClass::kCreate:
      return "create";
    case OpClass::kDelete:
      return "delete";
  }
  return "?";
}

namespace {

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> out;

  // Webserver mix over a fileset every agent holds in memory: a read is one
  // coordination fast read plus a memory-cache hit. Its ops are short, so
  // it runs at the coarsest scale: a host stall of a few real ms would
  // otherwise move the tail (fast-read fallbacks, appends) by tens of
  // virtual ms.
  WorkloadSpec hot;
  hot.name = "read-hot";
  hot.mode = scfs::ScfsMode::kNonBlocking;
  hot.time_scale = 0.25;
  hot.offered_ops_per_s = 16;
  hot.mix = {0.91, 0.09, 0, 0};
  hot.files = 64;
  hot.probe_ops = 24;
  hot.file_size = 16 * 1024;
  hot.append_size = 8 * 1024;
  hot.zipf_theta = 0.99;
  hot.prime = true;
  out.push_back(hot);

  // Uniform reads over a fileset 10x larger than the agents' combined
  // memory + disk caches: almost every read misses to DepSky.
  WorkloadSpec cold;
  cold.name = "read-cold";
  cold.mode = scfs::ScfsMode::kNonBlocking;
  cold.time_scale = 0.0375;
  cold.offered_ops_per_s = 1.7;
  cold.probe_ops = 64;
  cold.mix = {1, 0, 0, 0};
  cold.files = 256;
  cold.file_size = 64 * 1024;
  cold.memory_cache_bytes = 256 * 1024;
  // The disk cache's budget counts entries, not bytes (StorageService gives
  // its LRU index no size function): 4 entries of 64 KB. Read as bytes the
  // same setting disables the disk cache, so the miss share stays >= 90%
  // either way.
  cold.disk_cache_bytes = 4;
  out.push_back(cold);

  // Varmail mix with blocking agents and appends to files every agent
  // shares: each close is the full lock -> quorum PUT -> publish -> unlock.
  // The fileset is large enough that an agent seldom holds the current
  // version of the file it opens, so reads and appends fetch it from DepSky
  // (a near 50/50 mix of cached and fetched opens would let their medians
  // jump between the two modes from seed to seed).
  WorkloadSpec shared;
  shared.name = "write-shared";
  shared.mode = scfs::ScfsMode::kBlocking;
  shared.time_scale = 0.025;
  shared.offered_ops_per_s = 1.2;
  shared.mix = {0.25, 0.25, 0.25, 0.25};
  shared.files = 512;
  shared.file_size = 16 * 1024;
  shared.append_size = 8 * 1024;
  shared.appends_to_fileset = true;
  shared.delete_pool = 64;
  out.push_back(shared);

  return out;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = BuildWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace perfbench
