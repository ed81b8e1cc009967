// Deployment: wires up a complete SCFS installation — the simulated storage
// clouds, the coordination service and per-user SCFS agents — for the two
// backends of the paper (Figure 5):
//
//   kAws  Amazon S3 as storage + DepSpace on one EC2 VM as coordination
//   kCoc  four storage clouds behind DepSky + DepSpace replicated with
//         BFT-SMaRt over four computing clouds (f = 1 byzantine)
//
// This is the top-level public API: examples and benchmarks create a
// Deployment, mount agents for users, and use the returned fsapi::FileSystem.

#ifndef SCFS_SCFS_DEPLOYMENT_H_
#define SCFS_SCFS_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/providers.h"
#include "src/coord/lease.h"
#include "src/coord/local_coordination.h"
#include "src/depsky/depsky.h"
#include "src/coord/partitioned_coordination.h"
#include "src/coord/smr.h"
#include "src/scfs/file_system.h"

namespace scfs {

enum class ScfsBackendKind { kAws, kCoc };

struct DeploymentOptions {
  ScfsBackendKind backend = ScfsBackendKind::kCoc;
  // Zero latency, zero consistency windows, single-replica coordination —
  // for semantic tests where timing is irrelevant.
  bool zero_latency = false;
  unsigned f = 1;
  // Coordination-plane partitions (kCoc only). 1 constructs the single
  // SmrCluster exactly as before — byte-identical behavior to the
  // unsharded deployment; N > 1 shards the tuple keys over N independent
  // SMR clusters behind PartitionedCoordination (metadata renames then use
  // the cross-partition intent-record protocol). Ignored for kAws and
  // zero-latency deployments, which run a single local server.
  unsigned coord_partitions = 1;
  // Ordering-pipeline bounds for the (replicated/partitioned) coordination
  // plane; 0 keeps the SmrConfig defaults. Real BFT deployments cap both
  // the consensus window and the per-instance batch (crypto budget), and
  // saturation experiments — the scenario engine's knee sweeps and the
  // hot-partition skew demo — need a finite per-partition capacity to push
  // against; the default deep pipeline never saturates at benchable client
  // counts. Ignored for kAws and zero-latency deployments.
  unsigned coord_max_batch = 0;
  unsigned coord_max_inflight_instances = 0;
  // Fixed one-way replica<->replica link latency override (0 keeps the
  // default ~10 ms wide-area model). With coord_max_inflight_instances=1
  // this pins the ordering capacity of a partition to
  // ~max_batch/(2*link) commands per second on the virtual clock —
  // independent of host CPU — which is what the scenario engine's
  // hot-partition skew demo pushes against. Ignored for kAws and
  // zero-latency deployments.
  VirtualDuration coord_replica_link_one_way = 0;
  // Elastic coordination plane (kCoc with coord_partitions > 1 only; see
  // DESIGN.md "Elastic partitioning" and OPERATIONS.md). Spare partitions
  // are extra SMR clusters owning no hash range — the split controller's
  // migration targets. coord_auto_split starts the load-aware controller:
  // every coord_split_window it folds windowed per-partition ops/s deltas
  // into EWMAs and splits the hot partition's range onto a spare once its
  // share exceeds coord_split_hot_share (manual Deployment::SplitPartition
  // and MergePartitions work either way). coord_merge_cold_share > 0
  // additionally merges a cooled partition back once the plane grew past
  // its initial size. Lease revocation on migrated keys is wired to the
  // deployment's LeaseManager automatically.
  unsigned coord_spare_partitions = 0;
  bool coord_auto_split = false;
  double coord_split_hot_share = 0.5;
  VirtualDuration coord_split_window = 2 * kSecond;
  double coord_split_min_total_ops_s = 1.0;
  double coord_merge_cold_share = 0.0;
  // Lease-delegated metadata caching (DESIGN.md "Lease-delegated caching",
  // OPERATIONS.md knobs). lease_ttl > 0 wraps the coordination service in
  // LeasedCoordination and hands every mounted agent read leases on
  // directory prefixes plus lingering write locks; 0 disables the layer
  // entirely (byte-identical behavior to a pre-lease deployment).
  VirtualDuration lease_ttl = 0;
  size_t lease_max_prefixes = 16;
  uint64_t seed = 42;
};

class Deployment {
 public:
  static std::unique_ptr<Deployment> Create(Environment* env,
                                            DeploymentOptions options);
  ~Deployment();

  // Creates, mounts and returns an SCFS agent for `user`. Fields of
  // `options` that identify the user/backend are filled in by Mount.
  Result<std::unique_ptr<ScfsFileSystem>> Mount(const std::string& user,
                                                ScfsOptions options);

  // Per-user canonical account ids, in cloud order.
  std::vector<CanonicalId> CloudIdsFor(const std::string& user) const;

  SimulatedCloud* cloud(unsigned index) { return clouds_[index].get(); }
  unsigned cloud_count() const { return static_cast<unsigned>(clouds_.size()); }
  // Per-mount DepSky clients (kCoc backends only, in mount order) — the
  // fault benches aggregate their self-healing telemetry.
  const std::vector<std::shared_ptr<DepSkyClient>>& depsky_clients() const {
    return depsky_clients_;
  }
  CoordinationService* coord() { return coord_.get(); }
  LocalCoordination* local_coord() { return local_coord_; }
  ReplicatedCoordination* replicated_coord() { return replicated_coord_; }
  PartitionedCoordination* partitioned_coord() { return partitioned_coord_; }
  // Always present; only consulted by agents when lease_ttl > 0. The chaos
  // plane's lease-expiry fault windows suspend grants through it.
  LeaseManager* lease_manager() { return &lease_manager_; }

  // Manual elastic repartitioning (coord_partitions > 1 only;
  // kNotSupported otherwise). Operators split a hot partition's range onto
  // a spare cluster or fold a cooled partition back without remounting;
  // the automatic controller uses exactly the same entry points.
  Status SplitPartition(unsigned src);
  Status MergePartitions(unsigned src, unsigned dst);

  // Bytes shipped from the coordination service to clients so far (drives
  // the coordination share of Figure 11(b) costs).
  uint64_t CoordReplyBytes() const;
  const DeploymentOptions& options() const { return options_; }
  Environment* env() { return env_; }

  // Aggregate usage cost (USD) across all clouds for one user.
  UsageTotals CloudUsage(const std::string& user) const;
  uint64_t StoredBytes(const std::string& user) const;

 private:
  Deployment() = default;

  Environment* env_ = nullptr;
  DeploymentOptions options_;
  std::vector<std::unique_ptr<SimulatedCloud>> clouds_;
  LeaseManager lease_manager_;
  std::unique_ptr<CoordinationService> coord_;
  LocalCoordination* local_coord_ = nullptr;  // set for kAws / zero-latency
  ReplicatedCoordination* replicated_coord_ = nullptr;  // kCoc, 1 partition
  PartitionedCoordination* partitioned_coord_ = nullptr;  // kCoc, N > 1
  // Backends must outlive the agents that use them.
  std::vector<std::unique_ptr<BlobBackend>> backends_;
  std::vector<std::shared_ptr<DepSkyClient>> depsky_clients_;
};

}  // namespace scfs

#endif  // SCFS_SCFS_DEPLOYMENT_H_
