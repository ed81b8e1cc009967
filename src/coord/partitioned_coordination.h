// PartitionedCoordination: the sharded, *elastic* coordination plane. N
// independent SmrCluster partitions — each a full BFT-SMaRt-style pipeline
// with its own leader, batching, read fast path, checkpoints and state
// transfer — behind a versioned router that places every tuple key on
// exactly one partition by a stable hash. Ordered throughput then scales
// with the number of partitions instead of capping out at one consensus
// pipeline, while every single-key operation keeps exactly the semantics of
// the unsharded cluster:
//
//   * Elastic routing — an epoch-numbered RouteMap assigns contiguous
//     64-bit hash ranges to partitions (initially uniform over the active
//     partitions; spares own nothing). Clients learn the map lazily: every
//     command carries the epoch of the map its submitter routed with, and a
//     partition that no longer owns the command's key rejects it together
//     with the current map, so the client re-routes and retries
//     transparently (counted in ElasticCounters::route_epoch_retries).
//   * Per-key linearizability — a key lives on exactly one partition, so
//     single-key commands (metadata writes, consistency-anchor publishes,
//     the whole lock recipe) inherit the partition's total order unchanged.
//     There is NO cross-partition total order: commands on different keys
//     routed to different partitions are concurrent, exactly like the
//     commuting-commands contract SubmitAsync already imposes.
//   * Scatter-gather prefix operations — kReadPrefix, kExportPrefix and the
//     lease commands fan out to every partition concurrently (max-of-
//     children charge, like a DepSky quorum fan-out) and merge the
//     per-partition results sorted by key, deduplicated by key with the
//     range's current owner winning — mid-migration an entry legitimately
//     exists on both the source (until retirement) and the destination
//     (after import), and the merge must not double-count it.
//   * One intent engine (DESIGN.md "The intent engine") — every multi-key
//     move runs through one crash-recoverable function: select the source
//     entries, write a durable intent, import them idempotently, write a
//     commit marker, retire the sources and the records. Two kinds of move
//     share it. A range migration moves a hash range between partitions
//     with its keys unchanged: the load-aware controller splits a hot
//     partition onto a spare past a hot-share threshold, and cooled
//     partitions merge back. Mutations aimed into the migrating range
//     stall until the commit flips the map. A rename (kRenamePrefix with
//     more than one partition) moves every entry under a key prefix, on
//     whichever partitions they live, to the same suffix under a new
//     prefix; with one partition it stays the atomic trigger. Lease
//     revocations of the engine's commands reach holders through the
//     on_revocation hook before the engine moves on, and ReplayIntents()
//     rolls every crashed move forward. The engine's records live under the
//     reserved `__elastic:` keyspace, which only the admin principal may
//     address: the replay trusts what it finds there.
//   * Operations surface — StateDigest() combines the per-partition
//     order-quorum digests deterministically, sorted by partition index, so
//     operators can compare partitioned deployments across restarts exactly
//     like single-cluster ones; empty while any partition lacks quorum
//     backing.
//
// With N = 1 the router degenerates to a pass-through around one SmrCluster
// and behaves identically to ReplicatedCoordination (Deployment constructs
// ReplicatedCoordination directly in that case, keeping the single-cluster
// code path byte-identical to the unpartitioned deployment).

#ifndef SCFS_COORD_PARTITIONED_COORDINATION_H_
#define SCFS_COORD_PARTITIONED_COORDINATION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/executor.h"
#include "src/coord/smr.h"

namespace scfs {

// The stable routing hash: FNV-1a64 of PartitionRoutingKey(key) with a
// SplitMix64 avalanche finalizer (see the .cc for why raw FNV-1a is not
// enough). Pure function of the key — clients, replayed intents, restarted
// deployments and benchmark key generators all agree on it.
uint64_t PartitionRoutingHash(const std::string& key);

// One contiguous hash-range assignment: entry i of RouteMap::ranges covers
// [ranges[i].start, ranges[i+1].start), the last entry up to 2^64.
struct RouteRange {
  uint64_t start = 0;
  unsigned partition = 0;
};

// The epoch-numbered routing table. Epochs rise by exactly one per
// committed migration; clients cache a map snapshot and are corrected
// lazily (see "Elastic routing" above).
struct RouteMap {
  uint64_t epoch = 1;
  std::vector<RouteRange> ranges;  // sorted by start; ranges[0].start == 0

  unsigned PartitionForHash(uint64_t hash) const;
  // Uniform assignment of the hash space over partitions [0, active).
  static RouteMap Uniform(unsigned active);
};

struct PartitionedCoordinationConfig {
  unsigned partitions = 2;  // initially active (each owns a hash range)
  // Extra SmrClusters constructed with no assigned range: the split
  // controller's migration targets. A deployment with zero spares can still
  // merge, but never split.
  unsigned spare_partitions = 0;
  // Per-partition SMR geometry; every partition is configured identically.
  SmrConfig smr;

  // -- Load-aware split controller (DESIGN.md "Elastic partitioning") -----
  // Off by default: splits then happen only through SplitPartition().
  bool auto_split = false;
  // Sampling window for the controller's per-partition ops/s EWMAs. Load is
  // always judged on windowed deltas of SmrCounters — never on cumulative
  // counters, which would blend current load with all history since mount.
  VirtualDuration split_window = 2 * kSecond;
  // Split when the busiest partition's EWMA share of total ops/s exceeds
  // this and a spare partition is available.
  double split_hot_share = 0.5;
  // ...but only while the plane is doing real work: below this aggregate
  // ops/s the controller stays idle (an idle plane's share is noise).
  double split_min_total_ops_s = 1.0;
  // Auto-merge: when > 0 and more partitions are active than the initial
  // count, a partition whose EWMA share cooled below this is merged into
  // the next-coldest active partition, returning the spare. 0 disables
  // automatic merging (MergePartitions stays available).
  double merge_cold_share = 0.0;

  // Mutations aimed into a range that is mid-migration stall (the range is
  // write-frozen between prepare and commit); past this budget they fail
  // kUnavailable instead of waiting forever behind a wedged migration.
  VirtualDuration migration_stall_timeout = 120 * kSecond;
  VirtualDuration migration_stall_poll = 10 * kMillisecond;

  // The plane's one lease-revocation hook; the deployment wires it to
  // LeaseManager::NotifyRevocations. The intent engine runs its commands
  // below the LeasedCoordination decorator, so the piggybacked revocation
  // plumbing never sees them; instead the engine hands every command's
  // revocations to this hook before it moves on, and a migration's route
  // change adds one revocation per migrated key before the freeze lifts
  // (the no-stale-delegated-read rule). A move's concurrent commands may
  // call it from several threads at once.
  std::function<void(const std::vector<LeaseRevocation>&)> on_revocation;
};

// A timestamped per-partition counter snapshot: the introspection unit the
// load-aware split controller and the scenario engine's hot-partition
// accounting consume. Two snapshots of the same deployment bracket a
// window; PartitionOpsPerSecond turns the pair into per-partition service
// rates. Hot-share style judgements must always be made on such windowed
// deltas — a single (cumulative-since-mount) snapshot sees history, not
// current load.
struct PartitionLoadSnapshot {
  VirtualTime at = 0;
  std::vector<SmrCounters> per_partition;
};

// Per-partition completed operations per second (ordered commands plus
// fast-path reads) between two snapshots of the same deployment. Empty if
// the snapshots disagree on partition count or the window is empty.
std::vector<double> PartitionOpsPerSecond(const PartitionLoadSnapshot& before,
                                          const PartitionLoadSnapshot& after);

// The busiest partition's share of total ops in the window bracketed by the
// two snapshots (0 when the window saw no ops). The one true hot-share
// computation — windowed, never cumulative.
double PartitionHotShare(const PartitionLoadSnapshot& before,
                         const PartitionLoadSnapshot& after);

// Elastic-plane counters (all monotone except last_split_duration).
struct ElasticCounters {
  // Commands a partition rejected because the submitter routed them with a
  // stale map — each is one transparent client re-route + retry, the lazy
  // map distribution's visible cost.
  uint64_t route_epoch_retries = 0;
  // Mutations that stalled at least once against a write-frozen migrating
  // range (counted once per command, not per poll).
  uint64_t migration_stalls = 0;
  uint64_t splits = 0;          // committed range splits
  uint64_t merges = 0;          // committed range merges
  uint64_t keys_migrated = 0;   // entries moved across partitions
  // Wall (virtual) duration of the most recent committed migration,
  // selection through retirement, in microseconds of virtual time.
  uint64_t last_migration_us = 0;
};

class PartitionedCoordination : public CoordinationService {
 public:
  PartitionedCoordination(Environment* env,
                          PartitionedCoordinationConfig config,
                          uint64_t seed = 29);
  ~PartitionedCoordination();

  Result<CoordReply> Submit(const CoordCommand& command) override;
  Future<Result<CoordReply>> SubmitAsync(const CoordCommand& command) override;
  Bytes StateDigest() override;

  unsigned partition_count() const {
    return static_cast<unsigned>(partitions_.size());
  }
  // The partition the authoritative map routes `key` to.
  unsigned PartitionOf(const std::string& key) const;

  // -- Elastic repartitioning ---------------------------------------------

  // Splits `src`'s largest owned hash range at its midpoint onto a spare
  // partition (one owning no ranges), migrating the entries through the
  // intent engine. kBusy while another migration is in flight;
  // kUnavailable with no spare.
  Status SplitPartition(unsigned src);
  // Migrates every range owned by `src` onto `dst`, leaving `src` a spare.
  Status MergePartitions(unsigned src, unsigned dst);
  // Crash-recovery replay (Deployment::Mount runs it): scans every
  // partition for outstanding intents, migrations and renames alike, and
  // rolls each forward — re-import before the commit marker (imports are
  // idempotent), retire-only after it — so every entry moves exactly once.
  // Skips a move this process is still running. Returns the first failure;
  // a failed move keeps its intent for the next replay.
  Status ReplayIntents();

  // Authoritative map snapshot / epoch (operations surface).
  RouteMap route_map() const;
  uint64_t route_epoch() const;
  // Partitions currently owning at least one range.
  unsigned active_partition_count() const;
  ElasticCounters elastic_counters() const;

  // The controller's current per-partition ops/s EWMAs and the busiest
  // partition's share of their total — windowed load, not history. Empty /
  // zero until the controller (auto_split) has completed a window.
  std::vector<double> WindowedOpsPerSecond() const;
  double WindowedHotShare() const;

  // Test hook: abort the next move started in this process (a migration
  // or a rename) at a phase boundary, modeling a crash of the process
  // running it. The aborted move leaves its durable records (and a
  // migration's write freeze, unless the route change already lifted it)
  // in place for ReplayIntents.
  enum class MoveCrashPoint { kNone, kAfterPrepare, kMidImport, kAfterCommit,
                              kMidRetire };
  void set_move_crash_point(MoveCrashPoint point) { crash_point_ = point; }

  // Per-partition introspection and fault injection for tests/benchmarks.
  SmrCluster& cluster(unsigned partition) { return *partitions_[partition]; }
  // Aggregate protocol counters across all partitions.
  SmrCounters counters() const;
  // One partition's counters (ops and per-op message accounting).
  SmrCounters partition_counters(unsigned partition) const;
  // Timestamped per-partition counter snapshot; see PartitionLoadSnapshot.
  PartitionLoadSnapshot LoadSnapshot() const;
  uint64_t reply_bytes_out() const;

 private:
  // One move, as its durable intent records it. A migration moves the
  // half-open hash range [begin, end) from partition src to dst with its
  // keys unchanged; the merge flag attributes it to the right counter. A
  // rename (non-empty `from`) moves every entry under the key prefix `from`
  // to the same suffix under `to`, wherever the entries live, and runs its
  // data commands as `principal`; its src and dst only place its intent
  // and its commit marker.
  struct MoveSpec {
    uint64_t begin = 0;
    uint64_t end = 0;  // exclusive; 0 means "up to 2^64"
    unsigned src = 0;
    unsigned dst = 0;
    bool merge = false;
    std::string from;
    std::string to;
    std::string principal;

    bool is_rename() const { return !from.empty(); }
  };

  // Single-key commands: route with the submitter's cached map, enforce the
  // authoritative map at the partition boundary, retry on rejection.
  Result<CoordReply> RoutedExecute(const CoordCommand& command);
  // RoutedExecute's routing half: stalls while the key's range is frozen,
  // retries on rejection, and returns the partition that executes the
  // command (tagged with the route epoch it was sent under).
  Result<unsigned> Route(CoordCommand* command);
  // Fan a prefix command out to every partition, merge entries by key
  // (current owner wins on duplicates).
  Result<CoordReply> ScatterGather(const CoordCommand& command);
  // The lazily-updated per-principal map cache ("the client's copy").
  std::shared_ptr<const RouteMap> ClientRouteMap(const std::string& client);

  // Executes one command directly on a partition under the admin principal:
  // the engine's records and a migration's source export.
  Result<CoordReply> AdminExecute(unsigned partition, CoordOp op,
                                  const std::string& key, Bytes value = {});

  // -- The intent engine (DESIGN.md "The intent engine") --------------------

  // kRenamePrefix over more than one partition: a move of its prefix.
  Result<CoordReply> RenameAcrossPartitions(const CoordCommand& command);
  // Claims the move (and a migration's write freeze), runs it live or
  // resumes it from its records, then releases the claim. Returns the
  // number of entries moved. kBusy while this process runs the same move
  // or another migration holds the freeze.
  Result<size_t> Move(const MoveSpec& spec, bool resume);
  // Live: select the sources, prepare the intent, finish.
  Result<size_t> StartMove(const MoveSpec& spec);
  // Writes a fresh move's intent once its selection succeeded; a crashed
  // move's leftover with the same id shows up as kAlreadyExists.
  Status PrepareMove(const MoveSpec& spec,
                     const Result<std::vector<CoordEntryView>>& moved);
  // Replay: check that the intent is still `spec`'s, select what is left,
  // finish.
  Result<size_t> ResumeMove(const MoveSpec& spec);
  // Import, commit marker, a migration's route change, retire.
  Result<size_t> FinishMove(const MoveSpec& spec,
                            const std::vector<CoordEntryView>& moved,
                            bool committed, bool live, VirtualTime started);
  // The source entries still in place, with their export payloads: a
  // migration's slice of src in its range (records excluded), a rename's
  // scatter export of `from` as its principal.
  Result<std::vector<CoordEntryView>> SelectSource(const MoveSpec& spec);
  // Runs `op` (an import or a remove) for the first `count` entries
  // concurrently, one SmrCluster::ExecuteBatch per partition: distinct keys
  // commute. Every reply's revocations reach the on_revocation hook before
  // it returns. A remove tolerates kNotFound.
  Status RunDataCommands(const MoveSpec& spec, CoordOp op,
                         const std::vector<CoordEntryView>& entries,
                         size_t count);
  // One data command: a migration's as the admin, a rename's as its
  // principal with the new prefix substituted.
  static CoordCommand MoveCommand(const MoveSpec& spec, CoordOp op,
                                  const CoordEntryView& entry);
  // Removes the commit marker, then the intent (the replay trigger goes
  // last); a record already gone is fine.
  Status RetireRecords(const MoveSpec& spec);
  // Installs the post-migration map (epoch + 1), fires the revocation hook
  // for the moved keys and lifts the write freeze. Idempotent: the map is
  // left alone if the range already routes to dst (a replay after a crash
  // mid-retire).
  void CommitRouteChange(const MoveSpec& spec,
                         const std::vector<CoordEntryView>& moved);
  // Lifts the write freeze if `spec` holds it.
  void ReleaseFreeze(const MoveSpec& spec);
  // True once, at `point`, if the crash hook is armed for it.
  bool CrashAt(MoveCrashPoint point);

  void ControllerLoop();

  static std::string IntentKey(const MoveSpec& spec);
  static std::string CommitKey(const MoveSpec& spec);
  static Bytes EncodeSpec(const MoveSpec& spec);
  // False for a malformed payload or one naming a partition out of range.
  bool DecodeSpec(ConstByteSpan payload, MoveSpec* spec) const;
  static bool HashInRange(uint64_t hash, const MoveSpec& spec);
  // Same migration: range, source and destination.
  static bool SameRange(const MoveSpec& a, const MoveSpec& b);

  Environment* env_;
  PartitionedCoordinationConfig config_;
  std::vector<std::unique_ptr<SmrCluster>> partitions_;

  mutable std::mutex route_mu_;
  std::shared_ptr<const RouteMap> map_;  // authoritative (the servers' map)
  // Per-principal cached snapshots — the lazily-updated "client copies".
  std::map<std::string, std::shared_ptr<const RouteMap>> client_maps_;
  std::optional<MoveSpec> migrating_;  // also the write freeze
  std::set<std::string> running_;      // intent keys of the moves running here
  std::vector<double> windowed_ops_s_;  // controller EWMAs, by partition
  ElasticCounters elastic_;

  std::atomic<MoveCrashPoint> crash_point_{MoveCrashPoint::kNone};
  std::atomic<bool> controller_stop_{false};
  std::thread controller_;

  // Declared after partitions_: destroyed first, so in-flight async
  // submissions drain before any partition shuts down.
  InFlightTracker inflight_;
};

}  // namespace scfs

#endif  // SCFS_COORD_PARTITIONED_COORDINATION_H_
