#include "bench/scenario/client_fleet.h"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "bench/harness.h"
#include "src/scfs/deployment.h"
#include "src/scfs/metadata.h"

namespace scfs {

namespace {

// Distinct stream ids for the fleet's internal RNG families, so the arrival
// process, the client-id draw and the per-client op streams never share
// state.
constexpr uint64_t kArrivalStream = 0x6172726976616cULL;   // "arrival"
constexpr uint64_t kClientPickStream = 0x636c69656e74ULL;  // "client"

Bytes PatternBytes(size_t size, uint8_t salt) {
  Bytes data(size);
  for (size_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>((i * 131 + salt) & 0xff);
  }
  return data;
}

}  // namespace

ClientFleet::ClientFleet(Environment* env, PersonalitySpec spec,
                         std::vector<FileSystem*> mounts,
                         Deployment* deployment)
    : env_(env),
      spec_(std::move(spec)),
      mounts_(std::move(mounts)),
      deployment_(deployment) {
  double cumulative = 0;
  for (size_t i = 0; i < kScenarioOpCount; ++i) {
    cumulative += spec_.mix[i];
    mix_cdf_[i] = cumulative;
  }
  file_data_ = PatternBytes(spec_.file_size, 1);
  io_data_ = PatternBytes(spec_.io_size, 2);
  append_data_ = PatternBytes(spec_.append_size, 3);
}

Status ClientFleet::Setup() {
  if (mounts_.empty()) {
    return InvalidArgumentError("fleet: no mounts");
  }
  if (spec_.mix_total() <= 0) {
    return InvalidArgumentError("fleet: personality '" + spec_.name +
                                "' has an empty op mix");
  }
  for (const char* dir : {"/scn", "/scn/files", "/scn/logs", "/scn/tmp"}) {
    Status status = mounts_[0]->Mkdir(dir);
    if (!status.ok() && status.code() != ErrorCode::kAlreadyExists) {
      return status;
    }
  }
  RETURN_IF_ERROR(SetupFileset());

  if (spec_.partition_skew) {
    file_sampler_ = std::make_unique<ZipfSampler>(group_start_.size() - 1,
                                                  spec_.zipf_theta);
  } else {
    file_sampler_ =
        std::make_unique<ZipfSampler>(fileset_.size(), spec_.zipf_theta);
  }
  return OkStatus();
}

Status ClientFleet::SetupFileset() {
  fileset_.clear();
  group_start_.clear();
  if (spec_.partition_skew) {
    RETURN_IF_ERROR(SetupPartitionSkewFileset());
  } else {
    fileset_.reserve(spec_.fileset_files);
    for (uint64_t i = 0; i < spec_.fileset_files; ++i) {
      fileset_.push_back("/scn/files/f" + std::to_string(i));
    }
  }

  // Parallel creation, one thread per mount, work-stealing over the set.
  std::atomic<size_t> next{0};
  std::vector<Status> statuses(mounts_.size(), OkStatus());
  std::vector<std::thread> threads;
  threads.reserve(mounts_.size());
  for (size_t m = 0; m < mounts_.size(); ++m) {
    threads.emplace_back([this, m, &next, &statuses] {
      size_t i;
      while ((i = next.fetch_add(1)) < fileset_.size()) {
        Status status = mounts_[m]->WriteFile(fileset_[i], file_data_);
        if (!status.ok() && statuses[m].ok()) {
          statuses[m] = status;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const Status& status : statuses) {
    RETURN_IF_ERROR(status);
  }
  for (FileSystem* mount : mounts_) {
    RETURN_IF_ERROR(mount->SyncBarrier());
  }
  return OkStatus();
}

Status ClientFleet::SetupPartitionSkewFileset() {
  PartitionedCoordination* coord =
      deployment_ != nullptr ? deployment_->partitioned_coord() : nullptr;
  if (coord == nullptr) {
    return FailedPreconditionError(
        "fleet: partition_skew needs a partitioned kCoc deployment");
  }
  const unsigned partitions = coord->partition_count();
  std::vector<size_t> quota(partitions, spec_.fileset_files / partitions);
  for (unsigned p = 0; p < spec_.fileset_files % partitions; ++p) {
    ++quota[p];
  }
  // Generate candidate names until every partition group is full. A file's
  // lock key routes with its metadata key (PartitionRoutingKey), so the
  // open-for-write lock round and the publish round of an append hit one
  // partition, making "hot partition" load attribution exact.
  std::vector<std::vector<std::string>> groups(partitions);
  uint64_t candidate = 0;
  // This cap is ~1000x the expected need, so hitting it means the router is
  // broken, not unlucky.
  const uint64_t cap = (spec_.fileset_files + 64) * partitions * 1000;
  size_t filled = 0;
  while (filled < spec_.fileset_files && candidate < cap) {
    std::string name = "/scn/files/s" + std::to_string(candidate++);
    const unsigned meta_part = coord->PartitionOf(MetadataKey(name));
    if (groups[meta_part].size() >= quota[meta_part]) {
      continue;
    }
    groups[meta_part].push_back(std::move(name));
    ++filled;
  }
  if (filled < spec_.fileset_files) {
    return InternalError("fleet: could not co-locate fileset keys");
  }
  // Group-major layout: Zipf rank r = partition r, so partition 0 is the
  // hot one under skew.
  group_start_.push_back(0);
  for (unsigned p = 0; p < partitions; ++p) {
    fileset_.insert(fileset_.end(), groups[p].begin(), groups[p].end());
    group_start_.push_back(fileset_.size());
  }
  return OkStatus();
}

ClientFleet::PendingOp ClientFleet::MakeOp(VirtualTime scheduled, Rng* rng) {
  PendingOp op;
  op.scheduled = scheduled;
  const double r = rng->UniformDouble() * mix_cdf_[kScenarioOpCount - 1];
  size_t pick = 0;
  while (pick + 1 < kScenarioOpCount && r >= mix_cdf_[pick]) {
    ++pick;
  }
  op.op = static_cast<ScenarioOp>(pick);

  auto pick_file = [&]() -> uint32_t {
    if (spec_.partition_skew) {
      const uint64_t group = file_sampler_->Sample(rng);
      const size_t begin = group_start_[group];
      const size_t size = group_start_[group + 1] - begin;
      return static_cast<uint32_t>(
          begin + (size > 0 ? rng->UniformU64(size) : 0));
    }
    return static_cast<uint32_t>(file_sampler_->Sample(rng));
  };

  switch (op.op) {
    case ScenarioOp::kWholeFileRead:
    case ScenarioOp::kStat:
      op.file = pick_file();
      break;
    case ScenarioOp::kBlockRead:
    case ScenarioOp::kBlockWrite: {
      op.file = pick_file();
      const uint64_t blocks =
          spec_.file_size > spec_.io_size ? spec_.file_size / spec_.io_size : 1;
      op.offset = rng->UniformU64(blocks) * spec_.io_size;
      break;
    }
    case ScenarioOp::kAppend:
      op.file = spec_.appends_to_fileset ? pick_file() : kNoFile;
      break;
    case ScenarioOp::kCreate:
      op.file = kNoFile;
      op.unique = create_seq_.fetch_add(1);
      break;
    case ScenarioOp::kDelete:
      op.file = kNoFile;
      break;
  }
  return op;
}

Status ClientFleet::DoAppend(FileSystem* fs, const std::string& path) {
  // Published size; a lost race with a concurrent appender overwrites its
  // tail, which is the usual shared-log approximation in a bench driver.
  uint64_t size = 0;
  auto stat = fs->Stat(path);
  if (stat.ok()) {
    size = stat->size;
  }
  ASSIGN_OR_RETURN(FileHandle handle,
                   fs->Open(path, kOpenWrite | kOpenCreate));
  Status write = fs->Write(handle, size, append_data_);
  Status close = fs->Close(handle);
  return write.ok() ? close : write;
}

Status ClientFleet::ExecuteOp(FileSystem* fs, unsigned worker,
                              const PendingOp& op) {
  switch (op.op) {
    case ScenarioOp::kWholeFileRead:
      return fs->ReadFile(fileset_[op.file]).status();
    case ScenarioOp::kBlockRead: {
      ASSIGN_OR_RETURN(FileHandle handle,
                       fs->Open(fileset_[op.file], kOpenRead));
      auto read = fs->Read(handle, op.offset, spec_.io_size);
      Status close = fs->Close(handle);
      return read.ok() ? close : read.status();
    }
    case ScenarioOp::kBlockWrite: {
      ASSIGN_OR_RETURN(FileHandle handle,
                       fs->Open(fileset_[op.file], kOpenWrite));
      Status write = fs->Write(handle, op.offset, io_data_);
      Status close = fs->Close(handle);
      return write.ok() ? close : write;
    }
    case ScenarioOp::kAppend: {
      const std::string path = op.file == kNoFile
                                   ? "/scn/logs/w" + std::to_string(worker)
                                   : fileset_[op.file];
      return DoAppend(fs, path);
    }
    case ScenarioOp::kCreate: {
      const std::string path = "/scn/tmp/c" + std::to_string(op.unique);
      RETURN_IF_ERROR(fs->WriteFile(path, file_data_));
      std::lock_guard<std::mutex> lock(pool_mu_);
      deletable_.push_back(path);
      return OkStatus();
    }
    case ScenarioOp::kDelete: {
      std::string path;
      {
        std::lock_guard<std::mutex> lock(pool_mu_);
        if (!deletable_.empty()) {
          path = std::move(deletable_.back());
          deletable_.pop_back();
        }
      }
      if (path.empty()) {
        // Nothing deletable yet: create-then-delete a scratch file so the
        // op still exercises the namespace path.
        path = "/scn/tmp/d" + std::to_string(create_seq_.fetch_add(1));
        RETURN_IF_ERROR(fs->WriteFile(path, append_data_));
      }
      return fs->Unlink(path);
    }
    case ScenarioOp::kStat:
      return fs->Stat(fileset_[op.file]).status();
  }
  return InternalError("fleet: unknown op");
}

void ClientFleet::WorkerLoop(unsigned worker, WorkerStats* stats) {
  FileSystem* fs = mounts_[worker % mounts_.size()];
  while (true) {
    PendingOp op;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (done_) {
          return;
        }
        continue;
      }
      op = queue_.front();
      queue_.pop_front();
      if (queue_.empty()) {
        queue_cv_.notify_all();  // wake the drain waiter
      }
    }
    const Status status = ExecuteOp(fs, worker, op);
    const VirtualTime now = env_->Now();
    const uint64_t latency_us =
        now > op.scheduled ? static_cast<uint64_t>(now - op.scheduled) : 0;
    const size_t idx = static_cast<size_t>(op.op);
    stats->latency.Record(latency_us);
    stats->per_op_latency[idx].Record(latency_us);
    ++stats->executed;
    if (!status.ok()) {
      ++stats->errors;
      ++stats->per_op_errors[idx];
    }
    if (timeline_bucket_ > 0 && op.scheduled >= run_start_) {
      const size_t bucket =
          static_cast<size_t>((op.scheduled - run_start_) / timeline_bucket_);
      std::lock_guard<std::mutex> lock(timeline_mu_);
      while (timeline_.size() <= bucket) {
        FleetTimelineBucket next;
        next.start =
            static_cast<VirtualDuration>(timeline_.size()) * timeline_bucket_;
        timeline_.push_back(std::move(next));
      }
      FleetTimelineBucket& slot = timeline_[bucket];
      ++slot.executed;
      if (!status.ok()) {
        ++slot.errors;
      }
      slot.latency.Record(latency_us);
    }
  }
}

FleetResult ClientFleet::Run(const FleetConfig& config) {
  FleetResult out;
  out.offered_ops_per_s = config.offered_ops_per_s;

  // Warmup, outside the measured *message* window (SMR counter baselines
  // are captured below): precreate the per-worker append logs so the first
  // append's create + lock acquisition doesn't land mid-run, and prime each
  // mount's metadata cache/lease state with a few fileset reads. The lease
  // counters' baseline is captured BEFORE the warmup — the grants that set
  // up the run's steady state are attributable to it (and prove the lease
  // plane engaged) even though their message cost is amortized out.
  LeaseCounters lease_before;
  if (deployment_ != nullptr) {
    lease_before = deployment_->lease_manager()->counters();
  }
  if (config.warmup_reads_per_mount > 0) {
    const double append_share =
        spec_.mix[static_cast<size_t>(ScenarioOp::kAppend)];
    if (append_share > 0 && !spec_.appends_to_fileset) {
      for (unsigned w = 0; w < config.workers; ++w) {
        (void)mounts_[w % mounts_.size()]->WriteFile(
            "/scn/logs/w" + std::to_string(w), append_data_);
      }
    }
    if (!fileset_.empty()) {
      for (FileSystem* mount : mounts_) {
        for (unsigned i = 0; i < config.warmup_reads_per_mount; ++i) {
          (void)mount->Stat(fileset_[i % fileset_.size()]);
        }
      }
    }
    for (FileSystem* mount : mounts_) {
      (void)mount->SyncBarrier();
    }
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.clear();
    done_ = false;
    max_backlog_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(timeline_mu_);
    timeline_.clear();
    timeline_bucket_ = config.timeline_bucket;
    run_start_ = env_->Now();
  }

  SmrCounters coord_before;
  PartitionLoadSnapshot snap_before;
  PartitionedCoordination* partitioned =
      deployment_ != nullptr ? deployment_->partitioned_coord() : nullptr;
  if (deployment_ != nullptr) {
    AccumulateCoordCounters(deployment_, &coord_before);
  }
  ElasticCounters elastic_before;
  if (partitioned != nullptr) {
    snap_before = partitioned->LoadSnapshot();
    elastic_before = partitioned->elastic_counters();
  }

  std::vector<WorkerStats> stats(config.workers);
  std::vector<std::thread> workers;
  workers.reserve(config.workers);
  for (unsigned w = 0; w < config.workers; ++w) {
    workers.emplace_back([this, w, &stats] { WorkerLoop(w, &stats[w]); });
  }

  const VirtualTime start = env_->Now();
  const VirtualTime arrivals_end = start + config.duration;
  OpenLoopArrivals arrivals(spec_.arrival, config.offered_ops_per_s, start,
                            MixSeed(config.seed, kArrivalStream));
  Rng client_pick = Rng::ForStream(config.seed, kClientPickStream);
  std::unordered_map<uint64_t, uint64_t> client_op_counter;

  while (true) {
    const VirtualTime due = arrivals.Next();
    if (due >= arrivals_end) {
      break;
    }
    const VirtualTime now = env_->Now();
    if (due > now) {
      env_->Sleep(due - now);
    }
    const uint64_t client = client_pick.UniformU64(config.clients);
    uint64_t& counter = client_op_counter[client];
    Rng op_rng(MixSeed(MixSeed(config.seed, client), counter++));
    const PendingOp op = MakeOp(due, &op_rng);
    ++out.issued;
    ++out.per_op_issued[static_cast<size_t>(op.op)];
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      queue_.push_back(op);
      max_backlog_ = std::max(max_backlog_, queue_.size());
    }
    queue_cv_.notify_one();
  }

  // Drain: give the backlog a bounded grace window, then drop the rest. In
  // instant mode virtual deadlines pass in zero real time, so wait for the
  // queue to empty instead (arrivals have stopped; the backlog is finite).
  if (env_->instant()) {
    std::unique_lock<std::mutex> lock(queue_mu_);
    queue_cv_.wait(lock, [this] { return queue_.empty(); });
  } else {
    const VirtualTime deadline = arrivals_end + config.drain_grace;
    while (env_->Now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (queue_.empty()) {
          break;
        }
      }
      env_->Sleep(FromMillis(20));
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    out.dropped = queue_.size();
    queue_.clear();
    done_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers) {
    worker.join();
  }

  out.duration_s = ToSeconds(env_->Now() - start);
  out.max_backlog = max_backlog_;
  out.touched_clients = client_op_counter.size();
  for (const WorkerStats& ws : stats) {
    out.latency.Merge(ws.latency);
    out.executed += ws.executed;
    out.errors += ws.errors;
    for (size_t i = 0; i < kScenarioOpCount; ++i) {
      out.per_op_latency[i].Merge(ws.per_op_latency[i]);
      out.per_op_errors[i] += ws.per_op_errors[i];
    }
  }
  const uint64_t successes = out.executed - out.errors;
  out.achieved_ops_per_s =
      out.duration_s > 0 ? static_cast<double>(successes) / out.duration_s : 0;
  {
    std::lock_guard<std::mutex> lock(timeline_mu_);
    out.run_start = run_start_;
    out.timeline_bucket = timeline_bucket_;
    out.timeline = std::move(timeline_);
    timeline_.clear();
  }

  if (deployment_ != nullptr) {
    SmrCounters coord_after;
    AccumulateCoordCounters(deployment_, &coord_after);
    coord_after -= coord_before;
    out.coord = coord_after;
    if (successes > 0) {
      out.coord_msgs_per_op =
          static_cast<double>(out.coord.total_messages()) / successes;
      out.coord_ordered_per_op =
          static_cast<double>(out.coord.ordered_commands) / successes;
      out.coord_fast_reads_per_op =
          static_cast<double>(out.coord.fast_path_reads) / successes;
    }
    const LeaseCounters lease_after = deployment_->lease_manager()->counters();
    out.lease.grants = lease_after.grants - lease_before.grants;
    out.lease.revocations = lease_after.revocations - lease_before.revocations;
    out.lease.notifications =
        lease_after.notifications - lease_before.notifications;
    out.lease.local_hits = lease_after.local_hits - lease_before.local_hits;
    out.lease.linger_handoffs =
        lease_after.linger_handoffs - lease_before.linger_handoffs;
    if (successes > 0) {
      out.lease_hit_share =
          static_cast<double>(out.lease.local_hits) / successes;
    }
  }
  if (partitioned != nullptr) {
    // Windowed deltas bracketing exactly this run (snap_before is taken
    // after warmup): the shared helper keeps the hot-share definition here
    // and in the split controller identical, and never lets cumulative
    // since-mount counters masquerade as current load.
    const PartitionLoadSnapshot snap_after = partitioned->LoadSnapshot();
    out.partition_ops_per_s = PartitionOpsPerSecond(snap_before, snap_after);
    out.hot_partition_share = PartitionHotShare(snap_before, snap_after);
    out.route_epoch_retries =
        partitioned->elastic_counters().route_epoch_retries -
        elastic_before.route_epoch_retries;
  }
  return out;
}

RateSweepResult RunRateSweep(ClientFleet* fleet, FleetConfig base,
                             const std::vector<double>& rates) {
  RateSweepResult out;
  for (double rate : rates) {
    FleetConfig config = base;
    config.offered_ops_per_s = rate;
    // Decorrelate runs: each rate point gets its own stream family.
    config.seed = MixSeed(base.seed, static_cast<uint64_t>(rate * 1000));
    FleetResult result = fleet->Run(config);
    // "Served" means the arrival queue stayed bounded: nothing dropped and
    // the backlog never exceeded a couple of service rounds. (A rate ratio
    // like achieved >= 0.9*offered would be distorted on a loaded host,
    // where real compute stretches the measured virtual window.)
    if (result.dropped == 0 &&
        result.max_backlog <= 2 * static_cast<size_t>(config.workers)) {
      out.knee_offered_ops_s = std::max(out.knee_offered_ops_s, rate);
    }
    out.saturation_ops_s =
        std::max(out.saturation_ops_s, result.achieved_ops_per_s);
    out.points.push_back(std::move(result));
  }
  return out;
}

}  // namespace scfs
