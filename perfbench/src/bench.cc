#include "perfbench/src/bench.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <optional>
#include <thread>

#include "src/codec/reed_solomon.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/sim/arrivals.h"

namespace perfbench {

using scfs::Bytes;
using scfs::FileSystem;
using scfs::Status;
using scfs::VirtualTime;

namespace {

// Stream ids of the run seed's RNG families.
constexpr uint64_t kArrivalStream = 0x617272697661ULL;  // "arriva"
constexpr uint64_t kOpStream = 0x6f7073ULL;             // "ops"
constexpr uint64_t kPhaseStream = 0x7068617365ULL;      // "phase"
constexpr uint64_t kBackoffStream = 0x6261636bULL;      // "back"
// Op ids of content written outside the timed window (setup pool, probes).
constexpr uint64_t kPoolOpBase = 1ull << 30;
constexpr uint64_t kProbeOpBase = 1ull << 31;

constexpr const char* kUser = "bench";
constexpr unsigned kSetupThreads = 48;
// Samples per probe.
constexpr int kCoordProbeOps = 20;
constexpr int kDepSkyProbeOps = 6;
constexpr int kKernelProbeReps = 31;
// A writer that finds the file locked backs off and retries (each retry is
// one kBusy, counted in agent.busy_per_kop); after this many it fails.
constexpr int kMaxBusyRetries = 64;
constexpr scfs::VirtualDuration kBusyBackoff = scfs::FromMillis(100);
// Real seconds the backlog may drain after the arrival window closes.
constexpr double kDrainRealSeconds = 5.0;
// Reads must see every close acknowledged this long before they started:
// the agents' 500 ms metadata cache, the coordination read that filled it
// (up to a 600 ms fast-read timeout plus an ordered fallback) and a margin.
constexpr scfs::VirtualDuration kFreshnessSlack = 3 * scfs::kSecond;
// A run whose p99 arrival lateness exceeds this many mean inter-arrival
// gaps fell behind its schedule (a host stall delays single arrivals by a
// few real milliseconds, far less).
constexpr double kMaxLateGaps = 5;
constexpr double kGolden = 0.6180339887498949;

// Each agent appends to its own logs. With one log per agent, about half of
// the appends would find the previous append's background chain still
// holding the log's lock (a re-entrant, coordination-free open) and half
// would not, and the append median would jump between those two modes.
constexpr unsigned kLogsPerAgent = 4;

std::string LogPath(unsigned log) {
  return "/pb/logs/l" + std::to_string(log);
}

// Linear interpolation between closest ranks (numpy's default).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Runs body(index, thread) for every index in [0, n) on `threads` threads.
// Returns the first non-OK status any call returned.
Status ParallelFor(size_t n, unsigned threads,
                   const std::function<Status(size_t, unsigned)>& body) {
  std::atomic<size_t> next{0};
  std::mutex mu;
  Status first = scfs::OkStatus();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      size_t i;
      while ((i = next.fetch_add(1)) < n) {
        Status status = body(i, t);
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) {
            first = status;
          }
        }
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  return first;
}

template <typename Fn>
double MedianMicros(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  return Percentile(samples, 50);
}

const char* OpSpanName(OpClass op) {
  switch (op) {
    case OpClass::kRead:
      return "op.read";
    case OpClass::kAppend:
      return "op.append";
    case OpClass::kCreate:
      return "op.create";
    case OpClass::kDelete:
      return "op.delete";
  }
  return "op";
}

}  // namespace

// ---------------------------------------------------------------------------
// MetricSet

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = Entry{name, value, unit};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back(Entry{name, value, unit});
}

double MetricSet::Get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0 : entries_[it->second].value;
}

// ---------------------------------------------------------------------------
// Bench state

struct Bench::PendingOp {
  uint64_t id = 0;
  OpClass cls = OpClass::kRead;
  uint32_t file = 0;
  VirtualTime scheduled = 0;
  VirtualTime enqueued = 0;
};

struct Bench::OpRecord {
  OpClass cls = OpClass::kRead;
  bool ok = true;
  bool busy_failure = false;
  uint64_t busy_retries = 0;
  double latency_ms = 0;  // from scheduled arrival to completion
  double service_ms = 0;  // from dequeue to completion
  double charged_ms = 0;  // modelled time slept inside the op
  double queue_ms = 0;    // scheduled arrival to dequeue
  double late_ms = 0;     // scheduled arrival to enqueue
  int64_t cpu_ns = 0;
};

struct Bench::WorkerState {
  std::vector<OpRecord> records;
  std::vector<std::string> problems;
  int64_t cpu_ns = 0;
};

struct Bench::FileTrack {
  std::mutex mu;
  // Acknowledged appends: (virtual time the close returned, new length).
  std::vector<std::pair<VirtualTime, size_t>> acked;
  std::vector<uint64_t> acked_ops;
  size_t max_acked = 0;
};

struct Bench::Counters {
  uint64_t md_coord_reads = 0;
  uint64_t md_cache_hits = 0;
  uint64_t st_memory = 0;
  uint64_t st_disk = 0;
  uint64_t st_cloud = 0;
  uint64_t st_retries = 0;
  int64_t bg_charged_us = 0;
  scfs::SmrCounters smr;
  uint64_t coord_reply_bytes = 0;
  uint64_t ds_retries = 0;
  uint64_t ds_hedged = 0;
  uint64_t ds_deadline = 0;
  uint64_t ds_arena_hits = 0;
  uint64_t ds_arena_misses = 0;
  uint64_t breaker_trips = 0;
  scfs::UsageTotals usage;
};

Bench::Bench(const WorkloadSpec& spec, uint64_t seed,
             std::filesystem::path dir)
    : spec_(spec),
      seed_(seed),
      dir_(std::move(dir)),
      contents_(seed, spec.files, spec.file_size, spec.append_size) {
  for (uint64_t i = 0; i < spec_.files; ++i) {
    fileset_.push_back("/pb/files/f" + std::to_string(i));
    tracks_.push_back(std::make_unique<FileTrack>());
  }
  if (spec_.zipf_theta > 0) {
    double total = 0;
    for (uint64_t r = 0; r < spec_.files; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec_.zipf_theta);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) {
      c /= total;
    }
  }
  mix_phase_ = scfs::Rng::ForStream(seed_, kPhaseStream).UniformDouble();
  log_ops_.resize(kWorkers * kLogsPerAgent);
  env_ = scfs::Environment::Scaled(spec_.time_scale);
}

Bench::~Bench() {
  agents_.clear();  // unmount: drains every agent's background pipeline
  deployment_.reset();
  env_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

scfs::Result<std::unique_ptr<scfs::ScfsFileSystem>> Bench::MountAgent(
    const std::string& tag, scfs::ScfsMode mode) {
  scfs::ScfsOptions options;
  options.mode = mode;
  if (spec_.memory_cache_bytes > 0) {
    options.storage.memory_cache_bytes = spec_.memory_cache_bytes;
  }
  if (spec_.disk_cache_bytes > 0) {
    options.storage.disk_cache_bytes = spec_.disk_cache_bytes;
  }
  // Keep the disk cache inside the benchmark's own directory.
  options.storage.disk_cache_dir = dir_ / tag;
  std::error_code ec;
  std::filesystem::create_directories(options.storage.disk_cache_dir, ec);
  if (ec) {
    return scfs::InternalError("cannot create " +
                               options.storage.disk_cache_dir.string());
  }
  return deployment_->Mount(kUser, options);
}

Status Bench::Setup() {
  deployment_ = scfs::Deployment::Create(env_.get(), scfs::DeploymentOptions{});
  {
    // The fileset is written by an agent of its own, so the workers start
    // without cached copies (priming, where the workload asks for it, warms
    // them explicitly).
    ASSIGN_OR_RETURN(auto loader, MountAgent("setup", scfs::ScfsMode::kBlocking));
    for (const char* dir : {"/pb", "/pb/files", "/pb/logs", "/pb/tmp",
                            "/pb/probe"}) {
      RETURN_IF_ERROR(loader->Mkdir(dir));
    }
    RETURN_IF_ERROR(ParallelFor(
        spec_.files, kSetupThreads, [&](size_t i, unsigned) {
          return loader->WriteFile(fileset_[i], contents_.Base(i));
        }));
    pool_.resize(spec_.delete_pool);
    RETURN_IF_ERROR(ParallelFor(
        spec_.delete_pool, kSetupThreads, [&](size_t i, unsigned) {
          pool_[i] = Created{"/pb/tmp/p" + std::to_string(i), kPoolOpBase + i};
          return loader->WriteFile(pool_[i].path,
                                   contents_.Created(pool_[i].op));
        }));
  }
  for (unsigned w = 0; w < kWorkers; ++w) {
    ASSIGN_OR_RETURN(auto agent,
                     MountAgent("agent" + std::to_string(w), spec_.mode));
    agents_.push_back(std::move(agent));
  }
  if (spec_.mix[static_cast<size_t>(OpClass::kAppend)] > 0 &&
      !spec_.appends_to_fileset) {
    for (unsigned log = 0; log < kWorkers * kLogsPerAgent; ++log) {
      RETURN_IF_ERROR(
          agents_[log / kLogsPerAgent]->WriteFile(LogPath(log), Bytes{}));
    }
  }
  for (auto& agent : agents_) {
    RETURN_IF_ERROR(agent->SyncBarrier());
  }
  if (spec_.prime) {
    // Every agent reads every file once, so timed reads start warm.
    RETURN_IF_ERROR(ParallelFor(
        spec_.files * kWorkers, kSetupThreads, [this](size_t j, unsigned) {
          const size_t file = j / kWorkers;
          ASSIGN_OR_RETURN(Bytes data,
                           agents_[j % kWorkers]->ReadFile(fileset_[file]));
          if (data != contents_.Base(file)) {
            return scfs::CorruptionError("priming read of " +
                                         fileset_[file] + " returned wrong bytes");
          }
          return scfs::OkStatus();
        }));
  }
  return scfs::OkStatus();
}

Bench::PendingOp Bench::MakeOp(uint64_t id, VirtualTime scheduled) const {
  PendingOp op;
  op.id = id;
  op.scheduled = scheduled;
  // Op classes follow a seeded low-discrepancy sequence, so each class's
  // share of a run matches the mix closely on every seed (a per-op coin flip
  // would let the append share, and with it the cost per op, drift).
  const double u = std::fmod(mix_phase_ + static_cast<double>(id) * kGolden,
                             1.0);
  double cumulative = 0;
  for (size_t c = 0; c < kOpClassCount; ++c) {
    if (spec_.mix[c] <= 0) {
      continue;
    }
    op.cls = static_cast<OpClass>(c);
    cumulative += spec_.mix[c];
    if (u < cumulative) {
      break;
    }
  }
  scfs::Rng rng(scfs::MixSeed(scfs::MixSeed(seed_, kOpStream), id));
  // Popularity skew applies to reads; appends pick their file uniformly.
  if (zipf_cdf_.empty() || op.cls != OpClass::kRead) {
    op.file = static_cast<uint32_t>(rng.UniformU64(spec_.files));
  } else {
    const double v = rng.UniformDouble();
    op.file = static_cast<uint32_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), v) -
        zipf_cdf_.begin());
    op.file = std::min<uint32_t>(op.file, spec_.files - 1);
  }
  return op;
}

void Bench::CheckRead(uint64_t file, const Bytes& data, VirtualTime started,
                      WorkerState* state) {
  if (!spec_.appends_to_fileset) {
    if (data != contents_.Base(file)) {
      state->problems.push_back("read of " + fileset_[file] +
                                " returned wrong bytes");
    }
    return;
  }
  std::vector<uint64_t> ops;
  if (!contents_.Verify(file, data, &ops)) {
    state->problems.push_back("read of " + fileset_[file] +
                              " is not a version the benchmark wrote");
    return;
  }
  // Consistency-on-close: an open sees every close acknowledged before it
  // (give or take the metadata cache window).
  size_t must_see = contents_.file_size();
  FileTrack& track = *tracks_[file];
  std::lock_guard<std::mutex> lock(track.mu);
  for (const auto& [acked_at, length] : track.acked) {
    if (acked_at + kFreshnessSlack <= started) {
      must_see = std::max(must_see, length);
    }
  }
  if (data.size() < must_see) {
    state->problems.push_back(
        "read of " + fileset_[file] + " returned " +
        std::to_string(data.size()) + " bytes, older than the " +
        std::to_string(must_see) + " acknowledged before it started");
  }
}

scfs::Result<scfs::FileHandle> Bench::OpenForWrite(FileSystem* fs,
                                                   const std::string& path,
                                                   uint32_t flags, uint64_t op,
                                                   OpRecord* rec) {
  scfs::Rng rng(scfs::MixSeed(scfs::MixSeed(seed_, kBackoffStream), op));
  for (int attempt = 0;; ++attempt) {
    auto handle = fs->Open(path, flags);
    if (handle.ok() || handle.status().code() != scfs::ErrorCode::kBusy ||
        attempt == kMaxBusyRetries) {
      if (!handle.ok() && handle.status().code() == scfs::ErrorCode::kBusy) {
        rec->busy_failure = true;
      }
      return handle;
    }
    ++rec->busy_retries;
    env_->Sleep(kBusyBackoff / 2 +
                static_cast<scfs::VirtualDuration>(rng.UniformU64(kBusyBackoff)));
  }
}

Status Bench::Append(unsigned worker, FileSystem* fs, const PendingOp& op,
                     OpRecord* rec, WorkerState* state) {
  const bool shared = spec_.appends_to_fileset;
  const unsigned log = worker * kLogsPerAgent + op.file % kLogsPerAgent;
  const std::string path = shared ? fileset_[op.file] : LogPath(log);
  const uint64_t record_file = shared ? op.file : spec_.files + log;
  (void)fs->Stat(path);
  ASSIGN_OR_RETURN(scfs::FileHandle handle,
                   OpenForWrite(fs, path, scfs::kOpenWrite, op.id, rec));
  // Append at the end of the version the open returned (the size is read
  // from the open file, so the record lands after every record it holds).
  auto current = fs->Read(handle, 0, SIZE_MAX);
  if (!current.ok()) {
    (void)fs->Close(handle);
    return current.status();
  }
  const size_t base = shared ? contents_.file_size() : 0;
  if (shared) {
    std::vector<uint64_t> ops;
    if (!contents_.Verify(op.file, *current, &ops)) {
      state->problems.push_back("open-for-write of " + path +
                                " is not a version the benchmark wrote");
    }
  }
  const uint64_t index = (current->size() - base) / contents_.append_size();
  Status write = fs->Write(handle, current->size(),
                           contents_.Record(record_file, index, op.id));
  Status close = fs->Close(handle);
  RETURN_IF_ERROR(write);
  RETURN_IF_ERROR(close);
  const size_t length = current->size() + contents_.append_size();
  if (shared) {
    FileTrack& track = *tracks_[op.file];
    std::lock_guard<std::mutex> lock(track.mu);
    track.acked.emplace_back(env_->Now(), length);
    track.acked_ops.push_back(op.id);
    track.max_acked = std::max(track.max_acked, length);
  } else {
    log_ops_[log].push_back(op.id);
  }
  return scfs::OkStatus();
}

void Bench::Execute(unsigned worker, FileSystem* fs, const PendingOp& op,
                    OpRecord* rec, WorkerState* state) {
  Status status = scfs::OkStatus();
  switch (op.cls) {
    case OpClass::kRead: {
      const VirtualTime started = env_->Now();
      auto data = fs->ReadFile(fileset_[op.file]);
      status = data.status();
      if (data.ok()) {
        CheckRead(op.file, *data, started, state);
      }
      break;
    }
    case OpClass::kAppend:
      status = Append(worker, fs, op, rec, state);
      break;
    case OpClass::kCreate: {
      const std::string path = "/pb/tmp/c" + std::to_string(op.id);
      status = fs->WriteFile(path, contents_.Created(op.id));
      if (status.ok()) {
        std::lock_guard<std::mutex> lock(pool_mu_);
        pool_.push_back(Created{path, op.id});
      }
      break;
    }
    case OpClass::kDelete: {
      std::optional<Created> victim;
      {
        std::lock_guard<std::mutex> lock(pool_mu_);
        if (!pool_.empty()) {
          victim = pool_.front();
          pool_.erase(pool_.begin());
        }
      }
      if (!victim) {
        state->problems.push_back("delete found no file to remove");
        status = scfs::FailedPreconditionError("empty delete pool");
        break;
      }
      status = fs->Unlink(victim->path);
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (status.ok()) {
        deleted_.push_back(victim->path);
      } else {
        pool_.push_back(*victim);
      }
      break;
    }
  }
  rec->ok = status.ok();
}

Bench::Counters Bench::Snapshot() {
  Counters c;
  for (unsigned w = 0; w < kWorkers; ++w) {
    scfs::ScfsFileSystem& agent = *agents_[w];
    c.md_coord_reads += agent.metadata_service().coord_reads();
    c.md_cache_hits += agent.metadata_service().cache_hits();
    c.st_memory += agent.storage_service().memory_hits();
    c.st_disk += agent.storage_service().disk_hits();
    c.st_cloud += agent.storage_service().cloud_reads();
    c.st_retries += agent.storage_service().read_retries();
    c.bg_charged_us += agent.uploader().total_charged();
  }
  if (deployment_->replicated_coord() != nullptr) {
    c.smr = deployment_->replicated_coord()->cluster().counters();
  }
  c.coord_reply_bytes = deployment_->CoordReplyBytes();
  for (const auto& client : deployment_->depsky_clients()) {
    c.ds_retries += client->retries();
    c.ds_hedged += client->hedged_reads();
    c.ds_deadline += client->deadline_expiries();
    c.ds_arena_hits += client->arena_pool_hits();
    c.ds_arena_misses += client->arena_pool_misses();
    c.breaker_trips += client->health().breaker_trips();
  }
  c.usage = deployment_->CloudUsage(kUser);
  return c;
}

void Bench::Run(double real_seconds, bool trace, RunOutcome* out,
                std::vector<SpanLog>* spans) {
  std::vector<FileSystem*> views;
  std::vector<std::unique_ptr<TracingFileSystem>> tracers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    if (trace) {
      tracers.push_back(
          std::make_unique<TracingFileSystem>(env_.get(), agents_[w].get()));
      views.push_back(tracers.back().get());
    } else {
      views.push_back(agents_[w].get());
    }
  }
  spans->assign(trace ? kWorkers : 0, SpanLog());

  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<PendingOp> queue;
  size_t in_flight = 0;
  bool done = false;
  std::vector<WorkerState> states(kWorkers);

  const Counters before = Snapshot();
  const int64_t process_cpu0 = ProcessCpuNs();

  auto worker_loop = [&](unsigned w) {
    WorkerState& state = states[w];
    while (true) {
      PendingOp op;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) {
          return;
        }
        op = queue.front();
        queue.pop_front();
        ++in_flight;
      }
      OpRecord rec;
      rec.cls = op.cls;
      const VirtualTime start = env_->Now();
      scfs::Environment::ResetThreadCharged();
      const int64_t cpu0 = ThreadCpuNs();
      if (trace) {
        BindSpanLog(&(*spans)[w], op.id);
      }
      Execute(w, views[w], op, &rec, &state);
      const VirtualTime end = env_->Now();
      const int64_t cpu1 = ThreadCpuNs();
      const scfs::VirtualDuration charged =
          scfs::Environment::ThreadCharged();
      if (trace) {
        BindSpanLog(nullptr, 0);
        SpanLog& log = (*spans)[w];
        log.Add(Span{op.id, "queue", op.scheduled, start, 0, 0, true});
        log.Add(Span{op.id, OpSpanName(op.cls), start, end, charged,
                     cpu1 - cpu0, rec.ok});
      }
      rec.latency_ms = static_cast<double>(end - op.scheduled) / 1e3;
      rec.service_ms = static_cast<double>(end - start) / 1e3;
      rec.charged_ms = static_cast<double>(charged) / 1e3;
      rec.queue_ms = static_cast<double>(start - op.scheduled) / 1e3;
      rec.late_ms = static_cast<double>(op.enqueued - op.scheduled) / 1e3;
      rec.cpu_ns = cpu1 - cpu0;
      state.cpu_ns += rec.cpu_ns;
      state.records.push_back(rec);
      std::lock_guard<std::mutex> lock(queue_mu);
      --in_flight;
      if (queue.empty() && in_flight == 0) {
        queue_cv.notify_all();
      }
    }
  };
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back(worker_loop, w);
  }

  // Open-loop arrivals on this thread: Poisson, seeded, never blocked by
  // completions.
  const VirtualTime window_start = env_->Now();
  const VirtualTime window_end =
      window_start + scfs::FromSecondsD(real_seconds / spec_.time_scale);
  scfs::OpenLoopArrivals arrivals(scfs::ArrivalProcess::kPoisson,
                                  spec_.offered_ops_per_s, window_start,
                                  scfs::MixSeed(seed_, kArrivalStream));
  uint64_t issued = 0;
  while (true) {
    const VirtualTime due = arrivals.Next();
    if (due >= window_end) {
      break;
    }
    const VirtualTime now = env_->Now();
    if (due > now) {
      env_->Sleep(due - now);
    }
    PendingOp op = MakeOp(issued++, due);
    op.enqueued = env_->Now();
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      queue.push_back(op);
    }
    queue_cv.notify_one();
  }
  size_t dropped = 0;
  {
    std::unique_lock<std::mutex> lock(queue_mu);
    queue_cv.wait_for(lock,
                      std::chrono::duration<double>(kDrainRealSeconds),
                      [&] { return queue.empty() && in_flight == 0; });
    dropped = queue.size();
    queue.clear();
    done = true;
  }
  queue_cv.notify_all();
  for (auto& worker : workers) {
    worker.join();
  }
  const int64_t process_cpu1 = ProcessCpuNs();
  const double window_s =
      static_cast<double>(env_->Now() - window_start) / 1e6;

  // Background pipelines and straggler cloud requests belong to the window.
  for (auto& agent : agents_) {
    (void)agent->SyncBarrier();
  }
  for (unsigned i = 0; i < deployment_->cloud_count(); ++i) {
    deployment_->cloud(i)->Quiesce();
  }
  const Counters after = Snapshot();

  // ---- Fold the workers' records. ----
  std::vector<OpRecord> records;
  int64_t worker_cpu_ns = 0;
  for (WorkerState& state : states) {
    records.insert(records.end(), state.records.begin(), state.records.end());
    out->problems.insert(out->problems.end(), state.problems.begin(),
                         state.problems.end());
    worker_cpu_ns += state.cpu_ns;
  }
  std::vector<std::vector<double>> per_class(kOpClassCount);
  std::vector<double> latency, queue_wait, late;
  double sum_service = 0, sum_charged = 0;
  uint64_t ok = 0, errors = 0, busy_failures = 0, busy_retries = 0;
  uint64_t writing_closes = 0;
  for (const OpRecord& r : records) {
    latency.push_back(r.latency_ms);
    queue_wait.push_back(r.queue_ms);
    late.push_back(r.late_ms);
    sum_service += r.service_ms;
    sum_charged += r.charged_ms;
    busy_retries += r.busy_retries;
    if (r.ok) {
      ++ok;
      per_class[static_cast<size_t>(r.cls)].push_back(r.latency_ms);
      if (r.cls == OpClass::kAppend || r.cls == OpClass::kCreate) {
        ++writing_closes;
      }
    } else {
      ++errors;
      if (r.busy_failure) {
        ++busy_failures;
      }
    }
  }
  out->attempted = issued;
  out->failed = errors + dropped;
  const double ops = static_cast<double>(ok);
  const double kops = ops / 1000.0;
  MetricSet& m = out->metrics;

  // ---- End-to-end metrics. ----
  for (size_t c = 0; c < kOpClassCount; ++c) {
    if (!per_class[c].empty()) {
      const std::string cls = OpClassName(static_cast<OpClass>(c));
      m.Set(cls + "_p50_ms", Percentile(per_class[c], 50), "ms");
      m.Set(cls + "_samples", static_cast<double>(per_class[c].size()),
            "count");
      out->sources[cls] = "window";
    }
  }
  m.Set("p99_ms", Percentile(latency, 99), "ms");
  m.Set("ops", static_cast<double>(records.size()), "count");
  m.Set("failed_share", Ratio(static_cast<double>(out->failed),
                              static_cast<double>(issued)),
        "ratio");
  m.Set("cpu_ms_per_op",
        Ratio(static_cast<double>(process_cpu1 - process_cpu0) / 1e6, ops),
        "ms");
  m.Set("cloud_usd_per_kop",
        Ratio(after.usage.TotalCost() - before.usage.TotalCost(), kops),
        "USD");

  // ---- Per-layer metrics. ----
  m.Set("agent.modelled_share", Ratio(sum_charged, sum_service), "ratio");
  m.Set("agent.unmodelled_ms_per_op",
        Ratio(sum_service - sum_charged, static_cast<double>(records.size())),
        "ms");
  m.Set("agent.cpu_ms_per_op",
        Ratio(static_cast<double>(worker_cpu_ns) / 1e6, ops), "ms");
  m.Set("agent.busy_per_kop",
        Ratio(static_cast<double>(busy_retries) * 1000,
              static_cast<double>(issued)),
        "count");
  m.Set("agent.busy_failures", static_cast<double>(busy_failures), "count");
  m.Set("gen.queue_wait_p99_ms", Percentile(queue_wait, 99), "ms");
  m.Set("gen.late_p99_ms", Percentile(late, 99), "ms");
  m.Set("gen.worker_utilization",
        Ratio(sum_service / 1e3, kWorkers * window_s), "ratio");
  m.Set("gen.dropped", static_cast<double>(dropped), "count");
  const double md_reads =
      static_cast<double>(after.md_coord_reads - before.md_coord_reads);
  const double md_hits =
      static_cast<double>(after.md_cache_hits - before.md_cache_hits);
  m.Set("metadata.coord_reads_per_op", Ratio(md_reads, ops), "count");
  m.Set("metadata.cache_hit_share", Ratio(md_hits, md_hits + md_reads),
        "ratio");
  const double st_mem = static_cast<double>(after.st_memory - before.st_memory);
  const double st_disk = static_cast<double>(after.st_disk - before.st_disk);
  const double st_cloud = static_cast<double>(after.st_cloud - before.st_cloud);
  const double st_all = st_mem + st_disk + st_cloud;
  m.Set("storage.memory_hit_share", Ratio(st_mem, st_all), "ratio");
  m.Set("storage.disk_hit_share", Ratio(st_disk, st_all), "ratio");
  m.Set("storage.cloud_reads_per_op", Ratio(st_cloud, ops), "count");
  m.Set("storage.anchor_retries_per_kop",
        Ratio(static_cast<double>(after.st_retries - before.st_retries), kops),
        "count");
  m.Set("background.publish_ms_per_close",
        Ratio(static_cast<double>(after.bg_charged_us - before.bg_charged_us) /
                  1e3,
              static_cast<double>(writing_closes)),
        "ms");
  scfs::SmrCounters smr = after.smr;
  smr -= before.smr;
  m.Set("coord.msgs_per_op",
        Ratio(static_cast<double>(smr.total_messages()), ops), "count");
  m.Set("coord.ordered_per_op",
        Ratio(static_cast<double>(smr.ordered_commands), ops), "count");
  m.Set("coord.fast_reads_per_op",
        Ratio(static_cast<double>(smr.fast_path_reads), ops), "count");
  m.Set("coord.fallbacks_per_kop",
        Ratio(static_cast<double>(smr.fast_path_fallbacks), kops), "count");
  m.Set("coord.batch_factor",
        Ratio(static_cast<double>(smr.proposed_requests),
              static_cast<double>(smr.proposed_instances)),
        "ratio");
  m.Set("coord.reply_bytes_per_op",
        Ratio(static_cast<double>(after.coord_reply_bytes -
                                  before.coord_reply_bytes),
              ops),
        "B");
  m.Set("depsky.retries_per_kop",
        Ratio(static_cast<double>(after.ds_retries - before.ds_retries), kops),
        "count");
  m.Set("depsky.hedged_reads_per_kop",
        Ratio(static_cast<double>(after.ds_hedged - before.ds_hedged), kops),
        "count");
  m.Set("depsky.deadline_expiries_per_kop",
        Ratio(static_cast<double>(after.ds_deadline - before.ds_deadline),
              kops),
        "count");
  const double arena_hits =
      static_cast<double>(after.ds_arena_hits - before.ds_arena_hits);
  const double arena_misses =
      static_cast<double>(after.ds_arena_misses - before.ds_arena_misses);
  m.Set("depsky.arena_pool_hit_share",
        Ratio(arena_hits, arena_hits + arena_misses), "ratio");
  const scfs::UsageTotals& u0 = before.usage;
  const scfs::UsageTotals& u1 = after.usage;
  m.Set("cloud.puts_per_op", Ratio(static_cast<double>(u1.puts - u0.puts), ops),
        "count");
  m.Set("cloud.gets_per_op", Ratio(static_cast<double>(u1.gets - u0.gets), ops),
        "count");
  m.Set("cloud.lists_per_op",
        Ratio(static_cast<double>(u1.lists - u0.lists), ops), "count");
  m.Set("cloud.deletes_per_op",
        Ratio(static_cast<double>(u1.deletes - u0.deletes), ops), "count");
  m.Set("cloud.bytes_in_per_op",
        Ratio(static_cast<double>(u1.bytes_in - u0.bytes_in), ops), "B");
  m.Set("cloud.bytes_out_per_op",
        Ratio(static_cast<double>(u1.bytes_out - u0.bytes_out), ops), "B");
  m.Set("cloud.breaker_trips",
        static_cast<double>(after.breaker_trips - before.breaker_trips),
        "count");
  // Live bytes: every fileset file at its longest acknowledged length, the
  // undeleted created files and the logs.
  double live = 0;
  for (uint64_t f = 0; f < spec_.files; ++f) {
    live += static_cast<double>(
        std::max(tracks_[f]->max_acked, contents_.file_size()));
  }
  live += static_cast<double>(pool_.size() * contents_.file_size());
  for (const auto& log : log_ops_) {
    live += static_cast<double>(log.size() * contents_.append_size());
  }
  m.Set("cloud.stored_bytes_per_live_byte",
        Ratio(static_cast<double>(deployment_->StoredBytes(kUser)), live),
        "ratio");
  m.Set("host.other_cpu_ms_per_op",
        Ratio(static_cast<double>(process_cpu1 - process_cpu0 - worker_cpu_ns) /
                  1e6,
              ops),
        "ms");
  if (trace) {
    std::map<std::string, std::vector<double>> by_call;
    int64_t overhead_ns = 0;
    size_t span_count = 0;
    for (const SpanLog& log : *spans) {
      overhead_ns += log.overhead_ns();
      span_count += log.spans().size();
      for (const Span& s : log.spans()) {
        by_call[s.name].push_back(static_cast<double>(s.end - s.start) / 1e3);
      }
    }
    for (const char* call : {"open", "close", "stat", "unlink"}) {
      m.Set(std::string("agent.") + call + "_p50_ms",
            Percentile(by_call[call], 50), "ms");
    }
    m.Set("trace.overhead_us_per_op",
          Ratio(static_cast<double>(overhead_ns) / 1e3,
                static_cast<double>(records.size())),
          "us");
    m.Set("trace.spans_per_op",
          Ratio(static_cast<double>(span_count),
                static_cast<double>(records.size())),
          "count");
  }

  // The arrival loop must have kept its schedule, or the run measured a
  // lighter load than it claims.
  const double allowed_ms = kMaxLateGaps * 1000.0 / spec_.offered_ops_per_s;
  if (m.Get("gen.late_p99_ms") > allowed_ms) {
    out->flags.push_back("arrival loop fell behind schedule: late p99 " +
                         std::to_string(m.Get("gen.late_p99_ms")) +
                         " ms exceeds " + std::to_string(allowed_ms) + " ms");
  }

  ProbeMissingClasses(out);
  FinalCheck(out);
  if (trace) {
    LayerProbes(out);
  }
}

void Bench::ProbeMissingClasses(RunOutcome* out) {
  // Op classes the mix does not issue still get a median: spec_.probe_ops
  // ops of the class, one at a time, by agent 0 on the idle deployment.
  // (Concurrent probe ops pile up background uploads that slow the ops
  // behind them and make the median wander from run to run.)
  scfs::ScfsFileSystem* fs = agents_[0].get();
  (void)fs->SyncBarrier();
  auto median_ms = [&](const std::function<Status(size_t)>& op) {
    std::vector<double> samples;
    for (size_t i = 0; i < spec_.probe_ops; ++i) {
      const VirtualTime t0 = env_->Now();
      Status status = op(i);
      samples.push_back(static_cast<double>(env_->Now() - t0) / 1e3);
      if (!status.ok()) {
        out->problems.push_back("probe op failed: " + status.ToString());
      }
    }
    return Percentile(samples, 50);
  };
  auto missing = [&](OpClass c) {
    return out->sources.count(OpClassName(c)) == 0;
  };
  auto probe_path = [](const char* kind, size_t i) {
    return std::string("/pb/probe/") + kind + std::to_string(i);
  };
  if (missing(OpClass::kAppend)) {
    // One append to each of probe_ops idle logs (created untimed).
    (void)ParallelFor(spec_.probe_ops, kSetupThreads, [&](size_t i, unsigned) {
      return fs->WriteFile(probe_path("l", i), Bytes{});
    });
    (void)fs->SyncBarrier();
    const uint64_t record_file = spec_.files + log_ops_.size();
    out->metrics.Set("append_p50_ms", median_ms([&](size_t i) -> Status {
                       const std::string log = probe_path("l", i);
                       (void)fs->Stat(log);
                       ASSIGN_OR_RETURN(scfs::FileHandle h,
                                        fs->Open(log, scfs::kOpenWrite));
                       Status write = fs->Write(
                           h, 0, contents_.Record(record_file + i, 0,
                                                  kProbeOpBase + i));
                       Status close = fs->Close(h);
                       return write.ok() ? close : write;
                     }),
                     "ms");
    out->sources["append"] = "probe";
  }
  const bool probe_create = missing(OpClass::kCreate);
  if (probe_create || missing(OpClass::kDelete)) {
    // Each create goes to a directory of its own whose metadata is no longer
    // cached: with one shared directory, whether the parent check hits the
    // 500 ms metadata cache depends on the probe's own pace, and the median
    // would straddle the two modes.
    (void)ParallelFor(spec_.probe_ops, kSetupThreads, [&](size_t i, unsigned) {
      return fs->Mkdir(probe_path("d", i));
    });
    env_->Sleep(scfs::kSecond);
    const double create_ms = median_ms([&](size_t i) {
      return fs->WriteFile(probe_path("d", i) + "/c",
                           contents_.Created(kProbeOpBase + i));
    });
    if (probe_create) {
      out->metrics.Set("create_p50_ms", create_ms, "ms");
      out->sources["create"] = "probe";
    }
  }
  if (missing(OpClass::kDelete)) {
    out->metrics.Set("delete_p50_ms", median_ms([&](size_t i) {
                       return fs->Unlink(probe_path("d", i) + "/c");
                     }),
                     "ms");
    out->sources["delete"] = "probe";
  }
}

void Bench::FinalCheck(RunOutcome* out) {
  const bool shared = spec_.appends_to_fileset || spec_.delete_pool > 0;
  const bool logs = std::any_of(log_ops_.begin(), log_ops_.end(),
                                [](const auto& l) { return !l.empty(); });
  out->metrics.Set("check.overwritten_appends", 0, "count");
  if (!shared && !logs) {
    return;
  }
  // Every acknowledged write must be readable by an agent that never saw it
  // being written.
  for (auto& agent : agents_) {
    (void)agent->SyncBarrier();
  }
  auto verifier = MountAgent("verify", scfs::ScfsMode::kBlocking);
  if (!verifier.ok()) {
    out->problems.push_back("verifier mount failed: " +
                            verifier.status().ToString());
    return;
  }
  scfs::ScfsFileSystem* fs = verifier->get();
  std::mutex mu;
  auto problem = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    out->problems.push_back(what);
    return scfs::OkStatus();
  };
  std::atomic<uint64_t> overwritten{0};
  if (spec_.appends_to_fileset) {
    (void)ParallelFor(spec_.files, kSetupThreads, [&](size_t f, unsigned) {
      auto data = fs->ReadFile(fileset_[f]);
      if (!data.ok()) {
        return problem("final read of " + fileset_[f] + " failed: " +
                       data.status().ToString());
      }
      std::vector<uint64_t> ops;
      if (!contents_.Verify(f, *data, &ops)) {
        return problem("final read of " + fileset_[f] +
                       " is not a version the benchmark wrote");
      }
      const FileTrack& track = *tracks_[f];
      if (data->size() < track.max_acked) {
        return problem(fileset_[f] + " is short: " +
                       std::to_string(data->size()) + " bytes, " +
                       std::to_string(track.max_acked) + " acknowledged");
      }
      // An acknowledged record missing from a file of full length was
      // overwritten by an append that opened a cached (stale) version inside
      // the metadata cache window; counted, not fatal.
      for (uint64_t op : track.acked_ops) {
        if (std::find(ops.begin(), ops.end(), static_cast<uint32_t>(op)) ==
            ops.end()) {
          ++overwritten;
        }
      }
      return scfs::OkStatus();
    });
  }
  if (spec_.delete_pool > 0) {
    (void)ParallelFor(pool_.size(), kSetupThreads, [&](size_t i, unsigned) {
      auto data = fs->ReadFile(pool_[i].path);
      if (!data.ok() || *data != contents_.Created(pool_[i].op)) {
        return problem("created file " + pool_[i].path +
                       " is missing or wrong");
      }
      return scfs::OkStatus();
    });
    (void)ParallelFor(deleted_.size(), kSetupThreads, [&](size_t i, unsigned) {
      auto stat = fs->Stat(deleted_[i]);
      if (stat.ok() || stat.status().code() != scfs::ErrorCode::kNotFound) {
        return problem("deleted file " + deleted_[i] + " is still visible");
      }
      return scfs::OkStatus();
    });
  }
  for (unsigned log = 0; log < log_ops_.size() && logs; ++log) {
    Bytes expected;
    for (size_t k = 0; k < log_ops_[log].size(); ++k) {
      const Bytes rec =
          contents_.Record(spec_.files + log, k, log_ops_[log][k]);
      expected.insert(expected.end(), rec.begin(), rec.end());
    }
    auto data = fs->ReadFile(LogPath(log));
    if (!data.ok() || *data != expected) {
      problem("log " + LogPath(log) + " lost acknowledged appends");
    }
  }
  out->metrics.Set("check.overwritten_appends",
                   static_cast<double>(overwritten.load()), "count");
  agents_.push_back(std::move(*verifier));
}

void Bench::LayerProbes(RunOutcome* out) {
  MetricSet& m = out->metrics;
  auto virtual_ms = [&](const std::function<void()>& fn) {
    const VirtualTime t0 = env_->Now();
    fn();
    return static_cast<double>(env_->Now() - t0) / 1e3;
  };

  // Coordination: fast reads and ordered writes on the idle deployment.
  scfs::CoordinationService* coord = deployment_->coord();
  const std::string client = "perfbench-probe";
  const std::string key = "perfbench/probe";
  std::vector<double> writes, reads;
  for (int i = 0; i < kCoordProbeOps; ++i) {
    writes.push_back(virtual_ms([&] {
      Status s = coord->Write(client, key, Bytes(64, static_cast<uint8_t>(i)));
      if (!s.ok()) {
        out->problems.push_back("coord probe write: " + s.ToString());
      }
    }));
  }
  for (int i = 0; i < kCoordProbeOps; ++i) {
    reads.push_back(virtual_ms([&] {
      if (!coord->Read(client, key).ok()) {
        out->problems.push_back("coord probe read failed");
      }
    }));
  }
  m.Set("coord.write_probe_ms", Percentile(writes, 50), "ms");
  m.Set("coord.read_probe_ms", Percentile(reads, 50), "ms");

  // DepSky: whole versions at the workload's file size on a probe unit.
  const auto& clients = deployment_->depsky_clients();
  if (!clients.empty()) {
    scfs::DepSkyClient& depsky = *clients.front();
    const std::string unit = "perfbench-probe-unit";
    writes.clear();
    reads.clear();
    std::vector<std::pair<Bytes, std::string>> versions;
    for (int i = 0; i < kDepSkyProbeOps; ++i) {
      Bytes data = contents_.Created(kProbeOpBase + 1000 + i);
      std::string hash = scfs::HexEncode(scfs::Sha1::Hash(data));
      writes.push_back(virtual_ms([&] {
        if (!depsky.WriteVersion(unit, hash, data).ok()) {
          out->problems.push_back("depsky probe write failed");
        }
      }));
      versions.emplace_back(std::move(data), std::move(hash));
    }
    // Read the newest version once the clouds' consistency windows (at most
    // 1.35 s) have passed; a version a cloud does not show yet is re-read,
    // as the agent's consistency-anchor loop would.
    env_->Sleep(2 * scfs::kSecond);
    const auto& [data, hash] = versions.back();
    for (int i = 0; i < kDepSkyProbeOps; ++i) {
      reads.push_back(virtual_ms([&] {
        Status last = scfs::OkStatus();
        for (int attempt = 0; attempt < 100; ++attempt) {
          auto read = depsky.ReadByHash(unit, hash);
          if (read.ok() && *read == data) {
            return;
          }
          last = read.ok() ? scfs::CorruptionError("wrong bytes")
                           : read.status();
          if (last.code() != scfs::ErrorCode::kNotFound &&
              last.code() != scfs::ErrorCode::kUnavailable) {
            break;
          }
          env_->Sleep(scfs::FromMillis(25));
        }
        out->problems.push_back("depsky probe read failed: " +
                                last.ToString());
      }));
    }
    m.Set("depsky.write_probe_ms", Percentile(writes, 50), "ms");
    m.Set("depsky.read_probe_ms", Percentile(reads, 50), "ms");
  }

  // Codec and crypto kernels on one file's worth of bytes (host time).
  const Bytes& data = contents_.Base(0);
  scfs::ErasureCodec codec(4, 2);
  auto shards = codec.Encode(data);
  std::vector<std::optional<Bytes>> survivors;
  if (shards.ok()) {
    for (size_t i = 0; i < shards->size(); ++i) {
      // Drop both systematic shards so decoding has to invert.
      survivors.push_back(i < 2 ? std::nullopt
                                : std::optional<Bytes>((*shards)[i]));
    }
  }
  m.Set("codec.encode_us",
        MedianMicros(kKernelProbeReps, [&] { (void)codec.Encode(data); }),
        "us");
  m.Set("codec.decode_us", MedianMicros(kKernelProbeReps, [&] {
          auto decoded = codec.Decode(survivors);
          if (!decoded.ok() || *decoded != data) {
            out->problems.push_back("codec probe decoded wrong bytes");
          }
        }),
        "us");
  const Bytes key_bytes(scfs::ChaCha20::kKeySize, 7);
  const Bytes nonce(scfs::ChaCha20::kNonceSize, 9);
  Bytes cipher(data.size());
  m.Set("crypto.cipher_us", MedianMicros(kKernelProbeReps, [&] {
          scfs::ChaCha20::CryptInto(key_bytes, nonce, 1, data,
                                    scfs::ByteSpan(cipher.data(),
                                                   cipher.size()));
        }),
        "us");
  m.Set("crypto.hash_us", MedianMicros(kKernelProbeReps, [&] {
          (void)scfs::Sha1::Hash(data);
          (void)scfs::Sha256::Hash(data);
        }),
        "us");
}

}  // namespace perfbench
