#include "src/coord/partitioned_coordination.h"

#include <algorithm>
#include <utility>

#include "src/crypto/sha256.h"

namespace scfs {

namespace {

// FNV-1a 64-bit: stable across platforms and processes, so a key's
// partition is a pure function of the key and the route map — clients,
// replayed intents and restarted deployments all agree on it.
//
// Raw FNV-1a needs the avalanche finalizer below: its low k bits are an
// affine function (over GF(2)) of the input bits — the xor is linear and
// the prime multiply is carry-free mod small 2^k — so for key families
// sharing a suffix, like one path's keys under two prefixes,
// hash agreement mod a power-of-two partition count is *constant* across
// all paths (always or never co-located) instead of 1/N. The SplitMix64
// finalizer mixes high bits into low, restoring per-key independence. The
// elastic plane routes by contiguous hash *ranges* rather than mod-N, so
// the finalizer additionally guarantees keys spread uniformly over the
// whole 64-bit space (range boundaries are quantiles of a uniform hash).
uint64_t Fnv1a64(const std::string& key) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  hash ^= hash >> 30;
  hash *= 0xbf58476d1ce4e5b9ull;
  hash ^= hash >> 27;
  hash *= 0x94d049bb133111ebull;
  hash ^= hash >> 31;
  return hash;
}

// The intent engine's record keyspace. Entries under it are owned by the
// coordination admin principal, so user ReadPrefix sweeps skip them (ACL
// filtering), and Submit refuses any other principal's command addressing
// it, so every record under it is the engine's own.
constexpr const char kElasticPrefix[] = "__elastic:";
constexpr const char kIntentPrefix[] = "__elastic:intent:";
constexpr const char kCommitPrefix[] = "__elastic:commit:";

std::string Hex64(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// True if a command would touch the engine's reserved keyspace on behalf of
// an ordinary principal. The replay trusts every record under it, so only
// the admin may address it: by key, or through a rename whose new keys
// (aux + suffix) can land in it, which they can iff aux starts with the
// reserved prefix or is itself a prefix of it.
bool TouchesReservedKeys(const CoordCommand& command) {
  if (command.client == kCoordAdminPrincipal) {
    return false;
  }
  if (StartsWith(command.key, kElasticPrefix)) {
    return true;
  }
  return command.op == CoordOp::kRenamePrefix &&
         (StartsWith(command.aux, kElasticPrefix) ||
          std::string(kElasticPrefix).rfind(command.aux, 0) == 0);
}

// How many times a single-key command re-routes on a stale-map rejection
// before giving up. Each committed migration bumps the epoch by one, and at
// most one migration is in flight, so one retry normally suffices; the
// budget only guards against a pathological storm of back-to-back splits.
constexpr int kMaxRouteRetries = 8;

}  // namespace

uint64_t PartitionRoutingHash(const std::string& key) {
  return Fnv1a64(PartitionRoutingKey(key));
}

unsigned RouteMap::PartitionForHash(uint64_t hash) const {
  // Entry i covers [ranges[i].start, ranges[i+1].start): the owner is the
  // last range whose start is <= hash.
  auto it = std::upper_bound(ranges.begin(), ranges.end(), hash,
                             [](uint64_t h, const RouteRange& r) {
                               return h < r.start;
                             });
  return std::prev(it)->partition;
}

RouteMap RouteMap::Uniform(unsigned active) {
  RouteMap map;
  map.epoch = 1;
  map.ranges.reserve(active);
  for (unsigned i = 0; i < active; ++i) {
    // Exact quantiles of the 64-bit hash space: (i << 64) / active.
    const uint64_t start = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(i) << 64) / active);
    map.ranges.push_back(RouteRange{start, i});
  }
  return map;
}

std::vector<double> PartitionOpsPerSecond(const PartitionLoadSnapshot& before,
                                          const PartitionLoadSnapshot& after) {
  if (before.per_partition.size() != after.per_partition.size() ||
      after.at <= before.at) {
    return {};
  }
  const double seconds = ToSeconds(after.at - before.at);
  std::vector<double> out;
  out.reserve(after.per_partition.size());
  for (size_t p = 0; p < after.per_partition.size(); ++p) {
    SmrCounters delta = after.per_partition[p];
    delta -= before.per_partition[p];
    out.push_back(
        static_cast<double>(delta.ordered_commands + delta.fast_path_reads) /
        seconds);
  }
  return out;
}

double PartitionHotShare(const PartitionLoadSnapshot& before,
                         const PartitionLoadSnapshot& after) {
  const std::vector<double> rates = PartitionOpsPerSecond(before, after);
  double total = 0;
  double top = 0;
  for (double rate : rates) {
    total += rate;
    top = std::max(top, rate);
  }
  return total > 0 ? top / total : 0.0;
}

PartitionedCoordination::PartitionedCoordination(
    Environment* env, PartitionedCoordinationConfig config, uint64_t seed)
    : env_(env), config_(std::move(config)) {
  const unsigned active = std::max(1u, config_.partitions);
  const unsigned n = active + config_.spare_partitions;
  partitions_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    // Distinct seeds per partition: independent leaders, link jitter and
    // client rngs, as physically separate clusters would have.
    partitions_.push_back(std::make_unique<SmrCluster>(
        env_, config_.smr, seed + i * 7776151ull));
  }
  map_ = std::make_shared<const RouteMap>(RouteMap::Uniform(active));
  if (config_.auto_split) {
    controller_ = std::thread([this] { ControllerLoop(); });
  }
}

PartitionedCoordination::~PartitionedCoordination() {
  controller_stop_.store(true);
  if (controller_.joinable()) {
    controller_.join();
  }
}

unsigned PartitionedCoordination::PartitionOf(const std::string& key) const {
  const uint64_t hash = PartitionRoutingHash(key);
  std::lock_guard<std::mutex> lock(route_mu_);
  return map_->PartitionForHash(hash);
}

RouteMap PartitionedCoordination::route_map() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return *map_;
}

uint64_t PartitionedCoordination::route_epoch() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return map_->epoch;
}

unsigned PartitionedCoordination::active_partition_count() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  std::vector<bool> owns(partitions_.size(), false);
  for (const RouteRange& range : map_->ranges) {
    owns[range.partition] = true;
  }
  return static_cast<unsigned>(std::count(owns.begin(), owns.end(), true));
}

ElasticCounters PartitionedCoordination::elastic_counters() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return elastic_;
}

std::vector<double> PartitionedCoordination::WindowedOpsPerSecond() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  return windowed_ops_s_;
}

double PartitionedCoordination::WindowedHotShare() const {
  std::lock_guard<std::mutex> lock(route_mu_);
  double total = 0;
  double top = 0;
  for (double rate : windowed_ops_s_) {
    total += rate;
    top = std::max(top, rate);
  }
  return total > 0 ? top / total : 0.0;
}

std::shared_ptr<const RouteMap> PartitionedCoordination::ClientRouteMap(
    const std::string& client) {
  std::lock_guard<std::mutex> lock(route_mu_);
  auto it = client_maps_.find(client);
  if (it != client_maps_.end()) {
    return it->second;
  }
  // A client first seen now starts from the current map (it would fetch it
  // at mount); laziness only shows across subsequent route changes.
  client_maps_.emplace(client, map_);
  return map_;
}

Result<CoordReply> PartitionedCoordination::Submit(
    const CoordCommand& command) {
  if (TouchesReservedKeys(command)) {
    CoordReply refused;
    refused.code = ErrorCode::kPermissionDenied;
    return refused;
  }
  switch (command.op) {
    case CoordOp::kReadPrefix:
    case CoordOp::kExportPrefix:
    // A prefix lease must cover the prefix's keys on every partition (they
    // hash across all of them), so the grant scatters like a prefix read;
    // the merged expiry is the most conservative (minimum) per-partition
    // expiry, and a mutation on any partition revokes its slice and
    // notifies — invalidation is by prefix, so one notice suffices.
    case CoordOp::kLeaseAcquire:
    case CoordOp::kLeaseRelease:
      return ScatterGather(command);
    case CoordOp::kRenamePrefix:
      if (partitions_.size() > 1) {
        return RenameAcrossPartitions(command);
      }
      break;
    default:
      break;
  }
  return RoutedExecute(command);
}

Result<CoordReply> PartitionedCoordination::RoutedExecute(
    const CoordCommand& command) {
  CoordCommand cmd = command;
  ASSIGN_OR_RETURN(unsigned target, Route(&cmd));
  return partitions_[target]->Execute(cmd);
}

Result<unsigned> PartitionedCoordination::Route(CoordCommand* command) {
  CoordCommand& cmd = *command;
  const uint64_t hash = PartitionRoutingHash(cmd.key);
  bool counted_stall = false;
  VirtualTime stall_deadline = -1;
  int retries = 0;
  while (true) {
    // Client side: route with the submitter's cached map and tag the
    // command with that map's epoch (the wire-visible half of the lazy
    // distribution protocol).
    std::shared_ptr<const RouteMap> client_map = ClientRouteMap(cmd.client);
    const unsigned target = client_map->PartitionForHash(hash);
    cmd.route_epoch = client_map->epoch;

    // Server side: the partition boundary enforces the authoritative map
    // strictly. A mutation aimed into a mid-migration (write-frozen) range
    // stalls; a command routed to a partition that no longer owns its key
    // is rejected together with the current map.
    bool frozen = false;
    bool rejected = false;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      frozen = migrating_.has_value() && !cmd.is_read_only() &&
               HashInRange(hash, *migrating_);
      if (frozen && !counted_stall) {
        counted_stall = true;
        ++elastic_.migration_stalls;
      }
      if (!frozen && target != map_->PartitionForHash(hash)) {
        // "Misrouted, here is the current map": the client installs it and
        // retries transparently.
        rejected = true;
        ++elastic_.route_epoch_retries;
        client_maps_[cmd.client] = map_;
      }
    }
    if (frozen) {
      if (stall_deadline < 0) {
        stall_deadline = env_->Now() + config_.migration_stall_timeout;
      }
      if (env_->Now() >= stall_deadline) {
        return UnavailableError("mutation stalled behind a wedged migration");
      }
      env_->Sleep(config_.migration_stall_poll);
      continue;
    }
    if (rejected) {
      if (++retries > kMaxRouteRetries) {
        return UnavailableError("route retries exhausted");
      }
      continue;
    }
    return target;
  }
}

Result<CoordReply> PartitionedCoordination::ScatterGather(
    const CoordCommand& command) {
  if (partitions_.size() == 1) {
    return partitions_[0]->Execute(command);
  }
  // Concurrent fan-out on the shared executor; the WhenAll join charges the
  // caller the slowest partition's round, not the sum — the scatter is one
  // parallel round, exactly like a DepSky cloud fan-out.
  std::vector<Future<Result<CoordReply>>> rounds;
  rounds.reserve(partitions_.size());
  for (auto& partition : partitions_) {
    SmrCluster* cluster = partition.get();
    rounds.push_back(SubmitTracked(
        &inflight_, [cluster, command] { return cluster->Execute(command); }));
  }
  std::vector<Result<CoordReply>> results = WhenAll(std::move(rounds)).Get();

  // Merge tagged with the source partition: mid-migration an entry
  // legitimately exists on both the source (until retirement) and the
  // destination (after import), and the merge must count it once — the
  // copy on the range's current owner wins.
  std::vector<std::pair<unsigned, CoordEntryView>> tagged;
  CoordReply merged;
  uint64_t min_expiry = UINT64_MAX;
  for (unsigned p = 0; p < results.size(); ++p) {
    auto& result = results[p];
    if (!result.ok()) {
      return result.status();  // transport-level failure of one partition
    }
    if (!result->ok()) {
      if (command.op == CoordOp::kLeaseRelease &&
          result->code == ErrorCode::kNotFound) {
        // A partition whose lease slice already expired has nothing to
        // release; the holder's intent is satisfied either way.
        continue;
      }
      // A state-machine error (e.g. kPermissionDenied from an export)
      // poisons the whole scatter: the caller must not see a partial view.
      return *result;
    }
    min_expiry = std::min(min_expiry, result->a);
    for (auto& entry : result->entries) {
      tagged.emplace_back(p, std::move(entry));
    }
  }
  std::shared_ptr<const RouteMap> owner_map;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    owner_map = map_;
  }
  // Partitions return their slices sorted (TupleSpace iterates an ordered
  // map); the merged view restores the global order a single cluster would
  // have returned. Within one key, the current owner's copy sorts first and
  // the duplicate is dropped.
  std::sort(tagged.begin(), tagged.end(),
            [&](const std::pair<unsigned, CoordEntryView>& a,
                const std::pair<unsigned, CoordEntryView>& b) {
              if (a.second.key != b.second.key) {
                return a.second.key < b.second.key;
              }
              const uint64_t hash = PartitionRoutingHash(a.second.key);
              const unsigned owner = owner_map->PartitionForHash(hash);
              return (a.first == owner) > (b.first == owner);
            });
  merged.entries.reserve(tagged.size());
  for (auto& item : tagged) {
    if (!merged.entries.empty() &&
        merged.entries.back().key == item.second.key) {
      continue;  // duplicate from a non-owner partition (mid-migration)
    }
    merged.entries.push_back(std::move(item.second));
  }
  if (command.op == CoordOp::kLeaseAcquire) {
    // The holder may serve only as long as EVERY partition's slice is live.
    merged.a = min_expiry == UINT64_MAX ? 0 : min_expiry;
  } else {
    merged.a = merged.entries.size();
  }
  return merged;
}

Future<Result<CoordReply>> PartitionedCoordination::SubmitAsync(
    const CoordCommand& command) {
  return SubmitTracked(&inflight_,
                       [this, command] { return Submit(command); });
}

Bytes PartitionedCoordination::StateDigest() {
  // Deterministic combination, sorted by partition index: hash the
  // concatenation of (index, per-partition order-quorum digest). Two
  // deployments (or one across a restart) that executed the same per-key
  // command history report the same combined fingerprint; any partition
  // without quorum backing makes the whole digest empty ("not converged").
  Bytes combined;
  for (unsigned i = 0; i < partitions_.size(); ++i) {
    Bytes digest = partitions_[i]->quorum_state_digest();
    if (digest.empty()) {
      return {};
    }
    AppendU32(&combined, i);
    AppendBytes(&combined, digest);
  }
  return Sha256::Hash(combined);
}

SmrCounters PartitionedCoordination::counters() const {
  SmrCounters out;
  for (const auto& partition : partitions_) {
    out += partition->counters();
  }
  return out;
}

SmrCounters PartitionedCoordination::partition_counters(
    unsigned partition) const {
  return partitions_[partition]->counters();
}

PartitionLoadSnapshot PartitionedCoordination::LoadSnapshot() const {
  PartitionLoadSnapshot out;
  out.at = env_->Now();
  out.per_partition.reserve(partitions_.size());
  for (const auto& partition : partitions_) {
    out.per_partition.push_back(partition->counters());
  }
  return out;
}

uint64_t PartitionedCoordination::reply_bytes_out() const {
  uint64_t out = 0;
  for (const auto& partition : partitions_) {
    out += partition->reply_bytes_out();
  }
  return out;
}

// -- The intent engine ------------------------------------------------------

std::string PartitionedCoordination::IntentKey(const MoveSpec& spec) {
  // A rename is named by its source prefix, a migration by its range start.
  return kIntentPrefix +
         (spec.is_rename() ? "rename:" + spec.from : Hex64(spec.begin));
}

std::string PartitionedCoordination::CommitKey(const MoveSpec& spec) {
  return kCommitPrefix + IntentKey(spec).substr(sizeof(kIntentPrefix) - 1);
}

Bytes PartitionedCoordination::EncodeSpec(const MoveSpec& spec) {
  Bytes out;
  AppendU64(&out, spec.begin);
  AppendU64(&out, spec.end);
  AppendU64(&out, spec.src);
  AppendU64(&out, spec.dst);
  AppendU64(&out, spec.merge ? 1 : 0);
  AppendString(&out, spec.from);
  AppendString(&out, spec.to);
  AppendString(&out, spec.principal);
  return out;
}

bool PartitionedCoordination::DecodeSpec(ConstByteSpan payload,
                                         MoveSpec* spec) const {
  ByteReader reader(payload);
  uint64_t src = 0;
  uint64_t dst = 0;
  uint64_t merge = 0;
  if (!reader.ReadU64(&spec->begin) || !reader.ReadU64(&spec->end) ||
      !reader.ReadU64(&src) || !reader.ReadU64(&dst) ||
      !reader.ReadU64(&merge) || !reader.ReadString(&spec->from) ||
      !reader.ReadString(&spec->to) || !reader.ReadString(&spec->principal) ||
      src >= partitions_.size() || dst >= partitions_.size()) {
    return false;
  }
  spec->src = static_cast<unsigned>(src);
  spec->dst = static_cast<unsigned>(dst);
  spec->merge = merge != 0;
  return true;
}

bool PartitionedCoordination::HashInRange(uint64_t hash,
                                          const MoveSpec& spec) {
  if (spec.end == 0) {
    return hash >= spec.begin;  // range reaches the top of the hash space
  }
  return hash >= spec.begin && hash < spec.end;
}

bool PartitionedCoordination::SameRange(const MoveSpec& a, const MoveSpec& b) {
  return a.begin == b.begin && a.end == b.end && a.src == b.src &&
         a.dst == b.dst;
}

Result<CoordReply> PartitionedCoordination::AdminExecute(
    unsigned partition, CoordOp op, const std::string& key, Bytes value) {
  // The engine's records bypass the router on purpose: they address a
  // specific partition (the source or destination of a move), not "the
  // owner of key", and never migrate.
  CoordCommand cmd;
  cmd.op = op;
  cmd.client = kCoordAdminPrincipal;
  cmd.key = key;
  cmd.value = std::move(value);
  return partitions_[partition]->Execute(cmd);
}

bool PartitionedCoordination::CrashAt(MoveCrashPoint point) {
  MoveCrashPoint expected = point;
  return crash_point_.compare_exchange_strong(expected, MoveCrashPoint::kNone);
}

void PartitionedCoordination::ReleaseFreeze(const MoveSpec& spec) {
  std::lock_guard<std::mutex> lock(route_mu_);
  if (migrating_.has_value() && !spec.is_rename() &&
      SameRange(*migrating_, spec)) {
    migrating_.reset();  // stalled mutations re-route
  }
}

Result<CoordReply> PartitionedCoordination::RenameAcrossPartitions(
    const CoordCommand& command) {
  if (command.key.empty()) {
    return InvalidArgumentError("rename of the empty prefix");
  }
  // The prefix's keys hash across partitions, out of reach of one
  // partition's atomic trigger. The intent sits with the source prefix's
  // own key, the commit marker with the destination's.
  MoveSpec spec;
  spec.from = command.key;
  spec.to = command.aux;
  spec.principal = command.client;
  spec.src = PartitionOf(spec.from);
  spec.dst = PartitionOf(spec.to);
  ASSIGN_OR_RETURN(size_t moved, Move(spec, /*resume=*/false));
  CoordReply reply;
  reply.a = moved;
  return reply;
}

Result<size_t> PartitionedCoordination::Move(const MoveSpec& spec,
                                             bool resume) {
  const std::string id = IntentKey(spec);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (running_.count(id) != 0) {
      return BusyError("move " + id + " is in flight");
    }
    if (!spec.is_rename()) {
      if (migrating_.has_value() && !SameRange(*migrating_, spec)) {
        return BusyError("a range migration is already in flight");
      }
      migrating_ = spec;  // write-freezes the range
    }
    running_.insert(id);
  }
  // A failure after the intent keeps the records, and a migration's
  // freeze, for ReplayIntents: what a crashed process leaves behind.
  Result<size_t> moved = resume ? ResumeMove(spec) : StartMove(spec);
  std::lock_guard<std::mutex> lock(route_mu_);
  running_.erase(id);
  return moved;
}

Status PartitionedCoordination::PrepareMove(
    const MoveSpec& spec, const Result<std::vector<CoordEntryView>>& moved) {
  // The selection runs first, so a refused or (for a rename) empty one
  // ends a fresh move before anything is written.
  RETURN_IF_ERROR(moved.status());
  if (spec.is_rename() && moved->empty()) {
    return NotFoundError(spec.from);
  }
  // The durable intent: from here the move is replayable. A conditional
  // create, so a crashed move's leftover with the same id shows up as
  // kAlreadyExists instead of being overwritten.
  ASSIGN_OR_RETURN(CoordReply created,
                   AdminExecute(spec.src, CoordOp::kConditionalCreate,
                                IntentKey(spec), EncodeSpec(spec)));
  return created.ToStatus("move intent " + IntentKey(spec));
}

Result<size_t> PartitionedCoordination::StartMove(const MoveSpec& spec) {
  const VirtualTime started = env_->Now();
  Result<std::vector<CoordEntryView>> moved = SelectSource(spec);
  Status prepared = PrepareMove(spec, moved);
  if (prepared.code() == ErrorCode::kAlreadyExists) {
    // A crashed move with this id left its intent on this same partition:
    // roll it forward, then select again, since it may have moved what this
    // one selected. A record gone by now needs no roll-forward.
    MoveSpec leftover;
    auto record = AdminExecute(spec.src, CoordOp::kRead, IntentKey(spec));
    if (!record.ok()) {
      prepared = record.status();
    } else if (record->ok() && !DecodeSpec(record->value, &leftover)) {
      prepared = CorruptionError("undecodable intent " + IntentKey(spec));
    } else {
      prepared = record->ok() ? ResumeMove(leftover).status() : OkStatus();
      if (prepared.ok() || prepared.code() == ErrorCode::kNotFound) {
        moved = SelectSource(spec);
        prepared = PrepareMove(spec, moved);
      }
    }
  }
  if (!prepared.ok()) {
    ReleaseFreeze(spec);  // no intent of this move: nothing to replay
    return prepared;
  }
  if (CrashAt(MoveCrashPoint::kAfterPrepare)) {
    return InternalError("injected crash after prepare");
  }
  return FinishMove(spec, *moved, /*committed=*/false, /*live=*/true,
                    started);
}

Result<size_t> PartitionedCoordination::ResumeMove(const MoveSpec& spec) {
  const VirtualTime started = env_->Now();
  // The move may have finished between the replay's scan and its claim,
  // and a later move with the same id may have left a different intent:
  // that one is the next replay's, not this stale spec's.
  ASSIGN_OR_RETURN(CoordReply intent,
                   AdminExecute(spec.src, CoordOp::kRead, IntentKey(spec)));
  if (!intent.ok() || intent.value != EncodeSpec(spec)) {
    ReleaseFreeze(spec);
    return size_t{0};
  }
  // Past the commit marker the imports are done: only the route change and
  // the retirement remain.
  ASSIGN_OR_RETURN(CoordReply marker,
                   AdminExecute(spec.dst, CoordOp::kRead, CommitKey(spec)));
  const bool committed = marker.ok();
  ASSIGN_OR_RETURN(std::vector<CoordEntryView> moved, SelectSource(spec));
  if (spec.is_rename() && moved.empty() && !committed) {
    // The sources vanished before the commit: nothing is left to move.
    RETURN_IF_ERROR(RetireRecords(spec));
    return NotFoundError(spec.from);
  }
  return FinishMove(spec, moved, committed, /*live=*/false, started);
}

Result<size_t> PartitionedCoordination::FinishMove(
    const MoveSpec& spec, const std::vector<CoordEntryView>& moved,
    bool committed, bool live, VirtualTime started) {
  if (!committed) {
    // Import every selected entry at its destination. Imports are
    // idempotent (the new version derives from the payload), so a replay
    // that re-imports lands on identical state.
    const bool crash = live && CrashAt(MoveCrashPoint::kMidImport);
    RETURN_IF_ERROR(RunDataCommands(spec, CoordOp::kImportEntry, moved,
                                    crash ? moved.size() / 2 : moved.size()));
    if (crash) {
      return InternalError("injected crash mid-import");
    }
    // The commit marker: the point of no return. Before it a replay
    // re-imports; after it the move is a fact.
    ASSIGN_OR_RETURN(CoordReply marker,
                     AdminExecute(spec.dst, CoordOp::kWrite, CommitKey(spec),
                                  EncodeSpec(spec)));
    RETURN_IF_ERROR(marker.ToStatus("move commit " + CommitKey(spec)));
    if (live && CrashAt(MoveCrashPoint::kAfterCommit)) {
      return InternalError("injected crash after commit");
    }
  }
  if (!spec.is_rename()) {
    CommitRouteChange(spec, moved);
  }
  // Retire the sources, then the commit marker, then (last) the intent. The
  // intent is the replay trigger, so any crash inside retirement leaves a
  // replayable state; a re-retire tolerates what an earlier attempt removed.
  const bool crash = live && CrashAt(MoveCrashPoint::kMidRetire);
  RETURN_IF_ERROR(RunDataCommands(spec, CoordOp::kRemove, moved,
                                  crash ? moved.size() / 2 : moved.size()));
  if (crash) {
    return InternalError("injected crash mid-retire");
  }
  RETURN_IF_ERROR(RetireRecords(spec));
  if (!spec.is_rename()) {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (spec.merge) {
      ++elastic_.merges;
    } else {
      ++elastic_.splits;
    }
    elastic_.keys_migrated += moved.size();
    elastic_.last_migration_us = static_cast<uint64_t>(env_->Now() - started);
    // The load landscape just changed shape; stale EWMAs would re-trigger
    // the controller on history.
    windowed_ops_s_.clear();
  }
  return moved.size();
}

Result<std::vector<CoordEntryView>> PartitionedCoordination::SelectSource(
    const MoveSpec& spec) {
  if (spec.is_rename()) {
    // A scatter export as the renaming principal: it demands write access
    // to every entry, the trigger's own check, before anything moves.
    CoordCommand cmd;
    cmd.op = CoordOp::kExportPrefix;
    cmd.client = spec.principal;
    cmd.key = spec.from;
    ASSIGN_OR_RETURN(CoordReply exported, ScatterGather(cmd));
    RETURN_IF_ERROR(exported.ToStatus("rename export " + spec.from));
    return std::move(exported.entries);
  }
  // One ordered export of the source's full slice, filtered to the moving
  // range. The range is write-frozen, so this snapshot cannot go stale
  // between export and commit.
  ASSIGN_OR_RETURN(CoordReply exported,
                   AdminExecute(spec.src, CoordOp::kExportPrefix, ""));
  RETURN_IF_ERROR(exported.ToStatus("migration export"));
  std::vector<CoordEntryView> moved;
  for (auto& entry : exported.entries) {
    if (StartsWith(entry.key, kElasticPrefix)) {
      continue;  // the engine's records never migrate
    }
    if (HashInRange(PartitionRoutingHash(entry.key), spec)) {
      moved.push_back(std::move(entry));
    }
  }
  return moved;
}

Status PartitionedCoordination::RunDataCommands(
    const MoveSpec& spec, CoordOp op, const std::vector<CoordEntryView>& entries,
    size_t count) {
  // Group the commands by the partition that executes them. A rename's are
  // its principal's own, routed like any other (stalling on a migrating
  // range) and checked against its ACLs. A migration addresses its source
  // and destination directly: mid-migration they disagree with the map by
  // construction.
  std::map<unsigned, std::vector<CoordCommand>> batches;
  for (size_t i = 0; i < count; ++i) {
    CoordCommand cmd = MoveCommand(spec, op, entries[i]);
    unsigned target = op == CoordOp::kImportEntry ? spec.dst : spec.src;
    if (spec.is_rename()) {
      ASSIGN_OR_RETURN(target, Route(&cmd));
    }
    batches[target].push_back(std::move(cmd));
  }
  // One pipelined batch per partition, the partitions concurrently: a move
  // takes one executor task per partition it touches, however many entries
  // it moves, and is charged the slowest partition's batch.
  std::vector<Future<std::vector<Result<CoordReply>>>> rounds;
  rounds.reserve(batches.size());
  for (const auto& [partition, commands] : batches) {
    SmrCluster* cluster = partitions_[partition].get();
    rounds.push_back(SubmitTracked(&inflight_, [cluster, &commands] {
      return cluster->ExecuteBatch(commands);
    }));
  }
  // Every executed command's revocations go out before the first failure
  // is reported.
  Status first_failure = OkStatus();
  for (const auto& replies : WhenAll(std::move(rounds)).Get()) {
    for (const auto& reply : replies) {
      Status status = OkStatus();
      if (!reply.ok()) {
        status = reply.status();
      } else {
        if (!reply->revoked.empty() && config_.on_revocation) {
          config_.on_revocation(reply->revoked);
        }
        if (!reply->ok() &&
            !(op == CoordOp::kRemove && reply->code == ErrorCode::kNotFound)) {
          status = reply->ToStatus(op == CoordOp::kRemove ? "move retire"
                                                          : "move import");
        }
      }
      if (first_failure.ok()) {
        first_failure = std::move(status);
      }
    }
  }
  return first_failure;
}

CoordCommand PartitionedCoordination::MoveCommand(const MoveSpec& spec,
                                                  CoordOp op,
                                                  const CoordEntryView& entry) {
  CoordCommand cmd;
  cmd.op = op;
  cmd.key = entry.key;
  if (op == CoordOp::kImportEntry) {
    cmd.value = entry.value;
    if (spec.is_rename()) {
      cmd.key = spec.to + entry.key.substr(spec.from.size());
    }
  }
  cmd.client = spec.is_rename() ? spec.principal : kCoordAdminPrincipal;
  return cmd;
}

Status PartitionedCoordination::RetireRecords(const MoveSpec& spec) {
  const std::pair<unsigned, std::string> records[] = {
      {spec.dst, CommitKey(spec)}, {spec.src, IntentKey(spec)}};
  for (const auto& [partition, key] : records) {
    ASSIGN_OR_RETURN(CoordReply removed,
                     AdminExecute(partition, CoordOp::kRemove, key));
    if (!removed.ok() && removed.code != ErrorCode::kNotFound) {
      return removed.ToStatus("move retire " + key);
    }
  }
  return OkStatus();
}

void PartitionedCoordination::CommitRouteChange(
    const MoveSpec& spec, const std::vector<CoordEntryView>& moved) {
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (map_->PartitionForHash(spec.begin) != spec.dst) {
      // Rewrite the authoritative map: carve [begin, end) out of whatever
      // ranges cover it, hand it to dst, coalesce, bump the epoch by one.
      RouteMap next;
      next.epoch = map_->epoch + 1;
      auto emit = [&next](uint64_t start, unsigned partition) {
        if (!next.ranges.empty() &&
            next.ranges.back().partition == partition) {
          return;  // coalesce adjacent ranges of one partition
        }
        if (!next.ranges.empty() && next.ranges.back().start == start) {
          next.ranges.back().partition = partition;  // replace empty slice
          return;
        }
        next.ranges.push_back(RouteRange{start, partition});
      };
      for (size_t i = 0; i < map_->ranges.size(); ++i) {
        const RouteRange& range = map_->ranges[i];
        const uint64_t range_end = i + 1 < map_->ranges.size()
                                       ? map_->ranges[i + 1].start
                                       : 0;  // 0 = top of the hash space
        // Split this range at the migration boundaries and re-emit each
        // piece with its (possibly new) owner. A piece is inside the
        // migrating slice iff its start is.
        std::vector<uint64_t> cuts = {range.start};
        if (spec.begin > range.start &&
            (range_end == 0 || spec.begin < range_end)) {
          cuts.push_back(spec.begin);
        }
        if (spec.end != 0 && spec.end > range.start &&
            (range_end == 0 || spec.end < range_end)) {
          cuts.push_back(spec.end);
        }
        std::sort(cuts.begin(), cuts.end());
        for (uint64_t cut : cuts) {
          emit(cut, HashInRange(cut, spec) ? spec.dst : range.partition);
        }
      }
      map_ = std::make_shared<const RouteMap>(std::move(next));
    }
  }
  // Revoke delegated caches covering the moved keys BEFORE lifting the
  // write freeze. Holders must drop before any post-commit mutation (which
  // would revoke only on the NEW owner, whose lease slice the old grant
  // does not live on) can be acknowledged.
  if (config_.on_revocation && !moved.empty()) {
    std::vector<LeaseRevocation> revoked;
    revoked.reserve(moved.size());
    for (const auto& entry : moved) {
      revoked.push_back(LeaseRevocation{entry.key, 0});
    }
    config_.on_revocation(revoked);
  }
  ReleaseFreeze(spec);
}

Status PartitionedCoordination::SplitPartition(unsigned src) {
  if (src >= partitions_.size()) {
    return InvalidArgumentError("no such partition");
  }
  MoveSpec spec;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (migrating_.has_value()) {
      return BusyError("a range migration is already in flight");
    }
    // The spare: a partition owning no ranges.
    std::vector<bool> owns(partitions_.size(), false);
    for (const RouteRange& range : map_->ranges) {
      owns[range.partition] = true;
    }
    unsigned spare = static_cast<unsigned>(partitions_.size());
    for (unsigned p = 0; p < partitions_.size(); ++p) {
      if (!owns[p]) {
        spare = p;
        break;
      }
    }
    if (spare == partitions_.size()) {
      return UnavailableError("no spare partition to split onto");
    }
    // Split src's widest range at its hash midpoint: the top half moves.
    uint64_t best_start = 0;
    uint64_t best_width = 0;  // mod 2^64: 0 encodes the full space
    bool found = false;
    for (size_t i = 0; i < map_->ranges.size(); ++i) {
      if (map_->ranges[i].partition != src) {
        continue;
      }
      const uint64_t start = map_->ranges[i].start;
      const uint64_t end =
          i + 1 < map_->ranges.size() ? map_->ranges[i + 1].start : 0;
      const uint64_t width = end - start;  // mod 2^64
      const bool wider =
          !found || width == 0 || (best_width != 0 && width > best_width);
      if (wider) {
        found = true;
        best_start = start;
        best_width = width;
      }
    }
    if (!found) {
      return FailedPreconditionError("partition owns no range to split");
    }
    const uint64_t half = best_width == 0 ? (1ull << 63) : best_width / 2;
    if (half == 0) {
      return FailedPreconditionError("range too narrow to split");
    }
    spec.begin = best_start + half;
    spec.end = best_start + best_width;  // mod 2^64: 0 when at the top
    spec.src = src;
    spec.dst = spare;
    spec.merge = false;
  }
  return Move(spec, /*resume=*/false).status();
}

Status PartitionedCoordination::MergePartitions(unsigned src, unsigned dst) {
  if (src >= partitions_.size() || dst >= partitions_.size() || src == dst) {
    return InvalidArgumentError("bad merge pair");
  }
  // Move src's ranges onto dst one migration at a time (each is its own
  // intent/commit cycle); when the last lands, src is a spare again.
  while (true) {
    MoveSpec spec;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      if (migrating_.has_value()) {
        return BusyError("a range migration is already in flight");
      }
      bool found = false;
      for (size_t i = 0; i < map_->ranges.size(); ++i) {
        if (map_->ranges[i].partition != src) {
          continue;
        }
        spec.begin = map_->ranges[i].start;
        spec.end = i + 1 < map_->ranges.size() ? map_->ranges[i + 1].start : 0;
        spec.src = src;
        spec.dst = dst;
        spec.merge = true;
        found = true;
        break;
      }
      if (!found) {
        return OkStatus();  // src owns nothing (anymore)
      }
    }
    RETURN_IF_ERROR(Move(spec, /*resume=*/false).status());
  }
}

Status PartitionedCoordination::ReplayIntents() {
  // Scan every partition for outstanding intents and roll each forward.
  // Records never migrate, so a move's intent is still on the partition
  // that prepared it, spares included. The scans run concurrently, one
  // round in all; not through ScatterGather, whose merge would keep only
  // one of two intents that share an id on different partitions.
  std::vector<Future<Result<CoordReply>>> scans;
  scans.reserve(partitions_.size());
  for (unsigned p = 0; p < partitions_.size(); ++p) {
    scans.push_back(SubmitTracked(&inflight_, [this, p] {
      return AdminExecute(p, CoordOp::kReadPrefix, kIntentPrefix);
    }));
  }
  std::vector<Result<CoordReply>> intents = WhenAll(std::move(scans)).Get();
  Status first = OkStatus();
  for (unsigned p = 0; p < intents.size(); ++p) {
    RETURN_IF_ERROR(intents[p].status());
    RETURN_IF_ERROR(intents[p]->ToStatus("intent replay scan"));
    for (const auto& record : intents[p]->entries) {
      MoveSpec spec;
      if (!DecodeSpec(record.value, &spec) || spec.src != p) {
        return CorruptionError("malformed intent " + record.key);
      }
      Status replayed = Move(spec, /*resume=*/true).status();
      if (replayed.code() == ErrorCode::kBusy ||
          replayed.code() == ErrorCode::kNotFound) {
        continue;  // still running here, or nothing was left to move
      }
      if (!replayed.ok() && first.ok()) {
        first = replayed;
      }
    }
  }
  return first;
}

void PartitionedCoordination::ControllerLoop() {
  // The load-aware split controller: one extra concurrent actor per
  // deployment, folding windowed counter deltas — never cumulative
  // counters, which blend current load with all history since mount — into
  // per-partition ops/s EWMAs, and migrating ranges when the landscape
  // stays skewed. Requires a scaled environment (in instant mode the
  // window sleeps would race the virtual clock forward).
  PartitionLoadSnapshot prev = LoadSnapshot();
  while (!controller_stop_.load()) {
    VirtualDuration remaining = config_.split_window;
    while (remaining > 0 && !controller_stop_.load()) {
      const VirtualDuration chunk =
          std::min<VirtualDuration>(remaining, 50 * kMillisecond);
      env_->Sleep(chunk);
      remaining -= chunk;
    }
    if (controller_stop_.load()) {
      break;
    }
    PartitionLoadSnapshot snap = LoadSnapshot();
    const std::vector<double> rates = PartitionOpsPerSecond(prev, snap);
    prev = snap;
    if (rates.empty()) {
      continue;
    }
    double total = 0;
    unsigned hot = 0;
    unsigned cold = 0;
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(route_mu_);
      if (windowed_ops_s_.size() != rates.size()) {
        windowed_ops_s_ = rates;
      } else {
        for (size_t i = 0; i < rates.size(); ++i) {
          windowed_ops_s_[i] = 0.5 * windowed_ops_s_[i] + 0.5 * rates[i];
        }
      }
      std::vector<bool> owns(partitions_.size(), false);
      for (const RouteRange& range : map_->ranges) {
        owns[range.partition] = true;
      }
      cold = static_cast<unsigned>(windowed_ops_s_.size());
      for (unsigned i = 0; i < windowed_ops_s_.size(); ++i) {
        total += windowed_ops_s_[i];
        if (windowed_ops_s_[i] > windowed_ops_s_[hot]) {
          hot = i;
        }
        if (owns[i] && (cold == windowed_ops_s_.size() ||
                        windowed_ops_s_[i] < windowed_ops_s_[cold])) {
          cold = i;
        }
      }
      busy = migrating_.has_value();
    }
    if (busy || total < config_.split_min_total_ops_s) {
      continue;
    }
    const double hot_share = WindowedHotShare();
    if (hot_share > config_.split_hot_share) {
      SplitPartition(hot);  // kUnavailable without a spare; benign
      continue;
    }
    if (config_.merge_cold_share > 0 &&
        active_partition_count() > std::max(1u, config_.partitions)) {
      const std::vector<double> windowed = WindowedOpsPerSecond();
      if (cold < windowed.size() && total > 0 &&
          windowed[cold] / total < config_.merge_cold_share) {
        // Fold the cooled partition into the least-loaded *other* active
        // partition.
        unsigned dst = cold;
        for (unsigned i = 0; i < windowed.size(); ++i) {
          if (i != cold && (dst == cold || windowed[i] < windowed[dst])) {
            dst = i;
          }
        }
        if (dst != cold) {
          MergePartitions(cold, dst);
        }
      }
    }
  }
}

}  // namespace scfs
