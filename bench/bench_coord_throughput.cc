// Coordination-plane throughput: closed-loop multi-client benchmarks over
// the replicated SMR cluster (the consistency anchor of every shared-file
// metadata operation, paper §3.2 / Table 3).
//
// Workloads 1-3 run twice on the same in-binary cluster code:
//
//   seed      batching + read fast path disabled, one consensus instance at
//             a time (the pre-batching lock-step configuration)
//   batched   leader batching + pipelining + read-only fast path (defaults)
//
//   1. ordered    32 closed-loop clients issuing writes (totally ordered)
//   2. reads      32 closed-loop clients issuing reads of their own keys
//   3. mixed      Table-3-style metadata loop per client: create + getattr
//                 burst (3 reads) + lock/unlock + publish
//   4. recovery   a replica lags far beyond the executed-batch window while
//                 crashed, restarts, and rejoins via snapshot state
//                 transfer; reports the rejoin latency
//   5. partition  the partitioned coordination plane: a mixed workload
//                 (writes + getattr-style fast reads + lock pairs) from 32
//                 clients x 8 concurrent streams, swept over 1/2/4/8 SMR
//                 partitions with a capacity-bound per-partition pipeline;
//                 reports per-partition and aggregate ordered throughput
//   6. lease      grant/serve/revoke amortization of the lease plane
//   7. split      the elastic coordination plane: a skewed closed-loop
//                 workload concentrates 2/3 of traffic on partition 0 of a
//                 2-active + 1-spare deployment with the load-aware split
//                 controller on; the bench measures aggregate ops/s before
//                 and after the automatic split and compares the post-split
//                 plane against a statically balanced 3-partition deployment
//                 (recovery ratio, gated >= 0.8 in CI), then audits the key
//                 population for lost or duplicated entries
//
// Elapsed time is virtual (the environment clock), so results measure the
// modelled protocol and queueing delays, not host speed. Emits
// BENCH_coord.json via the shared harness.
//
// Usage: bench_coord_throughput [--quick] [--json PATH]

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/cloud/providers.h"
#include "src/coord/partitioned_coordination.h"
#include "src/coord/smr.h"

namespace scfs {
namespace {

struct Options {
  bool quick = false;
  std::string json_path = "BENCH_coord.json";
};

// The coordination round trips are tens of modelled milliseconds; run them
// at a scale where scheduler wakeup noise (tens of real microseconds) stays
// ~1% of the signal. Overridable like the other benches.
double CoordTimeScale() {
  return BenchTimeScale(0.05);  // 1 virtual second = 50 real ms
}

SmrConfig MakeConfig(bool seed_mode) {
  // The CoC deployment's geometry: four European computing clouds, ~30 ms
  // client links, ~10 ms inter-replica links (see Deployment::Create).
  SmrConfig config;
  config.f = 1;
  config.byzantine = true;
  for (unsigned i = 0; i < config.replica_count(); ++i) {
    config.client_links.push_back(CoordinationLinkLatency(i));
  }
  config.replica_link =
      LatencyModel::WideArea(FromMillis(9), FromMillis(5), 16.0);
  config.client_timeout = 30 * kSecond;
  // Failure detector: must exceed the worst-case queueing delay of the
  // lock-step seed configuration (32 clients x ~25 ms per instance).
  config.order_timeout = 5 * kSecond;
  if (seed_mode) {
    config.enable_batching = false;
    config.enable_read_fast_path = false;
    config.max_inflight_instances = 1;
  }
  return config;
}

std::string ClientName(int index) {
  return "bench-client-" + std::to_string(index);
}

// Closed-loop fan-out: `clients` threads each run `per_client(c)`.
void RunClients(int clients, const std::function<void(int)>& per_client) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] { per_client(c); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

struct Throughput {
  double ops_per_s = 0;
  double mean_latency_ms = 0;
  SmrCounters counters;

  double batch_factor() const {
    return counters.proposed_instances > 0
               ? static_cast<double>(counters.proposed_requests) /
                     counters.proposed_instances
               : 0;
  }
};

// Workload 1: totally-ordered writes, distinct keys per client.
Throughput RunOrderedConfig(Environment* env, const SmrConfig& config,
                            int clients, int ops) {
  ReplicatedCoordination coord(env, config);
  std::vector<double> latencies_ms(clients, 0);
  VirtualTime t0 = env->Now();
  RunClients(clients, [&](int c) {
    const std::string client = ClientName(c);
    for (int i = 0; i < ops; ++i) {
      std::string key = "k" + std::to_string(c) + ":" + std::to_string(i);
      VirtualTime start = env->Now();
      (void)coord.Write(client, key, ToBytes("v"));
      latencies_ms[c] += ToSeconds(env->Now() - start) * 1e3;
    }
  });
  double seconds = ToSeconds(env->Now() - t0);
  Throughput out;
  out.ops_per_s = seconds > 0 ? clients * ops / seconds : 0;
  double total_ms = 0;
  for (double ms : latencies_ms) {
    total_ms += ms;
  }
  out.mean_latency_ms = clients * ops > 0 ? total_ms / (clients * ops) : 0;
  out.counters = coord.cluster().counters();
  return out;
}

Throughput RunOrdered(Environment* env, bool seed_mode, int clients, int ops) {
  return RunOrderedConfig(env, MakeConfig(seed_mode), clients, ops);
}

struct ReadLatency {
  double mean_ms = 0;
  double p95_ms = 0;
  SmrCounters counters;
};

// Workload 2: concurrent reads of per-client keys (the getattr-style
// accesses that dominate shared-file metadata traffic).
ReadLatency RunReads(Environment* env, bool seed_mode, int clients, int ops) {
  ReplicatedCoordination coord(env, MakeConfig(seed_mode));
  for (int c = 0; c < clients; ++c) {
    (void)coord.Write(ClientName(c), "r" + std::to_string(c), ToBytes("v"));
  }
  std::vector<std::vector<double>> latencies(clients);
  RunClients(clients, [&](int c) {
    const std::string client = ClientName(c);
    const std::string key = "r" + std::to_string(c);
    latencies[c].reserve(ops);
    for (int i = 0; i < ops; ++i) {
      VirtualTime start = env->Now();
      (void)coord.Read(client, key);
      latencies[c].push_back(ToSeconds(env->Now() - start) * 1e3);
    }
  });
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  ReadLatency out;
  LatencySummary summary = Summarize(std::move(all));
  out.mean_ms = summary.mean;
  out.p95_ms = summary.p95;
  out.counters = coord.cluster().counters();
  return out;
}

// Workload 3: the Table-3 metadata shape — per iteration one create, a
// getattr burst of three reads, a lock/unlock pair and one publish.
Throughput RunMixed(Environment* env, bool seed_mode, int clients,
                    int iterations) {
  ReplicatedCoordination coord(env, MakeConfig(seed_mode));
  constexpr int kOpsPerIteration = 7;
  VirtualTime t0 = env->Now();
  RunClients(clients, [&](int c) {
    const std::string client = ClientName(c);
    for (int i = 0; i < iterations; ++i) {
      std::string key = "m" + std::to_string(c) + ":" + std::to_string(i);
      (void)coord.Write(client, key, ToBytes("meta"));
      for (int g = 0; g < 3; ++g) {
        (void)coord.Read(client, key);
      }
      auto lock = coord.TryLock(client, "l" + key, kSecond);
      if (lock.ok()) {
        (void)coord.Unlock(client, "l" + key, lock->token);
      }
      (void)coord.Write(client, key, ToBytes("meta2"));
    }
  });
  double seconds = ToSeconds(env->Now() - t0);
  Throughput out;
  out.ops_per_s =
      seconds > 0 ? clients * iterations * kOpsPerIteration / seconds : 0;
  out.counters = coord.cluster().counters();
  return out;
}

struct Rejoin {
  double rejoin_ms = 0;     // restart -> frontier + digest convergence
  bool converged = false;
  SmrCounters counters;
};

// Workload 4: recovery. A replica is crashed while the quorum advances far
// beyond the executed-batch window, then restarted; before snapshot state
// transfer it wedged at its gap forever. The scenario uses a scaled-down
// window/checkpoint geometry (64/16 instead of 256/64) so the lag phase
// stays cheap, and a tighter failure detector so the wedge is noticed at a
// recovery-relevant cadence; rejoin latency is dominated by the detector
// timeout plus one snapshot round, so it is reported against that config.
Rejoin RunRecovery(Environment* env, bool quick) {
  SmrConfig config = MakeConfig(false);
  config.executed_batch_window = 64;
  config.checkpoint_interval = 16;
  config.order_timeout = 1500 * kMillisecond;
  ReplicatedCoordination coord(env, config);
  auto& cluster = coord.cluster();
  cluster.CrashReplica(3);
  // One closed-loop client: each write rides its own instance, so the
  // frontier advances past the 64-seq window.
  const int lag_ops = quick ? 80 : 100;
  for (int i = 0; i < lag_ops; ++i) {
    (void)coord.Write(ClientName(0), "lag:" + std::to_string(i),
                      ToBytes("v"));
  }
  const uint64_t target = cluster.exec_frontier(0);
  cluster.RestartReplica(3);
  VirtualTime t0 = env->Now();
  // Light background traffic: the restarted replica learns the live
  // frontier from it (evidence for the wedge detector).
  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    int i = 0;
    while (!stop.load()) {
      (void)coord.Write(ClientName(1), "post:" + std::to_string(i++),
                        ToBytes("v"));
    }
  });
  Rejoin out;
  const VirtualTime deadline = env->Now() + 120 * kSecond;
  while (env->Now() < deadline && cluster.exec_frontier(3) < target) {
    env->Sleep(100 * kMillisecond);
  }
  out.rejoin_ms = ToSeconds(env->Now() - t0) * 1e3;
  stop.store(true);
  traffic.join();
  // Validation after quiescence: the rejoined replica's state digest must
  // match the quorum's.
  for (int spin = 0; spin < 100 && !out.converged; ++spin) {
    out.converged = cluster.exec_frontier(3) >= target &&
                    cluster.state_digest(3) == cluster.state_digest(1);
    if (!out.converged) {
      env->Sleep(100 * kMillisecond);
    }
  }
  out.counters = cluster.counters();
  return out;
}

// Workload 6: the partition sweep. Offered load is fixed — 32 clients, each
// keeping 4 concurrent streams in flight, every stream looping writes with
// a getattr-style read every other iteration and a lock/unlock pair every
// fourth — while the number of partitions sweeps 1/2/4/8. Each partition
// runs a deliberately capacity-bound ordering pipeline (one instance in
// flight, 2 requests per batch ~= 100 ordered ops/s at the CoC
// inter-replica RTT): real BFT deployments bound both the protocol window
// and the per-instance crypto budget, and the default deep pipeline never
// saturates at this client count, which would leave every point
// latency-bound and measure the client loop instead of the sharding. The
// sweep runs on its own coarser-scaled environment (8x the bench scale):
// 128 client threads plus up to 32 replica threads overwhelm a small host
// at the default scale, and host scheduling must not leak into the
// virtual-time results (the numbers must be stable across SCFS_TIME_SCALE).
struct PartitionSweepPoint {
  unsigned partitions = 1;
  double agg_ordered_ops_s = 0;
  std::vector<double> per_partition_ops_s;
  SmrCounters counters;
};

PartitionSweepPoint RunPartitionPoint(Environment* env, unsigned partitions,
                                      bool quick) {
  constexpr int kSweepClients = 32;
  constexpr int kStreamsPerClient = 4;
  const int ops = quick ? 4 : 6;

  PartitionedCoordinationConfig pconfig;
  pconfig.partitions = partitions;
  pconfig.smr = MakeConfig(false);
  pconfig.smr.max_inflight_instances = 1;
  pconfig.smr.max_batch = 2;
  PartitionedCoordination coord(env, pconfig);

  VirtualTime t0 = env->Now();
  RunClients(kSweepClients * kStreamsPerClient, [&](int s) {
    const std::string client = ClientName(s / kStreamsPerClient);
    const std::string stream = std::to_string(s);
    for (int i = 0; i < ops; ++i) {
      std::string key = "pw:" + stream + ":" + std::to_string(i);
      (void)coord.Write(client, key, ToBytes("v"));
      if (i % 2 == 1) {
        (void)coord.Read(client, key);  // fast path, not ordered
      }
      if (i % 4 == 3) {
        auto lock = coord.TryLock(client, "pl:" + stream, 30 * kSecond);
        if (lock.ok()) {
          (void)coord.Unlock(client, "pl:" + stream, lock->token);
        }
      }
    }
  });
  double seconds = ToSeconds(env->Now() - t0);
  PartitionSweepPoint out;
  out.partitions = partitions;
  double total_ordered = 0;
  for (unsigned p = 0; p < partitions; ++p) {
    double ordered = static_cast<double>(
        coord.cluster(p).counters().ordered_commands);
    total_ordered += ordered;
    out.per_partition_ops_s.push_back(seconds > 0 ? ordered / seconds : 0);
  }
  out.agg_ordered_ops_s = seconds > 0 ? total_ordered / seconds : 0;
  out.counters = coord.counters();
  return out;
}

// Workload 7: the lease plane. Per client: populate a private directory
// prefix, acquire a read lease over it (one ordered command returning every
// covered entry), then run a getattr burst that a lease-holding client
// serves locally — zero coordination messages — and finally one write into
// the leased prefix, whose ordered reply must piggyback the revocation
// (revocations ride the existing reply plumbing; no extra protocol round).
// Reports the grant's amortization factor: reads served per ordered grant.
struct LeaseBench {
  double grant_mean_ms = 0;      // AcquireLease round trip
  double entries_per_grant = 0;  // fileset entries returned by one grant
  double revoked_per_write = 0;  // revocations piggybacked on the mutation
  uint64_t ordered_commands = 0;
};

LeaseBench RunLeaseBench(Environment* env, int clients, int files) {
  ReplicatedCoordination coord(env, MakeConfig(false));
  RunClients(clients, [&](int c) {
    const std::string client = ClientName(c);
    for (int i = 0; i < files; ++i) {
      (void)coord.Write(client,
                        "m:/lease" + std::to_string(c) + "/f" +
                            std::to_string(i) + "/",
                        ToBytes("meta"));
    }
  });
  const uint64_t ordered_before = coord.cluster().counters().ordered_commands;
  std::vector<double> grant_ms(clients, 0);
  std::vector<double> entries(clients, 0);
  std::vector<double> revoked(clients, 0);
  RunClients(clients, [&](int c) {
    const std::string client = ClientName(c);
    const std::string prefix = "m:/lease" + std::to_string(c) + "/";
    VirtualTime start = env->Now();
    auto grant = coord.AcquireLease(client, client, prefix, 30 * kSecond);
    grant_ms[c] = ToSeconds(env->Now() - start) * 1e3;
    if (grant.ok()) {
      entries[c] = static_cast<double>(grant->entries.size());
    }
    // The getattr burst a leased client absorbs locally: no coord calls.
    CoordCommand write;
    write.op = CoordOp::kWrite;
    write.client = client;
    write.key = prefix + "f0/";
    write.value = ToBytes("meta2");
    auto reply = coord.Submit(write);
    if (reply.ok()) {
      revoked[c] = static_cast<double>(reply->revoked.size());
    }
  });
  LeaseBench out;
  for (int c = 0; c < clients; ++c) {
    out.grant_mean_ms += grant_ms[c] / clients;
    out.entries_per_grant += entries[c] / clients;
    out.revoked_per_write += revoked[c] / clients;
  }
  out.ordered_commands =
      coord.cluster().counters().ordered_commands - ordered_before;
  return out;
}

// Workload 8: the elastic split demo. Three equal-traffic key buckets are
// pre-filtered by routing-hash quarter: buckets A ([0, 2^62)) and B
// ([2^62, 2^63)) both land on partition 0 of the initial 2-active uniform
// map, bucket C ([2^63, 2^64)) on partition 1 — a skewed (hot-partition)
// workload with 2/3 of the offered load on one capacity-bound pipeline,
// the coordination-plane shape of the scenario engine's Zipfian skew demo.
// The split controller watches windowed EWMAs and moves [2^62, 2^63) (all
// of bucket B) onto the spare, after which the three buckets map to three
// partitions 1:1:1. Measured: aggregate ops/s before the split, after it,
// and on a statically balanced 3-partition deployment running the same
// offered pattern (keys pre-bucketed per static partition) — post-split
// must recover >= 80% of static-3. After quiescing, a scatter-gather scan
// audits the key population: every written key present exactly once.
struct SplitDemo {
  bool fired = false;
  double pre_agg = 0;     // aggregate ops/s while partition 0 is hot
  double post_agg = 0;    // aggregate ops/s after the automatic split
  double static_agg = 0;  // statically balanced 3-partition baseline
  double recovery_ratio = 0;  // post_agg / static_agg
  double split_duration_ms = 0;
  uint64_t route_epoch_retries = 0;
  uint64_t migration_stalls = 0;
  uint64_t keys_migrated = 0;
  uint64_t lost_keys = 0;
  uint64_t dup_keys = 0;
  uint64_t write_errors = 0;
  // One row per 1-virtual-second tick: per-partition ops/s and the route
  // epoch at the end of the tick (the per-partition timeline).
  struct TimelineRow {
    double t_s = 0;
    uint64_t epoch = 0;
    std::vector<double> per_partition;
  };
  std::vector<TimelineRow> timeline;
};

// `count` keys under `prefix` whose routing hash falls in hash-space
// quarter `quarter` (top two hash bits). Deterministic: rejection-samples
// the natural numbers.
std::vector<std::string> KeysInHashQuarter(const std::string& prefix,
                                           unsigned quarter, size_t count) {
  std::vector<std::string> keys;
  for (uint64_t i = 0; keys.size() < count; ++i) {
    std::string key = prefix + std::to_string(i);
    if ((PartitionRoutingHash(key) >> 62) == quarter) {
      keys.push_back(key);
    }
  }
  return keys;
}

// Tuple ACLs are owner-only by default; the demo's keys are shared by the
// whole fleet, so one seeder creates each key and world-opens it (the
// migration carries ACLs with the entry, so grants survive the split).
void SeedSplitKeys(PartitionedCoordination* coord,
                   const std::vector<std::vector<std::string>>& pools) {
  const std::string seeder = ClientName(0);
  for (const auto& pool : pools) {
    for (const auto& key : pool) {
      (void)coord->Write(seeder, key, ToBytes("v"));
      (void)coord->GrantEntryAccess(seeder, key, "*", true, true);
    }
  }
}

// Closed-loop writers cycling the key pools round-robin (pool = op mod
// pools, so each pool receives exactly 1/3 of the offered load) with an
// occasional fast read, until *stop. Write failures are counted, never
// retried (the router's transparent retry is below this).
std::vector<std::thread> StartSplitClients(
    PartitionedCoordination* coord,
    const std::vector<std::vector<std::string>>* pools, int clients,
    std::atomic<bool>* stop, std::atomic<uint64_t>* write_errors) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([=] {
      const std::string client = ClientName(c);
      uint64_t n = c;  // staggered start: the fleet covers every key
      while (!stop->load(std::memory_order_relaxed)) {
        const auto& pool = (*pools)[n % pools->size()];
        const std::string& key = pool[(n / pools->size()) % pool.size()];
        if (!coord->Write(client, key, ToBytes("v")).ok()) {
          write_errors->fetch_add(1, std::memory_order_relaxed);
        }
        if (n % 4 == 3) {
          (void)coord->Read(client, key);  // fast path, not ordered
        }
        ++n;
      }
    });
  }
  return threads;
}

double AggregateRate(const PartitionLoadSnapshot& before,
                     const PartitionLoadSnapshot& after) {
  double total = 0;
  for (double rate : PartitionOpsPerSecond(before, after)) {
    total += rate;
  }
  return total;
}

SplitDemo RunSplitDemo(Environment* env, bool quick) {
  const int kDemoClients = 24;
  const size_t kKeysPerPool = 12;
  const int warmup_ticks = 1;
  const int measure_ticks = quick ? 2 : 3;
  const int max_wait_ticks = quick ? 16 : 24;
  SplitDemo out;

  // --- Elastic run: 2 active partitions + 1 spare, controller on. The
  // min-total gate sits well above the single-threaded seeding rate
  // (~15 ops/s) and well below the fleet's (~200+), so the controller
  // ignores the seeding phase and fires a few EWMA windows into the
  // fleet's skewed load.
  PartitionedCoordinationConfig pconfig;
  pconfig.partitions = 2;
  pconfig.spare_partitions = 1;
  pconfig.smr = MakeConfig(false);
  pconfig.smr.max_inflight_instances = 1;
  pconfig.smr.max_batch = 2;
  pconfig.auto_split = true;
  pconfig.split_window = 3 * kSecond;
  pconfig.split_hot_share = 0.55;  // offered hot share is 2/3
  pconfig.split_min_total_ops_s = 80.0;
  PartitionedCoordination coord(env, pconfig);

  const std::vector<std::vector<std::string>> pools = {
      KeysInHashQuarter("bkt:a", 0, kKeysPerPool),
      KeysInHashQuarter("bkt:b", 1, kKeysPerPool),
      KeysInHashQuarter("bkt:c", 2, kKeysPerPool),
  };

  SeedSplitKeys(&coord, pools);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> write_errors{0};
  std::vector<std::thread> threads =
      StartSplitClients(&coord, &pools, kDemoClients, &stop, &write_errors);

  std::vector<PartitionLoadSnapshot> ticks;
  ticks.push_back(coord.LoadSnapshot());
  const VirtualTime t0 = env->Now();
  auto tick = [&] {
    env->Sleep(kSecond);
    ticks.push_back(coord.LoadSnapshot());
    SplitDemo::TimelineRow row;
    row.t_s = ToSeconds(env->Now() - t0);
    row.epoch = coord.route_epoch();
    row.per_partition =
        PartitionOpsPerSecond(ticks[ticks.size() - 2], ticks.back());
    out.timeline.push_back(row);
  };

  // Tick until the controller's split lands (EWMA windows + the migration
  // itself), recording the timeline as it goes.
  const uint64_t initial_epoch = coord.route_epoch();
  int waited = 0;
  while (coord.elastic_counters().splits == 0 && waited < max_wait_ticks) {
    tick();
    ++waited;
  }
  out.fired = coord.elastic_counters().splits >= 1;
  tick();  // settle: drain the stalled writes released at commit
  tick();

  // Pre-split window, in hindsight: the full ticks that ended at the
  // initial epoch. The last of them typically straddles the migration's
  // write freeze, so it is excluded (timeline row i covers snapshots
  // [i, i+1]; row.epoch is read at the row's end).
  size_t last_initial_row = 0;
  for (size_t i = 0; i < out.timeline.size(); ++i) {
    if (out.timeline[i].epoch == initial_epoch) {
      last_initial_row = i;
    }
  }
  const size_t pre_end = std::max<size_t>(1, last_initial_row);
  out.pre_agg = AggregateRate(ticks[0], ticks[pre_end]);

  const size_t post_start = ticks.size() - 1;
  for (int i = 0; i < measure_ticks; ++i) {
    tick();
  }
  out.post_agg = AggregateRate(ticks[post_start], ticks.back());

  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  env->Sleep(kSecond);  // quiesce before the audit

  const ElasticCounters elastic = coord.elastic_counters();
  out.split_duration_ms = elastic.last_migration_us / 1e3;
  out.route_epoch_retries = elastic.route_epoch_retries;
  out.migration_stalls = elastic.migration_stalls;
  out.keys_migrated = elastic.keys_migrated;
  out.write_errors = write_errors.load();

  // Audit: a scatter-gather scan over the whole key population must return
  // every key exactly once (owner-wins dedupe), no matter where the split
  // left the entries.
  auto scanned = coord.ReadPrefix(ClientName(0), "bkt:");
  std::map<std::string, int> seen;
  if (scanned.ok()) {
    for (const auto& entry : *scanned) {
      ++seen[entry.key];
    }
  }
  for (const auto& pool : pools) {
    for (const auto& key : pool) {
      auto it = seen.find(key);
      if (it == seen.end()) {
        ++out.lost_keys;
      } else if (it->second > 1) {
        out.dup_keys += it->second - 1;
      }
    }
  }

  // --- Static baseline: 3 active partitions, same client fleet and pool
  // shape, keys pre-bucketed so each pool lands wholly on its own
  // partition — the statically balanced deployment the elastic plane is
  // measured against.
  PartitionedCoordinationConfig sconfig;
  sconfig.partitions = 3;
  sconfig.smr = pconfig.smr;
  PartitionedCoordination static_coord(env, sconfig);
  std::vector<std::vector<std::string>> static_pools(3);
  for (unsigned p = 0; p < 3; ++p) {
    for (uint64_t i = 0; static_pools[p].size() < kKeysPerPool; ++i) {
      std::string key = "sbkt:" + std::to_string(p) + ":" + std::to_string(i);
      if (static_coord.PartitionOf(key) == p) {
        static_pools[p].push_back(key);
      }
    }
  }
  SeedSplitKeys(&static_coord, static_pools);
  std::atomic<bool> static_stop{false};
  std::atomic<uint64_t> static_errors{0};
  std::vector<std::thread> static_threads = StartSplitClients(
      &static_coord, &static_pools, kDemoClients, &static_stop,
      &static_errors);
  env->Sleep(warmup_ticks * kSecond);
  PartitionLoadSnapshot sbefore = static_coord.LoadSnapshot();
  env->Sleep(measure_ticks * kSecond);
  PartitionLoadSnapshot safter = static_coord.LoadSnapshot();
  static_stop.store(true);
  for (auto& thread : static_threads) {
    thread.join();
  }
  out.static_agg = AggregateRate(sbefore, safter);
  out.recovery_ratio = out.static_agg > 0 ? out.post_agg / out.static_agg : 0;
  return out;
}

void RunAll(const Options& options) {
  auto env = Environment::Scaled(CoordTimeScale());
  const int kClients = 32;
  const int ordered_ops = options.quick ? 4 : 16;
  const int read_ops = options.quick ? 4 : 12;
  const int mixed_iterations = options.quick ? 2 : 4;

  BenchJsonWriter json;
  std::vector<int> widths = {30, 14, 14, 10};

  PrintHeader("Coordination plane: ordered throughput (32 clients)");
  Throughput ordered_seed = RunOrdered(env.get(), true, kClients, ordered_ops);
  Throughput ordered_fast =
      RunOrdered(env.get(), false, kClients, ordered_ops);
  double ordered_speedup = ordered_seed.ops_per_s > 0
                               ? ordered_fast.ops_per_s / ordered_seed.ops_per_s
                               : 0;
  PrintRow({"workload", "seed", "batched", "speedup"}, widths);
  PrintRow({"ordered writes (ops/s)",
            std::to_string(static_cast<int>(ordered_seed.ops_per_s)),
            std::to_string(static_cast<int>(ordered_fast.ops_per_s)),
            FormatSeconds(ordered_speedup) + "x"},
           widths);
  json.Add("coord_ordered_seed", ordered_seed.ops_per_s, "ops/s");
  json.Add("coord_ordered_batched", ordered_fast.ops_per_s, "ops/s");
  json.Add("coord_ordered_speedup", ordered_speedup, "x");
  double batch_avg =
      ordered_fast.counters.proposed_instances > 0
          ? static_cast<double>(ordered_fast.counters.proposed_requests) /
                ordered_fast.counters.proposed_instances
          : 0;
  json.Add("coord_ordered_avg_batch", batch_avg, "reqs/instance");

  PrintHeader("Coordination plane: read latency (32 clients)");
  ReadLatency read_seed = RunReads(env.get(), true, kClients, read_ops);
  ReadLatency read_fast = RunReads(env.get(), false, kClients, read_ops);
  double read_ratio =
      read_fast.mean_ms > 0 ? read_seed.mean_ms / read_fast.mean_ms : 0;
  PrintRow({"read mean (ms)", FormatSeconds(read_seed.mean_ms),
            FormatSeconds(read_fast.mean_ms), FormatSeconds(read_ratio) + "x"},
           widths);
  PrintRow({"read p95 (ms)", FormatSeconds(read_seed.p95_ms),
            FormatSeconds(read_fast.p95_ms), ""},
           widths);
  json.Add("coord_read_seed_mean", read_seed.mean_ms, "ms");
  json.Add("coord_read_fast_mean", read_fast.mean_ms, "ms");
  json.Add("coord_read_latency_ratio", read_ratio, "x");
  json.Add("coord_read_fast_path_reads",
           static_cast<double>(read_fast.counters.fast_path_reads), "ops");
  json.Add("coord_read_fast_path_fallbacks",
           static_cast<double>(read_fast.counters.fast_path_fallbacks), "ops");

  PrintHeader("Coordination plane: mixed Table-3 metadata workload");
  Throughput mixed_seed =
      RunMixed(env.get(), true, kClients, mixed_iterations);
  Throughput mixed_fast =
      RunMixed(env.get(), false, kClients, mixed_iterations);
  double mixed_speedup =
      mixed_seed.ops_per_s > 0 ? mixed_fast.ops_per_s / mixed_seed.ops_per_s
                               : 0;
  PrintRow({"mixed metadata (ops/s)",
            std::to_string(static_cast<int>(mixed_seed.ops_per_s)),
            std::to_string(static_cast<int>(mixed_fast.ops_per_s)),
            FormatSeconds(mixed_speedup) + "x"},
           widths);
  json.Add("coord_mixed_seed", mixed_seed.ops_per_s, "ops/s");
  json.Add("coord_mixed_batched", mixed_fast.ops_per_s, "ops/s");
  json.Add("coord_mixed_speedup", mixed_speedup, "x");

  PrintHeader("Coordination plane: recovery (rejoin via snapshot)");
  Rejoin rejoin = RunRecovery(env.get(), options.quick);
  PrintRow({"metric", "value", "", ""}, widths);
  PrintRow({"rejoin latency (ms)", FormatSeconds(rejoin.rejoin_ms),
            rejoin.converged ? "converged" : "NOT CONVERGED", ""},
           widths);
  PrintRow({"snapshots installed",
            std::to_string(rejoin.counters.snapshots_installed), "", ""},
           widths);
  PrintRow({"checkpoints taken",
            std::to_string(rejoin.counters.checkpoints_taken), "", ""},
           widths);
  json.Add("coord_rejoin_ms", rejoin.rejoin_ms, "ms");
  json.Add("coord_rejoin_converged", rejoin.converged ? 1 : 0, "bool");
  json.Add("coord_rejoin_snapshot_installs",
           static_cast<double>(rejoin.counters.snapshots_installed), "count");

  PrintHeader("Coordination plane: lease grant/serve/revoke");
  LeaseBench lease =
      RunLeaseBench(env.get(), kClients, options.quick ? 4 : 16);
  PrintRow({"metric", "value", "", ""}, widths);
  PrintRow({"grant mean (ms)", FormatSeconds(lease.grant_mean_ms), "", ""},
           widths);
  PrintRow({"entries per grant", FormatSeconds(lease.entries_per_grant), "",
            ""},
           widths);
  PrintRow({"revoked per write", FormatSeconds(lease.revoked_per_write), "",
            ""},
           widths);
  json.Add("coord_lease_grant_ms", lease.grant_mean_ms, "ms");
  json.Add("coord_lease_entries_per_grant", lease.entries_per_grant,
           "entries");
  json.Add("coord_lease_revoked_per_write", lease.revoked_per_write,
           "leases");
  json.Add("coord_lease_ordered_commands",
           static_cast<double>(lease.ordered_commands), "cmds");

  // Partition sweep: aggregate ordered throughput vs partition count at
  // fixed offered load (per-partition pipeline capacity-bound; see
  // RunPartitionPoint).
  PrintHeader("Coordination plane: partition sweep (32 clients x 4 streams)");
  PrintRow({"partitions", "agg ordered/s", "min part/s", "max part/s"},
           widths);
  auto sweep_env = Environment::Scaled(CoordTimeScale() * 8);
  double part1_agg = 0;
  double part4_agg = 0;
  for (unsigned n : {1u, 2u, 4u, 8u}) {
    PartitionSweepPoint point =
        RunPartitionPoint(sweep_env.get(), n, options.quick);
    double min_part = point.per_partition_ops_s.empty()
                          ? 0
                          : *std::min_element(point.per_partition_ops_s.begin(),
                                              point.per_partition_ops_s.end());
    double max_part = point.per_partition_ops_s.empty()
                          ? 0
                          : *std::max_element(point.per_partition_ops_s.begin(),
                                              point.per_partition_ops_s.end());
    PrintRow({std::to_string(n),
              std::to_string(static_cast<int>(point.agg_ordered_ops_s)),
              std::to_string(static_cast<int>(min_part)),
              std::to_string(static_cast<int>(max_part))},
             widths);
    const std::string base = "coord_part" + std::to_string(n);
    json.Add(base + "_ordered_agg", point.agg_ordered_ops_s, "ops/s");
    for (unsigned p = 0; p < point.per_partition_ops_s.size(); ++p) {
      json.Add(base + "_p" + std::to_string(p) + "_ordered",
               point.per_partition_ops_s[p], "ops/s");
    }
    if (n == 1) {
      part1_agg = point.agg_ordered_ops_s;
    } else if (n == 4) {
      part4_agg = point.agg_ordered_ops_s;
    }
  }
  double part_speedup = part1_agg > 0 ? part4_agg / part1_agg : 0;
  json.Add("coord_part_speedup_4v1", part_speedup, "x");
  std::printf("\npartition sweep: 4-partition aggregate %.0f ops/s = %.2fx "
              "the 1-partition baseline (target >=3x)\n",
              part4_agg, part_speedup);

  // Elastic split demo (workload 8): runs on the same throttled clock as
  // the partition sweep — the controller's windowed rates need low noise.
  PrintHeader("Coordination plane: elastic split under skew (24 clients)");
  SplitDemo split = RunSplitDemo(sweep_env.get(), options.quick);
  PrintRow({"metric", "value", "", ""}, widths);
  PrintRow({"split fired", split.fired ? "yes" : "NO", "", ""}, widths);
  PrintRow({"pre-split agg (ops/s)",
            std::to_string(static_cast<int>(split.pre_agg)), "", ""},
           widths);
  PrintRow({"post-split agg (ops/s)",
            std::to_string(static_cast<int>(split.post_agg)), "", ""},
           widths);
  PrintRow({"static 3-part agg (ops/s)",
            std::to_string(static_cast<int>(split.static_agg)), "", ""},
           widths);
  PrintRow({"recovery ratio", FormatSeconds(split.recovery_ratio) + "x",
            "(target >=0.8)", ""},
           widths);
  PrintRow({"split duration (ms)", FormatSeconds(split.split_duration_ms),
            "", ""},
           widths);
  PrintRow({"route epoch retries",
            std::to_string(split.route_epoch_retries), "", ""},
           widths);
  PrintRow({"keys migrated", std::to_string(split.keys_migrated), "", ""},
           widths);
  PrintRow({"lost / dup keys",
            std::to_string(split.lost_keys) + " / " +
                std::to_string(split.dup_keys),
            "", ""},
           widths);
  std::printf("\nper-partition ops/s timeline (epoch bumps at the split):\n");
  std::printf("  %8s %7s  %s\n", "t (s)", "epoch", "partitions 0..N");
  for (const auto& row : split.timeline) {
    std::printf("  %8.1f %7llu ", row.t_s,
                static_cast<unsigned long long>(row.epoch));
    for (double rate : row.per_partition) {
      std::printf(" %7.0f", rate);
    }
    std::printf("\n");
  }
  json.Add("coord_split_fired", split.fired ? 1 : 0, "bool");
  json.Add("coord_split_pre_agg", split.pre_agg, "ops/s");
  json.Add("coord_split_post_agg", split.post_agg, "ops/s");
  json.Add("coord_split_static_agg", split.static_agg, "ops/s");
  json.Add("coord_split_recovery_ratio", split.recovery_ratio, "x");
  json.Add("coord_split_duration_ms", split.split_duration_ms, "ms");
  json.Add("coord_split_route_epoch_retries",
           static_cast<double>(split.route_epoch_retries), "count");
  json.Add("coord_split_migration_stalls",
           static_cast<double>(split.migration_stalls), "count");
  json.Add("coord_split_keys_migrated",
           static_cast<double>(split.keys_migrated), "count");
  json.Add("coord_split_lost_keys", static_cast<double>(split.lost_keys),
           "count");
  json.Add("coord_split_dup_keys", static_cast<double>(split.dup_keys),
           "count");
  json.Add("coord_split_write_errors",
           static_cast<double>(split.write_errors), "count");

  std::printf(
      "\nShape check: batching+pipelining must give >=5x ordered throughput\n"
      "at 32 clients, the read fast path >=3x lower read latency; the mixed\n"
      "workload sits in between. Avg batch %.1f reqs/instance; %llu fast\n"
      "reads, %llu fallbacks. The recovery scenario must converge with >=1\n"
      "snapshot install; its rejoin latency is at most one failure-detector\n"
      "timeout plus a snapshot round. The partition sweep must show\n"
      "aggregate ordered throughput scaling with the partition count at\n"
      "fixed offered load (>=3x at 4 partitions; CI fails if 4 partitions\n"
      "regress below 1).\n"
      "The elastic demo must fire exactly the automatic split, recover\n"
      ">=0.8x of the statically balanced 3-partition plane and lose or\n"
      "duplicate zero keys (all gated by tools/check_bench_coord.py).\n",
      batch_avg,
      static_cast<unsigned long long>(read_fast.counters.fast_path_reads),
      static_cast<unsigned long long>(
          read_fast.counters.fast_path_fallbacks));

  json.WriteFile(options.json_path);
}

}  // namespace
}  // namespace scfs

int main(int argc, char** argv) {
  scfs::Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      options.json_path = argv[++i];
    }
  }
  scfs::RunAll(options);
  return 0;
}
