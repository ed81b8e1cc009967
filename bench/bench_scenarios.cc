// bench_scenarios: open-loop personality sweeps against a deployed SCFS
// instance (the scenario engine, bench/scenario/README.md).
//
// For each personality the bench sweeps offered load over a small rate
// ladder, reporting per rate point the achieved throughput and the
// p50/p90/p99/p99.9 tail measured from *scheduled arrival* (coordinated
// omission included by construction), plus coordination-plane work per
// successful op. The knee — the largest offered rate still served at
// >= 90% — and the saturation throughput go to BENCH_scenarios.json.
//
// The Zipfian skew experiment runs the same append-heavy personality twice
// against a capacity-bound partitioned coordination plane — once uniform
// across partitions, once Zipf(theta=1.5) ranked by partition — and
// reports the p99 inflation the hot partition causes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/scenario/client_fleet.h"
#include "bench/scenario/personality.h"
#include "src/scfs/deployment.h"

namespace scfs {
namespace {

struct Options {
  bool quick = false;
  std::string json_path = "BENCH_scenarios.json";
  std::vector<std::string> personalities;  // empty = all five
  std::vector<std::string> sets;           // key=value overrides
  std::string spec_file;                   // extra custom personality
  uint64_t clients_override = 0;
  unsigned workers = 64;
  unsigned mounts = 4;
  unsigned partitions = 4;
  bool skew_demo = true;
  bool lease_demo = true;
};

// Off/on pairs the lease demo runs; the median pair is gated.
constexpr int kLeaseDemoPairs = 3;

// Coarser than every other bench (1 virtual second = 0.2 real seconds):
// the fleet executes thousands of crypto-bearing ops per virtual second,
// and the host must have enough real time per virtual second to run that
// compute or the measured window stretches and latencies absorb host
// scheduling, not modelled, delay.
double ScenarioTimeScale() { return BenchTimeScale(0.2); }

struct PersonalityPlan {
  const char* name;
  uint64_t clients;
  std::vector<double> rates;
};

// Client populations are ids (memory is O(ops issued)), so the webserver
// runs its full million simulated clients even in --quick.
const PersonalityPlan kPlans[] = {
    {"webserver", 1000000, {100, 200, 400, 800}},
    {"varmail", 100000, {50, 100, 200, 400}},
    {"fileserver", 100000, {50, 100, 200, 400}},
    {"oltp", 200000, {100, 200, 400, 800}},
    {"videoserver", 100000, {25, 50, 100, 200}},
};

std::vector<FileSystem*> MountAgents(
    Deployment* deployment, unsigned count,
    std::vector<std::unique_ptr<ScfsFileSystem>>* owned) {
  std::vector<FileSystem*> mounts;
  for (unsigned i = 0; i < count; ++i) {
    // The paper's default operating mode: close returns at durability level
    // 1 (local disk) and the upload -> publish -> unlock chain proceeds in
    // background through the agent's bounded uploader pipeline.
    ScfsOptions options;
    options.mode = ScfsMode::kNonBlocking;
    auto fs = deployment->Mount("bench", options);
    if (!fs.ok()) {
      std::fprintf(stderr, "mount failed: %s\n",
                   fs.status().ToString().c_str());
      std::exit(1);
    }
    mounts.push_back(fs->get());
    owned->push_back(std::move(*fs));
  }
  return mounts;
}

Status ApplySets(PersonalitySpec* spec, const Options& options) {
  for (const std::string& set : options.sets) {
    RETURN_IF_ERROR(ApplyPersonalityOverride(spec, set));
  }
  return OkStatus();
}

void AddPointJson(BenchJsonWriter* json, const std::string& prefix,
                  const FleetResult& point) {
  json->Add(prefix + "_achieved_ops_s", point.achieved_ops_per_s, "ops/s");
  json->Add(prefix + "_p50_ms", point.latency.PercentileMs(50), "ms");
  json->Add(prefix + "_p90_ms", point.latency.PercentileMs(90), "ms");
  json->Add(prefix + "_p99_ms", point.latency.PercentileMs(99), "ms");
  json->Add(prefix + "_p999_ms", point.latency.PercentileMs(99.9), "ms");
  json->Add(prefix + "_errors", static_cast<double>(point.errors), "ops");
  json->Add(prefix + "_dropped", static_cast<double>(point.dropped), "ops");
  json->Add(prefix + "_coord_msgs_per_op", point.coord_msgs_per_op, "msgs");
  json->Add(prefix + "_ordered_per_op", point.coord_ordered_per_op, "cmds");
  json->Add(prefix + "_fast_reads_per_op", point.coord_fast_reads_per_op,
            "reads");
  for (size_t i = 0; i < kScenarioOpCount; ++i) {
    if (point.per_op_latency[i].count() > 0) {
      json->Add(prefix + "_op_" + ScenarioOpName(static_cast<ScenarioOp>(i)) +
                    "_p99_ms",
                point.per_op_latency[i].PercentileMs(99), "ms");
    }
  }
}

void RunPersonality(Environment* env, const Options& options,
                    const PersonalitySpec& base_spec, uint64_t clients,
                    std::vector<double> rates, BenchJsonWriter* json) {
  PersonalitySpec spec = base_spec;
  if (options.quick) {
    // Smoke scale: smaller fileset (setup dominates CI time), fewer rates.
    if (spec.fileset_files > 256) {
      spec.fileset_files = 256;
    }
    if (rates.size() > 2) {
      rates = {rates[0], rates[2]};
    }
  }
  if (options.clients_override > 0) {
    clients = options.clients_override;
  }

  DeploymentOptions dopts;
  dopts.backend = ScfsBackendKind::kCoc;
  dopts.coord_partitions = options.partitions;
  auto deployment = Deployment::Create(env, dopts);
  std::vector<std::unique_ptr<ScfsFileSystem>> owned;
  std::vector<FileSystem*> mounts =
      MountAgents(deployment.get(), options.mounts, &owned);

  ClientFleet fleet(env, spec, mounts, deployment.get());
  Status setup = fleet.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "%s: setup failed: %s\n", spec.name.c_str(),
                 setup.ToString().c_str());
    std::exit(1);
  }

  FleetConfig config;
  config.clients = clients;
  config.workers = options.workers;
  config.duration = (options.quick ? 4 : 8) * kSecond;
  config.drain_grace = (options.quick ? 2 : 4) * kSecond;

  PrintHeader("Scenario: " + spec.name + " (" + std::to_string(clients) +
              " clients, open-loop)");
  std::vector<int> widths = {12, 12, 9, 9, 9, 9, 9, 9, 9, 9};
  PrintRow({"offered/s", "achieved/s", "p50 ms", "p90 ms", "p99 ms",
            "p99.9 ms", "issued", "errors", "dropped", "dur s"},
           widths);
  RateSweepResult sweep = RunRateSweep(&fleet, config, rates);
  for (const FleetResult& point : sweep.points) {
    PrintRow({FormatSeconds(point.offered_ops_per_s),
              FormatSeconds(point.achieved_ops_per_s),
              FormatSeconds(point.latency.PercentileMs(50)),
              FormatSeconds(point.latency.PercentileMs(90)),
              FormatSeconds(point.latency.PercentileMs(99)),
              FormatSeconds(point.latency.PercentileMs(99.9)),
              std::to_string(point.issued), std::to_string(point.errors),
              std::to_string(point.dropped),
              FormatSeconds(point.duration_s)},
             widths);
  }

  // Report tail latency at the knee point: the highest rate the deployment
  // still served, i.e. latency of a healthy system near capacity. If every
  // point saturated, fall back to the first.
  const FleetResult* knee_point = &sweep.points.front();
  for (const FleetResult& point : sweep.points) {
    if (point.offered_ops_per_s <= sweep.knee_offered_ops_s) {
      knee_point = &point;
    }
  }
  std::printf(
      "  knee %.0f ops/s offered, saturation %.0f ops/s achieved, "
      "%.1f coord msgs/op (%.2f ordered, %.2f fast reads), "
      "%llu clients touched\n",
      sweep.knee_offered_ops_s, sweep.saturation_ops_s,
      knee_point->coord_msgs_per_op, knee_point->coord_ordered_per_op,
      knee_point->coord_fast_reads_per_op,
      static_cast<unsigned long long>(knee_point->touched_clients));

  const std::string prefix = "scenario_" + spec.name;
  json->Add(prefix + "_clients", static_cast<double>(clients), "clients");
  json->Add(prefix + "_knee_offered_ops_s", sweep.knee_offered_ops_s, "ops/s");
  json->Add(prefix + "_saturation_ops_s", sweep.saturation_ops_s, "ops/s");
  AddPointJson(json, prefix, *knee_point);
}

// The hot-partition experiment: an append-heavy personality over a fileset
// whose metadata+lock keys are co-located per partition, against a
// coordination plane with a deliberately bounded ordering pipeline. Run
// uniform (theta 0) and skewed (theta 1.5) at the same offered rate; the
// skewed run concentrates ordered traffic on partition 0 past its capacity
// while the uniform run stays under it.
void RunSkewDemo(const Options& options, BenchJsonWriter* json) {
  // The demo gates CI on a p99 *ratio* between two variants, so it runs on
  // its own clock, 5x slower than the sweeps: modelled coordination delay
  // (150 ms links) must dominate host-CPU scheduling noise for the ratio
  // to be stable on small runners.
  auto env_owner = Environment::Scaled(5 * ScenarioTimeScale());
  Environment* env = env_owner.get();
  PersonalitySpec spec;
  spec.name = "zipfdemo";
  spec.mix[static_cast<size_t>(ScenarioOp::kWholeFileRead)] = 0.5;
  spec.mix[static_cast<size_t>(ScenarioOp::kAppend)] = 0.5;
  spec.appends_to_fileset = true;
  spec.partition_skew = true;
  spec.fileset_files = options.quick ? 200 : 400;
  spec.file_size = 8 * 1024;
  spec.append_size = 4 * 1024;

  PrintHeader("Scenario: Zipfian partition skew (capacity-bound pipeline)");
  std::vector<int> widths = {14, 14, 10, 10, 12, 10, 10, 10, 10};
  PrintRow({"variant", "achieved/s", "p50 ms", "p99 ms", "hot share",
            "backlog", "issued", "errors", "dur s"},
           widths);

  struct Variant {
    const char* key;
    double theta;
  };
  double p99[2] = {0, 0};
  for (const Variant& variant :
       {Variant{"uniform", 0.0}, Variant{"skewed", 1.5}}) {
    DeploymentOptions dopts;
    dopts.backend = ScfsBackendKind::kCoc;
    dopts.coord_partitions = options.partitions;
    // Finite per-partition ordering capacity to push against (see
    // DeploymentOptions): one consensus instance in flight, four requests
    // per batch, fixed 75 ms replica links — a hard ceiling of
    // ~4/0.15 s ≈ 26 ordered commands per second per partition on the
    // virtual clock, independent of host CPU.
    dopts.coord_max_inflight_instances = 1;
    dopts.coord_max_batch = 4;
    dopts.coord_replica_link_one_way = 75 * kMillisecond;
    auto deployment = Deployment::Create(env, dopts);
    std::vector<std::unique_ptr<ScfsFileSystem>> owned;
    std::vector<FileSystem*> mounts =
        MountAgents(deployment.get(), options.mounts, &owned);

    PersonalitySpec variant_spec = spec;
    variant_spec.zipf_theta = variant.theta;
    ClientFleet fleet(env, variant_spec, mounts, deployment.get());
    Status setup = fleet.Setup();
    if (!setup.ok()) {
      std::fprintf(stderr, "zipf demo setup failed: %s\n",
                   setup.ToString().c_str());
      std::exit(1);
    }

    FleetConfig config;
    config.clients = 100000;
    config.workers = options.workers;
    // Half of this is appends, each costing ~3 ordered commands (lock,
    // publish, unlock) → ~60 ordered/s aggregate. Uniform spreads that
    // ~15/s per partition, under the ~24/s pipeline ceiling; Zipf(1.5)
    // concentrates ~55% of it (~33/s) on partition 0, past the ceiling,
    // so hot-partition queueing shows up in the tail.
    config.offered_ops_per_s = 40;
    config.duration = (options.quick ? 6 : 10) * kSecond;
    config.drain_grace = (options.quick ? 3 : 5) * kSecond;
    FleetResult result = fleet.Run(config);

    PrintRow({variant.key, FormatSeconds(result.achieved_ops_per_s),
              FormatSeconds(result.latency.PercentileMs(50)),
              FormatSeconds(result.latency.PercentileMs(99)),
              FormatSeconds(result.hot_partition_share),
              std::to_string(result.max_backlog),
              std::to_string(result.issued), std::to_string(result.errors),
              FormatSeconds(result.duration_s)},
             widths);
    const std::string prefix = std::string("scenario_zipf_") + variant.key;
    json->Add(prefix + "_p99_ms", result.latency.PercentileMs(99), "ms");
    json->Add(prefix + "_hot_share", result.hot_partition_share, "share");
    p99[variant.theta > 0 ? 1 : 0] = result.latency.PercentileMs(99);
  }
  const double inflation = p99[0] > 0 ? p99[1] / p99[0] : 0;
  json->Add("scenario_zipf_p99_inflation", inflation, "x");
  std::printf("  p99 inflation (skewed/uniform): %.2fx\n", inflation);
}

// The lease demo: the webserver personality (91% whole-file reads over a
// Zipf fileset that is never mutated, 9% log appends) twice at the same
// offered rate — once with metadata leases off, once with a 2 s lease TTL.
// With leases on, clients answer the read path's metadata lookups from a
// delegated cache (zero coordination messages) and lingering write locks
// collapse the append's lock/unlock rounds, so coordination messages per
// successful op must drop by the ISSUE's >= 5x target (gated in
// tools/check_bench_scenarios.py). One pair of runs is noisy — a failed
// fast read costs its broadcast and an ordered round, and how many fail
// follows host scheduling — so the pair runs kLeaseDemoPairs times on fresh
// deployments and the median ratio is gated; its pair's metrics are the
// ones recorded, with the spread beside them.
void RunLeaseDemo(const Options& options, BenchJsonWriter* json) {
  auto env_owner = Environment::Scaled(ScenarioTimeScale());
  Environment* env = env_owner.get();
  auto base = BuiltinPersonality("webserver");
  if (!base.ok()) {
    std::fprintf(stderr, "%s\n", base.status().ToString().c_str());
    std::exit(1);
  }
  PersonalitySpec spec = *base;
  spec.name = "webserver_lease";
  if (options.quick && spec.fileset_files > 256) {
    spec.fileset_files = 256;
  }

  PrintHeader("Scenario: webserver with lease-delegated metadata caching");
  std::vector<int> widths = {10, 12, 10, 10, 10, 11, 10, 10, 10, 10, 24};
  PrintRow({"leases", "achieved/s", "p50 ms", "p99 ms", "msgs/op",
            "ordered/op", "fast/op", "hits/op", "grants", "revokes",
            "fallbacks/op (t/d/s/c)"},
           widths);

  struct Variant {
    const char* key;
    VirtualDuration ttl;
  };
  struct Record {
    std::string name;
    double value;
    std::string unit;
  };
  struct Round {
    double ratio = 0;
    std::vector<Record> records;
  };
  std::vector<Round> rounds(kLeaseDemoPairs);
  for (Round& round : rounds) {
    double msgs_per_op[2] = {0, 0};
    // TTL well past the run duration: the webserver fileset is read-only
    // once set up, so the interesting regime is long-lived leases (renewal
    // cost is covered by ExpiredLeaseRegrants in lease_test.cc and the
    // property test).
    for (const Variant& variant :
         {Variant{"off", 0}, Variant{"on", 30 * kSecond}}) {
      DeploymentOptions dopts;
      dopts.backend = ScfsBackendKind::kCoc;
      dopts.coord_partitions = options.partitions;
      dopts.lease_ttl = variant.ttl;
      auto deployment = Deployment::Create(env, dopts);
      std::vector<std::unique_ptr<ScfsFileSystem>> owned;
      std::vector<FileSystem*> mounts =
          MountAgents(deployment.get(), options.mounts, &owned);

      ClientFleet fleet(env, spec, mounts, deployment.get());
      Status setup = fleet.Setup();
      if (!setup.ok()) {
        std::fprintf(stderr, "lease demo setup failed: %s\n",
                     setup.ToString().c_str());
        std::exit(1);
      }
      // Filebench-style settle between fileset creation and measurement:
      // the setup write burst leaves the fileset prefix in post-revocation
      // lease holdoff; let it decay so the measured window is the
      // read-mostly steady state. Both variants settle identically.
      env->Sleep(5 * kSecond);

      FleetConfig config;
      config.clients = 100000;
      config.workers = options.workers;
      config.offered_ops_per_s = 200;
      config.duration = (options.quick ? 4 : 8) * kSecond;
      config.drain_grace = (options.quick ? 2 : 4) * kSecond;
      // Prime caches, leases and the per-worker append logs outside the
      // measured window (both variants warm identically): the demo
      // measures steady-state coordination cost per op, not first-touch
      // cold misses.
      config.warmup_reads_per_mount = 4;
      FleetResult result = fleet.Run(config);

      // Failed fast reads per op, then their counts by cause: timeout,
      // divergence, stale quorum, cooldown bypass.
      const double ok_ops =
          std::max(1.0, static_cast<double>(result.executed - result.errors));
      char fallbacks[96];
      std::snprintf(
          fallbacks, sizeof(fallbacks), "%.2f (%llu/%llu/%llu/%llu)",
          static_cast<double>(result.coord.fast_path_fallbacks) / ok_ops,
          static_cast<unsigned long long>(result.coord.fast_path_timeouts),
          static_cast<unsigned long long>(result.coord.fast_path_divergences),
          static_cast<unsigned long long>(
              result.coord.fast_path_stale_quorums),
          static_cast<unsigned long long>(
              result.coord.fast_path_cooldown_bypasses));
      PrintRow({variant.key, FormatSeconds(result.achieved_ops_per_s),
                FormatSeconds(result.latency.PercentileMs(50)),
                FormatSeconds(result.latency.PercentileMs(99)),
                FormatSeconds(result.coord_msgs_per_op),
                FormatSeconds(result.coord_ordered_per_op),
                FormatSeconds(result.coord_fast_reads_per_op),
                FormatSeconds(result.lease_hit_share),
                std::to_string(result.lease.grants),
                std::to_string(result.lease.revocations), fallbacks},
               widths);

      const std::string prefix =
          std::string("scenario_webserver_lease_") + variant.key;
      std::vector<Record>& out = round.records;
      out.push_back({prefix + "_msgs_per_op", result.coord_msgs_per_op,
                     "msgs"});
      out.push_back({prefix + "_ordered_per_op", result.coord_ordered_per_op,
                     "cmds"});
      out.push_back({prefix + "_fast_reads_per_op",
                     result.coord_fast_reads_per_op, "reads"});
      out.push_back({prefix + "_fallbacks_per_op",
                     static_cast<double>(result.coord.fast_path_fallbacks) /
                         ok_ops,
                     "reads"});
      out.push_back({prefix + "_p99_ms", result.latency.PercentileMs(99),
                     "ms"});
      out.push_back({prefix + "_errors", static_cast<double>(result.errors),
                     "ops"});
      if (variant.ttl > 0) {
        out.push_back({prefix + "_grants",
                       static_cast<double>(result.lease.grants), "grants"});
        out.push_back({prefix + "_revocations",
                       static_cast<double>(result.lease.revocations),
                       "leases"});
        out.push_back({prefix + "_notifications",
                       static_cast<double>(result.lease.notifications),
                       "calls"});
        out.push_back({prefix + "_local_hits",
                       static_cast<double>(result.lease.local_hits),
                       "reads"});
        out.push_back({prefix + "_linger_handoffs",
                       static_cast<double>(result.lease.linger_handoffs),
                       "locks"});
        out.push_back({prefix + "_hit_share", result.lease_hit_share,
                       "share"});
      }
      msgs_per_op[variant.ttl > 0 ? 1 : 0] = result.coord_msgs_per_op;
    }
    round.ratio = msgs_per_op[1] > 0 ? msgs_per_op[0] / msgs_per_op[1] : 0;
    std::printf("  coord msgs/op reduction (off/on): %.1fx\n", round.ratio);
  }
  std::sort(rounds.begin(), rounds.end(),
            [](const Round& a, const Round& b) { return a.ratio < b.ratio; });
  const Round& median = rounds[rounds.size() / 2];
  for (const Record& record : median.records) {
    json->Add(record.name, record.value, record.unit);
  }
  json->Add("scenario_webserver_lease_msgs_ratio", median.ratio, "x");
  json->Add("scenario_webserver_lease_msgs_ratio_min", rounds.front().ratio,
            "x");
  json->Add("scenario_webserver_lease_msgs_ratio_max", rounds.back().ratio,
            "x");
  std::printf("  median reduction of %zu runs: %.1fx (range %.1f-%.1fx)\n",
              rounds.size(), median.ratio, rounds.front().ratio,
              rounds.back().ratio);
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json") {
      options.json_path = next();
    } else if (arg == "--personality") {
      std::stringstream list(next());
      std::string name;
      while (std::getline(list, name, ',')) {
        if (!name.empty()) {
          options.personalities.push_back(name);
        }
      }
    } else if (arg == "--set") {
      options.sets.push_back(next());
    } else if (arg == "--spec") {
      options.spec_file = next();
    } else if (arg == "--clients") {
      options.clients_override = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--workers") {
      options.workers = static_cast<unsigned>(std::atoi(next().c_str()));
    } else if (arg == "--partitions") {
      options.partitions = static_cast<unsigned>(std::atoi(next().c_str()));
    } else if (arg == "--no-skew-demo") {
      options.skew_demo = false;
    } else if (arg == "--no-lease-demo") {
      options.lease_demo = false;
    } else {
      std::fprintf(
          stderr,
          "usage: bench_scenarios [--quick] [--json PATH]\n"
          "  [--personality a,b,...] [--set key=value]... [--spec FILE]\n"
          "  [--clients N] [--workers N] [--partitions N] [--no-skew-demo]\n"
          "  [--no-lease-demo]\n");
      return 2;
    }
  }

  auto env = Environment::Scaled(ScenarioTimeScale());
  BenchJsonWriter json;

  for (const PersonalityPlan& plan : kPlans) {
    if (!options.personalities.empty() &&
        std::find(options.personalities.begin(), options.personalities.end(),
                  plan.name) == options.personalities.end()) {
      continue;
    }
    auto spec = BuiltinPersonality(plan.name);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    Status applied = ApplySets(&*spec, options);
    if (!applied.ok()) {
      std::fprintf(stderr, "%s\n", applied.ToString().c_str());
      return 2;
    }
    RunPersonality(env.get(), options, *spec, plan.clients, plan.rates,
                   &json);
  }

  if (!options.spec_file.empty()) {
    std::ifstream in(options.spec_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", options.spec_file.c_str());
      return 2;
    }
    std::stringstream text;
    text << in.rdbuf();
    PersonalitySpec spec;
    spec.name = "custom";
    Status applied = ApplyPersonalityText(&spec, text.str());
    if (applied.ok()) {
      applied = ApplySets(&spec, options);
    }
    if (!applied.ok()) {
      std::fprintf(stderr, "%s\n", applied.ToString().c_str());
      return 2;
    }
    RunPersonality(env.get(), options, spec, 100000, {50, 100, 200, 400},
                   &json);
  }

  if (options.skew_demo) {
    RunSkewDemo(options, &json);
  }
  if (options.lease_demo) {
    RunLeaseDemo(options, &json);
  }

  if (!json.WriteFile(options.json_path)) {
    return 1;
  }
  std::printf("\nwrote %s\n", options.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace scfs

int main(int argc, char** argv) { return scfs::Main(argc, argv); }
