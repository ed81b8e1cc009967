// bench_faults: open-loop personalities under chaos-scheduled fault
// campaigns (src/sim/fault_schedule.h, src/chaos/campaign.h).
//
// For each (personality x campaign) pair the bench mounts a fresh
// cloud-of-clouds deployment, runs the personality fault-free once to get a
// baseline tail, then replays it at the same offered rate while a
// ChaosRunner walks the campaign's fault windows. The fleet's timeline
// buckets are intersected with the campaign windows to report, per pair:
//
//   error_rate           client-visible non-OK fraction over the whole run
//   p99_inflation_x      whole-run p99 vs the fault-free baseline p99
//   fault_goodput_ops_s  successful ops/s inside the fault windows
//   recovery_ms          time after the last window until a timeline bucket's
//                        p99 is back within 1.5x of baseline (-1 = never)
//
// plus the data plane's self-healing telemetry (retries, deadline expiries,
// hedged reads, breaker trips) summed over the deployment's DepSky clients.
// Results go to BENCH_faults.json; tools/check_bench_faults.py gates the
// outage campaigns (error rate zero, p99 inflation < 2x) in CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/scenario/client_fleet.h"
#include "bench/scenario/personality.h"
#include "src/chaos/campaign.h"
#include "src/cloud/simulated_cloud.h"
#include "src/common/rng.h"
#include "src/crypto/sha1.h"
#include "src/depsky/depsky.h"
#include "src/scfs/deployment.h"
#include "src/sim/fault_schedule.h"

namespace scfs {
namespace {

struct Options {
  bool quick = false;
  bool verbose = false;
  std::string json_path = "BENCH_faults.json";
  std::vector<std::string> personalities;  // empty = webserver, oltp
  std::vector<std::string> campaigns;      // empty = the builtin set
  std::string schedule_file;               // extra custom campaign
  double rate_override = 0;
  unsigned workers = 64;
  unsigned mounts = 2;
};

// Same clock as the scenario sweeps: 1 virtual second = 0.2 real seconds
// unless SCFS_TIME_SCALE overrides it. Fault campaigns are timer-driven
// (deadlines, hedges, chaos edges), so this bench requires a scaled — not
// instant — environment.
double FaultTimeScale() { return BenchTimeScale(0.2); }

// All runs share one window layout: arrivals for 16 virtual seconds, which
// covers every builtin campaign's horizon (12 s) plus a 4 s recovery tail.
constexpr VirtualDuration kRunDuration = 16 * kSecond;
constexpr VirtualDuration kDrainGrace = 4 * kSecond;
constexpr VirtualDuration kBucket = 500 * kMillisecond;
// A timeline bucket needs a handful of samples before its p99 means
// anything; sparser buckets are skipped by the recovery scan.
constexpr uint64_t kMinBucketSamples = 5;

struct Telemetry {
  uint64_t retries = 0;
  uint64_t deadline_expiries = 0;
  uint64_t hedged_reads = 0;
  uint64_t breaker_trips = 0;
  uint64_t storage_read_retries = 0;
};

struct RunOutcome {
  FleetResult result;
  Telemetry telemetry;
  std::vector<std::pair<VirtualTime, VirtualTime>> windows;  // absolute
};

double ErrorRate(const FleetResult& result) {
  return result.executed > 0
             ? static_cast<double>(result.errors) / result.executed
             : 0;
}

bool Overlaps(VirtualTime a_begin, VirtualTime a_end, VirtualTime b_begin,
              VirtualTime b_end) {
  return a_begin < b_end && b_begin < a_end;
}

// One personality run against a fresh deployment; `schedule` may be null
// (the fault-free baseline).
RunOutcome RunOnce(Environment* env, const Options& options,
                   const PersonalitySpec& spec, double rate,
                   const FaultSchedule* schedule) {
  DeploymentOptions dopts;
  dopts.backend = ScfsBackendKind::kCoc;
  auto deployment = Deployment::Create(env, dopts);

  std::vector<std::unique_ptr<ScfsFileSystem>> owned;
  std::vector<FileSystem*> mounts;
  for (unsigned i = 0; i < options.mounts; ++i) {
    ScfsOptions mopts;
    mopts.mode = ScfsMode::kNonBlocking;
    // Tiny local caches so reads actually reach the DepSky data plane —
    // the point of the campaign is the cloud path, not the cache.
    mopts.storage.memory_cache_bytes = 64 * 1024;
    mopts.storage.disk_cache_bytes = 256 * 1024;
    auto fs = deployment->Mount("bench", mopts);
    if (!fs.ok()) {
      std::fprintf(stderr, "mount failed: %s\n",
                   fs.status().ToString().c_str());
      std::exit(1);
    }
    mounts.push_back(fs->get());
    owned.push_back(std::move(*fs));
  }

  ClientFleet fleet(env, spec, mounts, deployment.get());
  Status setup = fleet.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "%s: setup failed: %s\n", spec.name.c_str(),
                 setup.ToString().c_str());
    std::exit(1);
  }

  std::unique_ptr<ChaosRunner> runner;
  if (schedule != nullptr) {
    runner = std::make_unique<ChaosRunner>(env, *schedule,
                                           TargetsFor(deployment.get()));
    Status started = runner->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "campaign %s: %s\n", schedule->name.c_str(),
                   started.ToString().c_str());
      std::exit(1);
    }
  }

  FleetConfig config;
  config.clients = 100000;
  config.offered_ops_per_s = rate;
  config.workers = options.workers;
  config.duration = kRunDuration;
  config.drain_grace = kDrainGrace;
  config.timeline_bucket = kBucket;

  RunOutcome out;
  out.result = fleet.Run(config);
  if (runner != nullptr) {
    runner->Join();
    out.windows = runner->FaultWindows();
    if (options.verbose) {
      for (const std::string& line : runner->log()) {
        std::printf("    chaos: %s\n", line.c_str());
      }
    }
  }

  for (const auto& client : deployment->depsky_clients()) {
    out.telemetry.retries += client->retries();
    out.telemetry.deadline_expiries += client->deadline_expiries();
    out.telemetry.hedged_reads += client->hedged_reads();
    out.telemetry.breaker_trips += client->health().breaker_trips();
  }
  for (const auto& fs : owned) {
    out.telemetry.storage_read_retries += fs->storage_service().read_retries();
  }
  return out;
}

// Successful ops/s inside the fault windows, and a merged latency recorder
// of the buckets that overlap them.
void FaultWindowStats(const RunOutcome& run, double* goodput_ops_s,
                      LatencyRecorder* fault_latency) {
  uint64_t good = 0;
  VirtualDuration covered = 0;
  const VirtualTime start = run.result.run_start;
  for (const FleetTimelineBucket& bucket : run.result.timeline) {
    const VirtualTime begin = start + bucket.start;
    const VirtualTime end = begin + run.result.timeline_bucket;
    bool in_fault = false;
    for (const auto& window : run.windows) {
      if (Overlaps(begin, end, window.first, window.second)) {
        in_fault = true;
        break;
      }
    }
    if (!in_fault) {
      continue;
    }
    good += bucket.executed - bucket.errors;
    covered += run.result.timeline_bucket;
    fault_latency->Merge(bucket.latency);
  }
  *goodput_ops_s = covered > 0 ? static_cast<double>(good) / ToSeconds(covered)
                               : 0;
}

// Milliseconds from the end of the last fault window until the first
// adequately-sampled timeline bucket whose p99 is back within
// `threshold` x the baseline p99. -1 = never recovered inside the run.
double RecoveryMs(const RunOutcome& run, uint64_t baseline_p99_us,
                  double threshold) {
  if (run.windows.empty() || baseline_p99_us == 0) {
    return -1;
  }
  VirtualTime last_end = 0;
  for (const auto& window : run.windows) {
    last_end = std::max(last_end, window.second);
  }
  const uint64_t bound =
      static_cast<uint64_t>(static_cast<double>(baseline_p99_us) * threshold);
  const VirtualTime start = run.result.run_start;
  for (const FleetTimelineBucket& bucket : run.result.timeline) {
    const VirtualTime begin = start + bucket.start;
    if (begin < last_end || bucket.executed < kMinBucketSamples) {
      continue;
    }
    if (bucket.latency.PercentileUs(99) <= bound) {
      return static_cast<double>(begin - last_end) / 1000.0;
    }
  }
  return -1;
}

void RunCampaign(Environment* env, const Options& options,
                 const PersonalitySpec& spec, double rate,
                 const RunOutcome& baseline, const FaultSchedule& schedule,
                 BenchJsonWriter* json, const std::vector<int>& widths) {
  RunOutcome run = RunOnce(env, options, spec, rate, &schedule);

  const double error_rate = ErrorRate(run.result);
  const double p99 = run.result.latency.PercentileMs(99);
  const double baseline_p99 = baseline.result.latency.PercentileMs(99);
  const double inflation = baseline_p99 > 0 ? p99 / baseline_p99 : 0;

  double fault_goodput = 0;
  LatencyRecorder fault_latency;
  FaultWindowStats(run, &fault_goodput, &fault_latency);
  const double recovery_ms =
      RecoveryMs(run, baseline.result.latency.PercentileUs(99), 1.5);

  PrintRow({schedule.name, FormatSeconds(run.result.achieved_ops_per_s),
            FormatSeconds(p99), FormatSeconds(inflation),
            FormatSeconds(fault_goodput),
            recovery_ms < 0 ? "never" : FormatSeconds(recovery_ms),
            std::to_string(run.result.errors),
            std::to_string(run.telemetry.retries),
            std::to_string(run.telemetry.hedged_reads),
            std::to_string(run.telemetry.breaker_trips)},
           widths);

  const std::string prefix = "faults_" + spec.name + "_" + schedule.name;
  json->Add(prefix + "_error_rate", error_rate, "fraction");
  json->Add(prefix + "_errors", static_cast<double>(run.result.errors), "ops");
  json->Add(prefix + "_dropped", static_cast<double>(run.result.dropped),
            "ops");
  json->Add(prefix + "_p99_ms", p99, "ms");
  json->Add(prefix + "_baseline_p99_ms", baseline_p99, "ms");
  json->Add(prefix + "_p99_inflation_x", inflation, "x");
  json->Add(prefix + "_fault_window_p99_ms", fault_latency.PercentileMs(99),
            "ms");
  json->Add(prefix + "_fault_goodput_ops_s", fault_goodput, "ops/s");
  json->Add(prefix + "_goodput_ratio",
            rate > 0 ? fault_goodput / rate : 0, "fraction");
  json->Add(prefix + "_recovery_ms", recovery_ms, "ms");
  json->Add(prefix + "_retries", static_cast<double>(run.telemetry.retries),
            "ops");
  json->Add(prefix + "_deadline_expiries",
            static_cast<double>(run.telemetry.deadline_expiries), "ops");
  json->Add(prefix + "_hedged_reads",
            static_cast<double>(run.telemetry.hedged_reads), "ops");
  json->Add(prefix + "_breaker_trips",
            static_cast<double>(run.telemetry.breaker_trips), "trips");
  json->Add(prefix + "_storage_read_retries",
            static_cast<double>(run.telemetry.storage_read_retries), "ops");
}

void RunPersonality(Environment* env, const Options& options,
                    PersonalitySpec spec,
                    const std::vector<FaultSchedule>& campaigns,
                    BenchJsonWriter* json) {
  if (options.quick && spec.fileset_files > 128) {
    spec.fileset_files = 128;  // setup dominates CI time
  }
  // The write-heavy oltp mix saturates this deliberately tiny-cache
  // deployment far earlier than the read-heavy personalities (block writes
  // serialize through DepSky PUT plus lock renewals), and a saturated
  // baseline measures queueing collapse, not fault masking.
  double rate = options.quick ? 40 : 80;
  if (spec.name == "oltp") {
    rate = 8;
  }
  if (options.rate_override > 0) {
    rate = options.rate_override;
  }

  PrintHeader("Faults: " + spec.name + " @ " + FormatSeconds(rate) +
              " ops/s offered");
  std::vector<int> widths = {12, 11, 9, 9, 11, 9, 8, 8, 8, 8};
  PrintRow({"campaign", "achieved/s", "p99 ms", "infl x", "fault op/s",
            "recov ms", "errors", "retries", "hedges", "trips"},
           widths);

  RunOutcome baseline = RunOnce(env, options, spec, rate, nullptr);
  PrintRow({"(baseline)", FormatSeconds(baseline.result.achieved_ops_per_s),
            FormatSeconds(baseline.result.latency.PercentileMs(99)), "1.00",
            "-", "-", std::to_string(baseline.result.errors),
            std::to_string(baseline.telemetry.retries),
            std::to_string(baseline.telemetry.hedged_reads),
            std::to_string(baseline.telemetry.breaker_trips)},
           widths);
  const std::string prefix = "faults_" + spec.name;
  json->Add(prefix + "_baseline_p99_ms",
            baseline.result.latency.PercentileMs(99), "ms");
  json->Add(prefix + "_baseline_error_rate", ErrorRate(baseline.result),
            "fraction");

  for (const FaultSchedule& campaign : campaigns) {
    RunCampaign(env, options, spec, rate, baseline, campaign, json, widths);
  }
}

// ---------------------------------------------------------------------------
// Stripe-repair drill: a striped large file rides out a full cloud outage
// with zero client-visible errors, the outage "loses the disk" (the cloud
// comes back empty), and one scrubber pass rebuilds every lost stored object
// byte-identically from the surviving shards. Runs on its own instant
// environment — unlike the campaigns above, repair is pure data-plane work,
// so the interesting outputs are counts (errors, missing, repaired) and the
// real-time rebuild rate, not modelled latencies.
// ---------------------------------------------------------------------------

void RunStripeRepairDrill(const Options& options, BenchJsonWriter* json) {
  const size_t unit_size = 4u << 20;
  const size_t file_size = (options.quick ? 4 : 16) * unit_size;
  auto env = Environment::Instant();

  std::vector<std::unique_ptr<SimulatedCloud>> clouds;
  std::vector<DepSkyCloud> set;
  for (unsigned i = 0; i < 4; ++i) {
    CloudProfile profile;
    profile.name = "repair" + std::to_string(i);
    clouds.push_back(
        std::make_unique<SimulatedCloud>(profile, env.get(), 170 + i));
    set.push_back(
        DepSkyCloud{clouds.back().get(), {profile.name + ":bench"}});
  }
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("bench-auth-key");
  config.stripe_unit_size = unit_size;
  DepSkyClient client(env.get(), std::move(set), config, 4242);

  auto fatal = [](const std::string& what, const Status& status) {
    std::fprintf(stderr, "stripe repair drill: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(1);
  };

  Rng rng(2026);
  Bytes data = rng.RandomBytes(file_size);
  const std::string hash = HexEncode(Sha1::Hash(data));
  auto written = client.WriteVersion("big", hash, data);
  if (!written.ok()) {
    fatal("write", written.status());
  }
  const DepSkyVersion version = *written;
  const size_t units = version.stripe_units.size();

  // The victim is the cloud holding shards of the most stripe units — the
  // outage that costs the manifest the most redundancy.
  unsigned victim = 0;
  size_t victim_units = 0;
  for (unsigned c = 0; c < clouds.size(); ++c) {
    size_t held = 0;
    for (const DepSkyStripeUnit& u : version.stripe_units) {
      if (c < u.cloud_shard.size() && u.cloud_shard[c] >= 0) {
        ++held;
      }
    }
    if (held > victim_units) {
      victim = c;
      victim_units = held;
    }
  }

  // Phase 1 — outage. With the victim dark the client still has n-f = 3
  // holders per unit, so every read must succeed: one full-file GET plus a
  // ReadAt probe across each stripe boundary (the unit-overlap fast path).
  clouds[victim]->faults().SetUnavailable(true);
  uint64_t reads = 0;
  uint64_t client_errors = 0;
  {
    auto whole = client.ReadByHash("big", hash);
    ++reads;
    if (!whole.ok() || *whole != data) {
      ++client_errors;
    }
    for (size_t u = 1; u < units; ++u) {
      const uint64_t offset = static_cast<uint64_t>(u) * unit_size - 512;
      auto slice = client.ReadAt("big", hash, offset, 1024);
      ++reads;
      if (!slice.ok() || slice->size() != 1024 ||
          !std::equal(slice->begin(), slice->end(), data.begin() + offset)) {
        ++client_errors;
      }
    }
  }

  // Phase 2 — the cloud returns, but empty: every stored object the victim
  // held is gone (outage took the disk with it).
  clouds[victim]->faults().SetUnavailable(false);
  uint64_t wiped = 0;
  for (size_t u = 0; u < units; ++u) {
    if (version.stripe_units[u].cloud_shard[victim] < 0) {
      continue;
    }
    Status dropped = clouds[victim]->Delete(
        {clouds[victim]->provider_name() + ":bench"},
        DepSkyClient::ValueKey(
            "big", version, u,
            static_cast<unsigned>(version.stripe_units[u].cloud_shard[victim])));
    if (!dropped.ok()) {
      fatal("wipe", dropped);
    }
    ++wiped;
  }

  // Phase 3 — one scrub pass rebuilds the lost objects in place (k surviving
  // shards re-derive the data, parity, and key share; the repaired object
  // must re-hash to the manifest before upload).
  const auto repair_start = std::chrono::steady_clock::now();
  auto report = client.ScrubUnit("big");
  const double repair_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    repair_start)
          .count();
  if (!report.ok()) {
    fatal("scrub", report.status());
  }
  // Payload-shard bytes restored (framing overhead excluded): each stored
  // object carries one RS shard of unit_size / k bytes.
  const double repaired_mb = static_cast<double>(report->objects_repaired) *
                             (static_cast<double>(unit_size) / (config.f + 1)) /
                             (1024.0 * 1024.0);
  const double repair_mb_s = repair_s > 0 ? repaired_mb / repair_s : 0;

  // Phase 4 — confirm: a second pass finds nothing to do, and the file still
  // reads back byte-identically.
  auto second = client.ScrubUnit("big");
  const bool redundant =
      second.ok() && second->objects_missing == 0 && second->fully_redundant;
  auto verify = client.ReadByHash("big", hash);
  const bool verify_ok = verify.ok() && *verify == data;

  PrintHeader("Stripe repair drill: " +
              std::to_string(file_size >> 20) + " MB file, cloud " +
              std::to_string(victim) + " outage + disk loss");
  std::vector<int> widths = {26, 10};
  PrintRow({"stripe units", std::to_string(units)}, widths);
  PrintRow({"reads during outage", std::to_string(reads)}, widths);
  PrintRow({"client errors", std::to_string(client_errors)}, widths);
  PrintRow({"objects wiped", std::to_string(wiped)}, widths);
  PrintRow({"objects repaired", std::to_string(report->objects_repaired)},
           widths);
  PrintRow({"repair MB/s", FormatSeconds(repair_mb_s)}, widths);
  PrintRow({"fully redundant after", redundant ? "yes" : "NO"}, widths);
  PrintRow({"read-back verified", verify_ok ? "yes" : "NO"}, widths);

  json->Add("stripe_repair_units", static_cast<double>(units), "count");
  json->Add("stripe_repair_reads_during_outage", static_cast<double>(reads),
            "ops");
  json->Add("stripe_repair_client_errors", static_cast<double>(client_errors),
            "ops");
  json->Add("stripe_repair_objects_wiped", static_cast<double>(wiped),
            "objects");
  json->Add("stripe_repair_objects_missing",
            static_cast<double>(report->objects_missing), "objects");
  json->Add("stripe_repair_objects_repaired",
            static_cast<double>(report->objects_repaired), "objects");
  json->Add("stripe_repair_objects_relocated",
            static_cast<double>(report->objects_relocated), "objects");
  json->Add("stripe_repair_failures",
            static_cast<double>(report->repair_failures), "objects");
  json->Add("stripe_repair_pass_ms", repair_s * 1e3, "ms");
  json->Add("stripe_repair_mb_s", repair_mb_s, "MB/s");
  json->Add("stripe_repair_fully_redundant", redundant ? 1.0 : 0.0, "bool");
  json->Add("stripe_repair_verify_ok", verify_ok ? 1.0 : 0.0, "bool");
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
    auto split = [](const std::string& list, std::vector<std::string>* out) {
      std::stringstream stream(list);
      std::string item;
      while (std::getline(stream, item, ',')) {
        if (!item.empty()) {
          out->push_back(item);
        }
      }
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--json") {
      options.json_path = next();
    } else if (arg == "--personality") {
      split(next(), &options.personalities);
    } else if (arg == "--campaign") {
      split(next(), &options.campaigns);
    } else if (arg == "--schedule") {
      options.schedule_file = next();
    } else if (arg == "--rate") {
      options.rate_override = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--workers") {
      options.workers = static_cast<unsigned>(std::atoi(next().c_str()));
    } else if (arg == "--mounts") {
      options.mounts = static_cast<unsigned>(std::atoi(next().c_str()));
    } else if (arg == "--print-campaign") {
      auto text = BuiltinCampaignText(next());
      if (!text.ok()) {
        std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
        return 2;
      }
      std::printf("%s", text->c_str());
      return 0;
    } else {
      std::fprintf(
          stderr,
          "usage: bench_faults [--quick] [--verbose] [--json PATH]\n"
          "  [--personality a,b,...] [--campaign a,b,...] [--schedule FILE]\n"
          "  [--rate OPS_S] [--workers N] [--mounts N]\n"
          "  [--print-campaign NAME]\n");
      return 2;
    }
  }

  if (options.personalities.empty()) {
    options.personalities = options.quick
                                ? std::vector<std::string>{"webserver"}
                                : std::vector<std::string>{"webserver", "oltp"};
  }
  if (options.campaigns.empty()) {
    options.campaigns =
        options.quick
            ? std::vector<std::string>{"outage", "latency"}
            : std::vector<std::string>{"outage",    "latency",
                                       "flaky",     "corruption",
                                       "byzantine", "replica", "mixed"};
  }

  std::vector<FaultSchedule> campaigns;
  for (const std::string& name : options.campaigns) {
    auto campaign = BuiltinCampaign(name);
    if (!campaign.ok()) {
      std::fprintf(stderr, "%s\n", campaign.status().ToString().c_str());
      return 2;
    }
    campaigns.push_back(std::move(*campaign));
  }
  if (!options.schedule_file.empty()) {
    std::ifstream in(options.schedule_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", options.schedule_file.c_str());
      return 2;
    }
    std::stringstream text;
    text << in.rdbuf();
    auto campaign = ParseFaultSchedule(text.str());
    if (!campaign.ok()) {
      std::fprintf(stderr, "%s\n", campaign.status().ToString().c_str());
      return 2;
    }
    campaign->name = "custom";
    campaigns.push_back(std::move(*campaign));
  }

  auto env = Environment::Scaled(FaultTimeScale());
  BenchJsonWriter json;
  for (const std::string& name : options.personalities) {
    auto spec = BuiltinPersonality(name);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    RunPersonality(env.get(), options, *spec, campaigns, &json);
  }
  RunStripeRepairDrill(options, &json);

  if (!json.WriteFile(options.json_path)) {
    return 1;
  }
  std::printf("\nwrote %s\n", options.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace scfs

int main(int argc, char** argv) { return scfs::Main(argc, argv); }
