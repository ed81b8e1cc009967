// scfs_perfbench: runs one benchmark workload and writes a JSON report.
//
//   scfs_perfbench --workload read-hot --seed 1 --seconds 25 --trace 0 \
//       --work-dir DIR --report FILE [--spans FILE]
//
// Set-up (deployment, mounts, fileset, priming) runs kSetupReps times and
// setup_s is the median; the last set-up is the one measured. perfbench/run.py
// builds this program and turns its report into the benchmark's result line.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: scfs_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
    "--work-dir DIR --report FILE [--spans FILE]\n";
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string report;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--report") {
      args->report = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->work_dir.empty() && !args->report.empty();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + JsonString(items[i]);
  }
  return out + "]";
}

bool WriteReport(const Args& args, const RunOutcome& run) {
  std::string json = "{\n";
  json += "  \"workload\": " + JsonString(args.workload) + ",\n";
  json += "  \"seed\": " + std::to_string(args.seed) + ",\n";
  json += "  \"trace\": " + std::string(args.trace ? "1" : "0") + ",\n";
  json += "  \"seconds\": " + JsonNumber(args.seconds) + ",\n";
  json += "  \"correct\": " +
          std::string(run.problems.empty() ? "true" : "false") + ",\n";
  json += "  \"attempted\": " + std::to_string(run.attempted) + ",\n";
  json += "  \"failed\": " + std::to_string(run.failed) + ",\n";
  json += "  \"problems\": " + JsonList(run.problems) + ",\n";
  json += "  \"flags\": " + JsonList(run.flags) + ",\n";
  json += "  \"sources\": {";
  bool first = true;
  for (const auto& [cls, source] : run.sources) {
    json += (first ? "" : ", ") + JsonString(cls) + ": " + JsonString(source);
    first = false;
  }
  json += "},\n  \"metrics\": {\n";
  const auto& entries = run.metrics.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    json += "    " + JsonString(entries[i].name) + ": {\"value\": " +
            JsonNumber(entries[i].value) +
            ", \"unit\": " + JsonString(entries[i].unit) + "}" +
            (i + 1 < entries.size() ? ",\n" : "\n");
  }
  json += "  }\n}\n";
  FILE* out = std::fopen(args.report.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fputs(json.c_str(), out);
  return std::fclose(out) == 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The modelled WAN is slept on a scaled clock where one real millisecond
  // is 10-40 virtual ones; the kernel's default 50 us timer slack would add
  // up to 2 virtual ms to every modelled sleep. Threads inherit the setting.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bench.reset();  // tear the previous set-up down outside the timing
    const double t0 = WallSeconds();
    bench = std::make_unique<Bench>(
        *spec, args.seed,
        std::filesystem::path(args.work_dir) / ("rep" + std::to_string(rep)));
    scfs::Status status = bench->Setup();
    setup_s.push_back(WallSeconds() - t0);
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  RunOutcome run;
  std::vector<SpanLog> spans;
  bench->Run(args.seconds, args.trace, &run, &spans);
  bench.reset();

  std::sort(setup_s.begin(), setup_s.end());
  run.metrics.Set("setup_s", setup_s[setup_s.size() / 2], "s");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  run.metrics.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                  "MB");

  if (args.trace && !args.spans.empty() && !WriteSpans(args.spans, spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans.c_str());
    return 1;
  }
  if (!WriteReport(args, run)) {
    std::fprintf(stderr, "cannot write report to %s\n", args.report.c_str());
    return 1;
  }
  for (const auto& e : run.metrics.entries()) {
    std::printf("%-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  for (const std::string& p : run.problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }
  for (const std::string& f : run.flags) {
    std::printf("FLAG: %s\n", f.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
