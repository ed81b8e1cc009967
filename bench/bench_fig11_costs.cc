// Figure 11 reproduction: the costs of operating and using SCFS.
//
//   (a) fixed operation cost/day of the coordination service (EC2 vs 4xEC2
//       vs CoC; Large and Extra Large) and its metadata capacity,
//   (b) per-operation cost of reading/writing a file vs size (microdollars),
//   (c) storage cost per file version per day vs size.
//
// (b)/(c) are *measured* through the cost meters of the simulated clouds: an
// agent writes a file (and drains its background work, so requests made
// after the close count too), a cache-cold agent reads it, and the
// per-account usage deltas are converted to microdollars. A failed mount,
// write or read prints its status and exits non-zero. The coordination share is the
// measured reply traffic times the replication amplification of the
// BFT-SMaRt protocol (n replies + inter-replica ordering messages).

#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"
#include "src/cloud/providers.h"
#include "src/scfs/deployment.h"

namespace scfs {
namespace {

constexpr double kPerGb = 0.12;
// Outbound traffic amplification of one coordination access: for the CoC,
// 4 replica replies plus ~15 protocol-message copies; for AWS, one reply
// from the single VM.
double CoordAmplification(ScfsBackendKind backend) {
  return backend == ScfsBackendKind::kCoc ? 19.0 : 1.0;
}

double CoordCost(uint64_t reply_bytes, ScfsBackendKind backend) {
  return static_cast<double>(reply_bytes) * CoordAmplification(backend) /
         (1024.0 * 1024.0 * 1024.0) * kPerGb;
}

void PartA() {
  PrintHeader("Figure 11(a): coordination service operation cost per day");
  std::vector<int> widths = {14, 10, 10, 10, 14};
  PrintRow({"instance", "EC2", "EC2x4", "CoC", "capacity"}, widths);
  for (bool extra_large : {false, true}) {
    double coc = 0;
    for (unsigned i = 0; i < 4; ++i) {
      coc += CoordinationVmPricePerDay(i, extra_large);
    }
    double ec2 = CoordinationVmPricePerDay(0, extra_large);
    char capacity[32];
    std::snprintf(capacity, sizeof(capacity), "%.0fM files",
                  static_cast<double>(CoordinationCapacityTuples(extra_large)) /
                      1e6);
    char c1[16], c2[16], c3[16];
    std::snprintf(c1, sizeof(c1), "$%.2f", ec2);
    std::snprintf(c2, sizeof(c2), "$%.2f", ec2 * 4);
    std::snprintf(c3, sizeof(c3), "$%.2f", coc);
    PrintRow({extra_large ? "Extra Large" : "Large", c1, c2, c3, capacity},
             widths);
  }
}

struct OpCosts {
  double write_udollars = 0;
  double read_udollars = 0;
  double storage_per_day_udollars = 0;
};

// A measurement that failed has no row to print.
void Check(const Status& status, const char* what, ScfsBackendKind backend,
           size_t size) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_fig11_costs: %s of %zu bytes on %s failed: %s\n",
                 what, size, backend == ScfsBackendKind::kCoc ? "CoC" : "AWS",
                 status.ToString().c_str());
    std::exit(1);
  }
}

OpCosts MeasureCosts(Environment* env, ScfsBackendKind backend, size_t size) {
  OpCosts costs;
  DeploymentOptions options;
  options.backend = backend;
  auto deployment = Deployment::Create(env, options);
  ScfsOptions fs_options;
  fs_options.mode = ScfsMode::kBlocking;
  auto writer = deployment->Mount("u", fs_options);
  Check(writer.status(), "mount", backend, size);

  // --- Write cost: everything charged from the open until the writer's
  // background work and every request it sent have finished.
  UsageTotals usage0 = deployment->CloudUsage("u");
  uint64_t coord0 = deployment->CoordReplyBytes();
  Bytes data(size, 1);
  Check((*writer)->WriteFile("/f", data), "write", backend, size);
  (*writer)->DrainBackground();
  for (unsigned i = 0; i < deployment->cloud_count(); ++i) {
    deployment->cloud(i)->Quiesce();  // the requests past each quorum
  }
  UsageTotals usage1 = deployment->CloudUsage("u");
  uint64_t coord1 = deployment->CoordReplyBytes();
  costs.write_udollars =
      ToMicrodollars(usage1.TotalCost() - usage0.TotalCost() +
                     CoordCost(coord1 - coord0, backend));

  // --- Read cost: a cache-cold agent of the same account reads the file.
  auto reader = deployment->Mount("u", fs_options);
  Check(reader.status(), "mount", backend, size);
  env->Sleep(kSecond);  // metadata cache expiry
  UsageTotals usage2 = deployment->CloudUsage("u");
  uint64_t coord2 = deployment->CoordReplyBytes();
  Check((*reader)->ReadFile("/f").status(), "read", backend, size);
  UsageTotals usage3 = deployment->CloudUsage("u");
  uint64_t coord3 = deployment->CoordReplyBytes();
  costs.read_udollars =
      ToMicrodollars(usage3.TotalCost() - usage2.TotalCost() +
                     CoordCost(coord3 - coord2, backend));

  // --- Storage cost per day for this one version.
  double per_day = 0;
  for (unsigned i = 0; i < deployment->cloud_count(); ++i) {
    auto* cloud = deployment->cloud(i);
    per_day += cloud->costs().StorageCostPerDay(cloud->provider_name() + ":u");
  }
  costs.storage_per_day_udollars = ToMicrodollars(per_day);
  (void)(*writer)->Unmount();
  (void)(*reader)->Unmount();
  return costs;
}

void PartBandC() {
  // 1 virtual second = 2 real ms: the costs are modelled and do not depend
  // on the scale, but at the bench default a 24 MB CoC write's host compute
  // advances the clock past the request deadlines and misses its quorum.
  auto env = Environment::Scaled(BenchTimeScale(2e-3));
  const size_t kMb = 1024 * 1024;
  const size_t sizes[] = {kMb, 2 * kMb, 4 * kMb, 8 * kMb,
                          16 * kMb, 24 * kMb, 30 * kMb};

  std::vector<OpCosts> aws;
  std::vector<OpCosts> coc;
  for (size_t size : sizes) {
    aws.push_back(MeasureCosts(env.get(), ScfsBackendKind::kAws, size));
    coc.push_back(MeasureCosts(env.get(), ScfsBackendKind::kCoc, size));
  }

  PrintHeader("Figure 11(b): cost per operation (microdollars)");
  std::vector<int> widths = {10, 14, 14, 14, 14};
  PrintRow({"size(MB)", "CoC read", "AWS read", "CoC write", "AWS write"},
           widths);
  for (size_t i = 0; i < std::size(sizes); ++i) {
    char c0[16], c1[24], c2[24], c3[24], c4[24];
    std::snprintf(c0, sizeof(c0), "%zu", sizes[i] / kMb);
    std::snprintf(c1, sizeof(c1), "%.1f", coc[i].read_udollars);
    std::snprintf(c2, sizeof(c2), "%.1f", aws[i].read_udollars);
    std::snprintf(c3, sizeof(c3), "%.1f", coc[i].write_udollars);
    std::snprintf(c4, sizeof(c4), "%.1f", aws[i].write_udollars);
    PrintRow({c0, c1, c2, c3, c4}, widths);
  }

  PrintHeader("Figure 11(c): storage cost per file version per day (udollars)");
  PrintRow({"size(MB)", "CoC", "AWS", "CoC/AWS", ""}, widths);
  for (size_t i = 0; i < std::size(sizes); ++i) {
    char c0[16], c1[24], c2[24], c3[24];
    std::snprintf(c0, sizeof(c0), "%zu", sizes[i] / kMb);
    std::snprintf(c1, sizeof(c1), "%.1f", coc[i].storage_per_day_udollars);
    std::snprintf(c2, sizeof(c2), "%.1f", aws[i].storage_per_day_udollars);
    std::snprintf(c3, sizeof(c3), "%.2fx",
                  coc[i].storage_per_day_udollars /
                      std::max(1e-9, aws[i].storage_per_day_udollars));
    PrintRow({c0, c1, c2, c3, ""}, widths);
  }
  std::printf(
      "\nPaper shape check: reads grow linearly with size (outbound traffic\n"
      "is charged); writes stay flat (inbound is free; only requests and\n"
      "coordination traffic cost money); CoC storage ~1.5x AWS thanks to\n"
      "erasure coding with preferred quorums (not 4x).\n");
}

}  // namespace
}  // namespace scfs

int main() {
  scfs::PartA();
  scfs::PartBandC();
  return 0;
}
