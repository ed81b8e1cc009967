// Quickstart: mount an SCFS agent on the cloud-of-clouds backend, create a
// directory tree, write and read files, inspect versions, and watch the
// garbage collector reclaim old ones.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "src/scfs/deployment.h"

using namespace scfs;

int main() {
  // A complete installation: four simulated storage clouds behind DepSky and
  // a DepSpace coordination service replicated over four computing clouds.
  auto env = Environment::Scaled(1e-3);  // 1 virtual second = 1 real ms
  auto deployment = Deployment::Create(env.get(), DeploymentOptions{});

  // Mount an agent for user "alice" in blocking mode: close() returns only
  // once data is stored in a quorum of clouds (durability level 3).
  ScfsOptions options;
  options.mode = ScfsMode::kBlocking;
  options.gc.enabled = false;  // run it manually below
  auto mounted = deployment->Mount("alice", options);
  if (!mounted.ok()) {
    std::printf("mount failed: %s\n", mounted.status().ToString().c_str());
    return 1;
  }
  auto& fs = *mounted;

  // POSIX-like calls, exactly what a FUSE layer would forward.
  fs->Mkdir("/docs");
  fs->WriteFile("/docs/plan.txt", ToBytes("v1: world domination"));
  fs->WriteFile("/docs/plan.txt", ToBytes("v2: incremental world domination"));
  fs->WriteFile("/docs/plan.txt", ToBytes("v3: domination via documentation"));
  fs->WriteFile("/docs/plan.txt", ToBytes("v4: ship the reproduction"));

  auto content = fs->ReadFile("/docs/plan.txt");
  if (!content.ok() || ToString(*content) != "v4: ship the reproduction") {
    std::printf("quickstart FAILED: plan.txt did not read back\n");
    return 1;
  }
  std::printf("plan.txt: %s\n", ToString(*content).c_str());
  (void)env;

  auto stat = fs->Stat("/docs/plan.txt");
  std::printf("size=%llu bytes, version=%llu, owner=%s\n",
              static_cast<unsigned long long>(stat->size),
              static_cast<unsigned long long>(stat->version),
              stat->owner.c_str());

  auto root_entries = fs->ReadDir("/");
  for (const auto& entry : *root_entries) {
    std::printf("/ contains: %s%s\n", entry.name.c_str(),
                entry.type == FileType::kDirectory ? "/" : "");
  }

  // Multi-versioning: both versions are still in the clouds (error recovery),
  // until the garbage collector trims them.
  auto md = fs->metadata_service().Get("/docs/plan.txt");
  auto versions = fs->storage_service().backend().ListVersions(md->object_id);
  std::printf("versions in the cloud-of-clouds before GC: %zu\n",
              versions->size());
  fs->RunGarbageCollection();
  versions = fs->storage_service().backend().ListVersions(md->object_id);
  std::printf("versions after GC (keep last %u): %zu\n",
              fs->options().gc.versions_to_keep, versions->size());

  // What did this cost? (Paper Figure 11 economics, measured.)
  UsageTotals usage = deployment->CloudUsage("alice");
  std::printf("cloud usage: %llu PUTs, %llu GETs, %.2f microdollars total\n",
              static_cast<unsigned long long>(usage.puts),
              static_cast<unsigned long long>(usage.gets),
              ToMicrodollars(usage.TotalCost()));

  fs->Unmount();
  std::printf("quickstart OK\n");
  return 0;
}
