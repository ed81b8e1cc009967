// Quickstart: mount an SCFS agent on the cloud-of-clouds backend, create a
// directory tree, write and read files, inspect versions, and watch the
// garbage collector reclaim old ones.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "examples/must.h"
#include "src/scfs/deployment.h"

using namespace scfs;

int main() {
  // A complete installation: four simulated storage clouds behind DepSky and
  // a DepSpace coordination service replicated over four computing clouds.
  // 1 virtual second = 10 real ms: request deadlines stay wide enough that
  // a loaded host does not expire them.
  auto env = Environment::Scaled(1e-2);
  auto deployment = Deployment::Create(env.get(), DeploymentOptions{});

  // Mount an agent for user "alice" in blocking mode: close() returns only
  // once data is stored in a quorum of clouds (durability level 3).
  ScfsOptions options;
  options.mode = ScfsMode::kBlocking;
  options.gc.enabled = false;  // run it manually below
  auto fs = Must(deployment->Mount("alice", options), "mount");

  // POSIX-like calls, exactly what a FUSE layer would forward.
  Must(fs->Mkdir("/docs"), "mkdir /docs");
  for (const char* plan :
       {"v1: world domination", "v2: incremental world domination",
        "v3: domination via documentation", "v4: ship the reproduction"}) {
    Must(fs->WriteFile("/docs/plan.txt", ToBytes(plan)), "write plan.txt");
  }

  auto content = fs->ReadFile("/docs/plan.txt");
  if (!content.ok() || ToString(*content) != "v4: ship the reproduction") {
    std::printf("quickstart FAILED: plan.txt did not read back\n");
    return 1;
  }
  std::printf("plan.txt: %s\n", ToString(*content).c_str());

  FileStat stat = Must(fs->Stat("/docs/plan.txt"), "stat plan.txt");
  std::printf("size=%llu bytes, version=%llu, owner=%s\n",
              static_cast<unsigned long long>(stat.size),
              static_cast<unsigned long long>(stat.version),
              stat.owner.c_str());

  for (const auto& entry : Must(fs->ReadDir("/"), "readdir /")) {
    std::printf("/ contains: %s%s\n", entry.name.c_str(),
                entry.type == FileType::kDirectory ? "/" : "");
  }

  // Multi-versioning: both versions are still in the clouds (error recovery),
  // until the garbage collector trims them.
  const std::string object_id =
      Must(fs->metadata_service().Get("/docs/plan.txt"), "metadata lookup")
          .object_id;
  auto& backend = fs->storage_service().backend();
  std::printf("versions in the cloud-of-clouds before GC: %zu\n",
              Must(backend.ListVersions(object_id), "list versions").size());
  Must(fs->RunGarbageCollection(), "garbage collection");
  std::printf("versions after GC (keep last %u): %zu\n",
              fs->options().gc.versions_to_keep,
              Must(backend.ListVersions(object_id), "list versions").size());

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
