// Disaster recovery: the paper's "automatic disaster recovery" use case.
// Files written through SCFS-CoC survive not only the loss of the local
// machine but arbitrary faults of f = 1 out of 4 cloud providers: a full
// outage, silent data corruption, even byzantine (stale-serving) behaviour.
//
//   $ ./examples/disaster_recovery

#include <cstdio>

#include "examples/must.h"
#include "src/scfs/deployment.h"

using namespace scfs;

int main() {
  // 1 virtual second = 10 real ms: request deadlines stay wide enough that
  // a loaded host does not expire them.
  auto env = Environment::Scaled(1e-2);
  auto deployment = Deployment::Create(env.get(), DeploymentOptions{});

  Bytes payroll = ToBytes("Q2 payroll: everyone gets a raise");
  {
    auto fs = Must(deployment->Mount("corp", ScfsOptions{}), "mount");
    Must(fs->Mkdir("/backup"), "mkdir /backup");
    Must(fs->WriteFile("/backup/payroll.db", payroll), "write payroll.db");
    Must(fs->Unmount(), "unmount");
    // The machine that wrote the data is gone, along with all its caches.
  }

  struct Disaster {
    const char* name;
    std::function<void(SimulatedCloud*)> strike;
    std::function<void(SimulatedCloud*)> recover;
  };
  const Disaster disasters[] = {
      {"provider outage",
       [](SimulatedCloud* c) { c->faults().SetUnavailable(true); },
       [](SimulatedCloud* c) { c->faults().SetUnavailable(false); }},
      {"silent data corruption",
       [](SimulatedCloud* c) { c->faults().SetCorruptAllReads(true); },
       [](SimulatedCloud* c) { c->faults().SetCorruptAllReads(false); }},
      {"byzantine rollback",
       [](SimulatedCloud* c) { c->faults().SetByzantine(true); },
       [](SimulatedCloud* c) { c->faults().SetByzantine(false); }},
  };

  bool all_ok = true;
  for (const auto& disaster : disasters) {
    for (unsigned victim = 0; victim < deployment->cloud_count(); ++victim) {
      disaster.strike(deployment->cloud(victim));
      // A fresh machine, zero local state: everything must come back from
      // the remaining clouds.
      auto fs = Must(deployment->Mount("corp", ScfsOptions{}),
                     "mount on a fresh machine");
      auto restored = fs->ReadFile("/backup/payroll.db");
      bool ok = restored.ok() && *restored == payroll;
      all_ok = all_ok && ok;
      std::printf("%-26s at %-16s -> %s\n", disaster.name,
                  deployment->cloud(victim)->provider_name().c_str(),
                  ok ? "recovered" : "LOST");
      fs->Unmount();
      disaster.recover(deployment->cloud(victim));
    }
  }

  // Confidentiality: even a full provider compromise leaks nothing — each
  // cloud holds an encrypted erasure shard plus one key share (f+1 needed).
  std::string needle = "payroll";
  bool leaked = false;
  for (unsigned i = 0; i < deployment->cloud_count(); ++i) {
    auto* cloud = deployment->cloud(i);
    for (const auto& object :
         Must(cloud->List({cloud->provider_name() + ":corp"}, ""), "list")) {
      Bytes blob = Must(cloud->PeekLatest(object.key), "peek");
      std::string haystack(blob.begin(), blob.end());
      if (haystack.find(needle) != std::string::npos) {
        leaked = true;
      }
    }
  }
  std::printf("plaintext visible to any single provider: %s\n",
              leaked ? "?! CONFIDENTIALITY BUG" : "no");

  std::printf(all_ok && !leaked ? "disaster recovery OK\n"
                                : "disaster recovery FAILED\n");
  return all_ok && !leaked ? 0 : 1;
}
