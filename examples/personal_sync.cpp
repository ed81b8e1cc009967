// Personal file synchronization: the paper's "secure personal file system"
// use case — a Dropbox-like personal store in non-sharing mode (SCFS-*-NS):
// no coordination service at all, metadata in a Private Name Space object,
// background uploads, and the whole state recoverable on a new machine.
//
//   $ ./examples/personal_sync

#include <cstdio>

#include "src/scfs/deployment.h"

using namespace scfs;

int main() {
  // 1 virtual second = 10 real ms: the clouds' 5 s request deadlines stay
  // 50 real ms wide, so a loaded host does not expire them.
  auto env = Environment::Scaled(1e-2);
  auto deployment = Deployment::Create(env.get(), DeploymentOptions{});

  ScfsOptions options;
  options.mode = ScfsMode::kNonSharing;  // S3QL-like, but on a cloud-of-clouds

  // Laptop session: work normally; closes return at local-disk speed while
  // uploads stream in the background.
  {
    auto laptop = *deployment->Mount("dana", options);
    laptop->Mkdir("/photos");
    laptop->Mkdir("/notes");
    for (int i = 0; i < 5; ++i) {
      laptop->WriteFile("/photos/img" + std::to_string(i) + ".raw",
                        Bytes(256 * 1024, static_cast<uint8_t>(i)));
    }
    laptop->WriteFile("/notes/todo.md", ToBytes("- reproduce SCFS\n"));
    laptop->Rename("/notes/todo.md", "/notes/done.md");
    Environment::ResetThreadCharged();
    laptop->WriteFile("/notes/diary.md", ToBytes("dear diary, clouds are ok"));
    std::printf("foreground cost of a save in NS mode: %.0f virtual ms\n",
                ToSeconds(Environment::ThreadCharged()) * 1000);
    laptop->Unmount();  // drains uploads, persists the PNS object
  }

  // The laptop is stolen. A new machine mounts with the same accounts: the
  // PNS object and every file come back from the clouds.
  auto desktop = *deployment->Mount("dana", options);
  auto entries = desktop->ReadDir("/photos");
  std::printf("recovered %zu photos on the new machine\n", entries->size());
  auto diary = desktop->ReadFile("/notes/diary.md");
  std::printf("diary: %s\n", ToString(*diary).c_str());
  auto renamed = desktop->Stat("/notes/done.md");
  std::printf("renamed note survived: %s\n", renamed.ok() ? "yes" : "no");

  // Privacy: nothing in any provider mentions the plaintext.
  auto* cloud = deployment->cloud(0);
  auto objects = cloud->List({cloud->provider_name() + ":dana"}, "");
  std::printf("objects at %s: %zu (all encrypted shards)\n",
              cloud->provider_name().c_str(), objects->size());

  bool ok = entries->size() == 5 && diary.ok() && renamed.ok();
  desktop->Unmount();
  std::printf(ok ? "personal sync OK\n" : "personal sync FAILED\n");
  return ok ? 0 : 1;
}
