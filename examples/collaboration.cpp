// Collaboration: the paper's "collaboration infrastructure" use case —
// dependable data-based collaboration without running any code in the cloud,
// purely through the POSIX-like API, ACL sharing and consistency-on-close.
//
// Alice shares a document with Bob; they take turns editing under the
// write-write lock; Eve (no grant) is rejected by the providers themselves.
//
//   $ ./examples/collaboration

#include <cstdio>

#include "src/scfs/deployment.h"

using namespace scfs;

int main() {
  auto env = Environment::Scaled(1e-3);
  auto deployment = Deployment::Create(env.get(), DeploymentOptions{});

  auto alice = *deployment->Mount("alice", ScfsOptions{});
  auto bob = *deployment->Mount("bob", ScfsOptions{});
  auto eve = *deployment->Mount("eve", ScfsOptions{});

  // Alice writes the first draft and grants Bob read-write access: the agent
  // updates the ACLs of the data objects at every cloud provider AND the
  // metadata tuple in the coordination service (paper section 2.6).
  alice->WriteFile("/paper.tex", ToBytes("\\title{SCFS}\n% alice's draft\n"));
  alice->SetFacl("/paper.tex", "bob", /*read=*/true, /*write=*/true);
  env->Sleep(kSecond);  // let alice's metadata cache TTL lapse

  // Eve was never granted anything: both the coordination service and the
  // storage clouds reject her (the agent is not trusted to enforce this).
  auto eve_read = eve->ReadFile("/paper.tex");
  std::printf("eve reads: %s\n", eve_read.ok()
                                     ? "?! SECURITY BUG"
                                     : eve_read.status().ToString().c_str());

  // Bob opens for writing (takes the lock), edits, closes (publishes).
  auto bob_handle = *bob->Open("/paper.tex", kOpenRead | kOpenWrite);

  // While Bob holds it, Alice's write-open gets BUSY (write-write conflicts
  // are prevented by the lock service; reads are never blocked).
  auto alice_attempt = alice->Open("/paper.tex", kOpenWrite);
  std::printf("alice opens for write while bob edits: %s\n",
              alice_attempt.ok() ? "?! LOCK BUG"
                                 : alice_attempt.status().ToString().c_str());
  auto alice_reader = alice->Open("/paper.tex", kOpenRead);
  std::printf("alice opens for read while bob edits: %s\n",
              alice_reader.ok() ? "OK" : "?! read should not block");
  alice->Close(*alice_reader);

  Bytes draft = *bob->Read(bob_handle, 0, 1 << 20);
  Bytes edited = draft;
  Bytes addition = ToBytes("% bob's related work section\n");
  edited.insert(edited.end(), addition.begin(), addition.end());
  bob->Truncate(bob_handle, 0);
  bob->Write(bob_handle, 0, edited);
  bob->Close(bob_handle);  // consistency-on-close: now visible to alice

  env->Sleep(kSecond);
  auto merged = alice->ReadFile("/paper.tex");
  std::printf("alice now sees %s", merged.ok()
                                      ? ToString(*merged).c_str()
                                      : merged.status().ToString().c_str());

  // Revocation: bob loses access everywhere at once.
  alice->SetFacl("/paper.tex", "bob", false, false);
  env->Sleep(kSecond);
  auto bob_after = bob->ReadFile("/paper.tex");
  std::printf("bob after revocation: %s\n",
              bob_after.ok() ? "?! REVOCATION BUG"
                             : bob_after.status().ToString().c_str());

  const bool ok = !eve_read.ok() && !alice_attempt.ok() && alice_reader.ok() &&
                  merged.ok() && *merged == edited && !bob_after.ok();
  alice->Unmount();
  bob->Unmount();
  eve->Unmount();
  std::printf(ok ? "collaboration OK\n" : "collaboration FAILED\n");
  return ok ? 0 : 1;
}
