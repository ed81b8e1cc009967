// SCFS agent tests: POSIX semantics, consistency-on-close between agents,
// locking, ACL-based sharing, private name spaces, modes of operation,
// garbage collection and cloud-fault tolerance — run over both backends where
// it matters.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/cloud/simulated_cloud.h"
#include "src/coord/local_coordination.h"
#include "src/crypto/sha1.h"
#include "src/scfs/consistency_anchor.h"
#include "src/scfs/deployment.h"

namespace scfs {
namespace {

class ScfsTest : public ::testing::TestWithParam<ScfsBackendKind> {
 protected:
  ScfsTest() : env_(Environment::Instant()) {
    DeploymentOptions options;
    options.backend = GetParam();
    options.zero_latency = true;
    deployment_ = Deployment::Create(env_.get(), options);
  }

  std::unique_ptr<ScfsFileSystem> MountAgent(
      const std::string& user, ScfsMode mode = ScfsMode::kBlocking,
      bool use_pns = false) {
    ScfsOptions options;
    options.mode = mode;
    options.use_pns = use_pns;
    auto fs = deployment_->Mount(user, options);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    return std::move(*fs);
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Deployment> deployment_;
};

TEST_P(ScfsTest, WriteReadRoundTrip) {
  auto fs = MountAgent("alice");
  Bytes data = ToBytes("hello scfs");
  ASSERT_TRUE(fs->WriteFile("/f.txt", data).ok());
  auto read = fs->ReadFile("/f.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_P(ScfsTest, OpenMissingFileFails) {
  auto fs = MountAgent("alice");
  EXPECT_EQ(fs->Open("/nope", kOpenRead).status().code(),
            ErrorCode::kNotFound);
}

TEST_P(ScfsTest, CreateRequiresParentDirectory) {
  auto fs = MountAgent("alice");
  EXPECT_EQ(fs->Open("/no/such/dir/f", kOpenWrite | kOpenCreate)
                .status()
                .code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(fs->Mkdir("/dir").ok());
  ASSERT_TRUE(fs->WriteFile("/dir/f", ToBytes("x")).ok());
}

TEST_P(ScfsTest, PartialReadsAndOffsets) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("0123456789")).ok());
  auto fh = fs->Open("/f", kOpenRead);
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(ToString(*fs->Read(*fh, 2, 3)), "234");
  EXPECT_EQ(ToString(*fs->Read(*fh, 8, 100)), "89");  // clamped
  EXPECT_TRUE(fs->Read(*fh, 20, 5)->empty());         // past EOF
  ASSERT_TRUE(fs->Close(*fh).ok());
}

TEST_P(ScfsTest, WriteAtOffsetExtends) {
  auto fs = MountAgent("alice");
  auto fh = fs->Open("/f", kOpenWrite | kOpenCreate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs->Write(*fh, 0, ToBytes("abc")).ok());
  ASSERT_TRUE(fs->Write(*fh, 5, ToBytes("xyz")).ok());
  ASSERT_TRUE(fs->Close(*fh).ok());
  auto read = fs->ReadFile("/f");
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 8u);
  EXPECT_EQ((*read)[3], 0);  // hole filled with zeros
  EXPECT_EQ(ToString(Bytes(read->begin() + 5, read->end())), "xyz");
}

TEST_P(ScfsTest, TruncateOnOpenAndExplicit) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("longcontent")).ok());
  // O_TRUNC drops the old content without fetching it.
  auto fh = fs->Open("/f", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs->Write(*fh, 0, ToBytes("hi")).ok());
  ASSERT_TRUE(fs->Close(*fh).ok());
  EXPECT_EQ(ToString(*fs->ReadFile("/f")), "hi");
  // Explicit truncate.
  fh = fs->Open("/f", kOpenWrite);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs->Truncate(*fh, 1).ok());
  ASSERT_TRUE(fs->Close(*fh).ok());
  EXPECT_EQ(ToString(*fs->ReadFile("/f")), "h");
}

TEST_P(ScfsTest, StatReportsSizeAndType) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->WriteFile("/d/f", ToBytes("12345")).ok());
  auto file_stat = fs->Stat("/d/f");
  ASSERT_TRUE(file_stat.ok());
  EXPECT_EQ(file_stat->type, FileType::kFile);
  EXPECT_EQ(file_stat->size, 5u);
  EXPECT_EQ(file_stat->owner, "alice");
  auto dir_stat = fs->Stat("/d");
  ASSERT_TRUE(dir_stat.ok());
  EXPECT_EQ(dir_stat->type, FileType::kDirectory);
  auto root_stat = fs->Stat("/");
  ASSERT_TRUE(root_stat.ok());
  EXPECT_EQ(root_stat->type, FileType::kDirectory);
}

TEST_P(ScfsTest, ReadDirListsChildrenOnly) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->Mkdir("/d/sub").ok());
  ASSERT_TRUE(fs->WriteFile("/d/a", ToBytes("1")).ok());
  ASSERT_TRUE(fs->WriteFile("/d/sub/deep", ToBytes("2")).ok());
  auto entries = fs->ReadDir("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].name, "a");
  EXPECT_EQ((*entries)[1].name, "sub");
  EXPECT_EQ((*entries)[1].type, FileType::kDirectory);
}

TEST_P(ScfsTest, MkdirErrors) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  EXPECT_EQ(fs->Mkdir("/d").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs->Mkdir("/missing/d").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("x")).ok());
  EXPECT_EQ(fs->Mkdir("/f/d").code(), ErrorCode::kNotDirectory);
}

TEST_P(ScfsTest, RmdirOnlyWhenEmpty) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->WriteFile("/d/f", ToBytes("x")).ok());
  EXPECT_EQ(fs->Rmdir("/d").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs->Unlink("/d/f").ok());
  ASSERT_TRUE(fs->Rmdir("/d").ok());
  EXPECT_EQ(fs->Stat("/d").status().code(), ErrorCode::kNotFound);
}

TEST_P(ScfsTest, UnlinkRemovesFromNamespace) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("x")).ok());
  ASSERT_TRUE(fs->Unlink("/f").ok());
  EXPECT_EQ(fs->Stat("/f").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs->Unlink("/f").code(), ErrorCode::kNotFound);
  // The path can be reused.
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("y")).ok());
  EXPECT_EQ(ToString(*fs->ReadFile("/f")), "y");
}

TEST_P(ScfsTest, RenameFileAndDirectory) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->WriteFile("/d/f", ToBytes("content")).ok());
  // File rename.
  ASSERT_TRUE(fs->Rename("/d/f", "/d/g").ok());
  EXPECT_EQ(fs->Stat("/d/f").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(ToString(*fs->ReadFile("/d/g")), "content");
  // Directory rename moves the subtree.
  ASSERT_TRUE(fs->Rename("/d", "/e").ok());
  EXPECT_EQ(ToString(*fs->ReadFile("/e/g")), "content");
  EXPECT_EQ(fs->Stat("/d").status().code(), ErrorCode::kNotFound);
  // Rename into own subtree is rejected.
  ASSERT_TRUE(fs->Mkdir("/e/sub").ok());
  EXPECT_EQ(fs->Rename("/e", "/e/sub/x").code(), ErrorCode::kInvalidArgument);
}

TEST_P(ScfsTest, ConsistencyOnCloseAcrossAgents) {
  auto alice = MountAgent("alice");
  auto bob_view = MountAgent("alice");  // second machine, same user
  Bytes v1 = ToBytes("version 1");
  ASSERT_TRUE(alice->WriteFile("/shared", v1).ok());
  // After alice's close, the other agent sees the update on open.
  auto read = bob_view->ReadFile("/shared");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, v1);
  // And a subsequent update too (cache must revalidate by hash).
  env_->Sleep(kSecond);  // let the 500 ms metadata cache expire
  Bytes v2 = ToBytes("version 2 -- longer");
  ASSERT_TRUE(alice->WriteFile("/shared", v2).ok());
  env_->Sleep(kSecond);
  read = bob_view->ReadFile("/shared");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, v2);
}

TEST_P(ScfsTest, StatOfJustOpenedFileNeedsNoRound) {
  auto alice = MountAgent("alice");
  auto reader = MountAgent("alice");  // second machine, same user
  Bytes v1 = ToBytes("version 1");
  ASSERT_TRUE(alice->WriteFile("/f", v1).ok());
  auto fh = reader->Open("/f", kOpenRead);
  ASSERT_TRUE(fh.ok());
  // As after a cold open whose cloud fetch outlasted the cache TTL: the
  // cached entry is gone, but the just-opened file answers without a round.
  reader->metadata_service().InvalidateCache("/f");
  const uint64_t coord_reads = reader->metadata_service().coord_reads();
  auto stat = reader->Stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, v1.size());
  EXPECT_EQ(reader->metadata_service().coord_reads(), coord_reads);
  // One TTL after the open, stat asks the metadata service again and sees
  // another agent's update, while the handle still reads what it opened.
  Bytes v2 = ToBytes("version 2 -- longer");
  ASSERT_TRUE(alice->WriteFile("/f", v2).ok());
  env_->Sleep(kSecond);
  EXPECT_EQ(reader->Stat("/f")->size, v2.size());
  EXPECT_EQ(reader->metadata_service().coord_reads(), coord_reads + 1);
  EXPECT_EQ(*reader->Read(*fh, 0, 100), v1);
  ASSERT_TRUE(reader->Close(*fh).ok());
}

TEST_P(ScfsTest, OwnChangesStopOpenFileStats) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->WriteFile("/u", ToBytes("unlinked")).ok());
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->WriteFile("/d/r", ToBytes("renamed")).ok());
  ASSERT_TRUE(fs->WriteFile("/w", ToBytes("short")).ok());
  auto unlinked = fs->Open("/u", kOpenRead);
  auto renamed = fs->Open("/d/r", kOpenRead);
  auto reread = fs->Open("/w", kOpenRead);
  ASSERT_TRUE(unlinked.ok() && renamed.ok() && reread.ok());

  ASSERT_TRUE(fs->Unlink("/u").ok());
  EXPECT_EQ(fs->Stat("/u").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(fs->Rename("/d", "/e").ok());
  EXPECT_EQ(fs->Stat("/d/r").status().code(), ErrorCode::kNotFound);
  Bytes longer = ToBytes("a longer version");
  ASSERT_TRUE(fs->WriteFile("/w", longer).ok());
  EXPECT_EQ(fs->Stat("/w")->size, longer.size());
  // The handles still read the versions they opened.
  EXPECT_EQ(ToString(*fs->Read(*unlinked, 0, 100)), "unlinked");
  EXPECT_EQ(ToString(*fs->Read(*reread, 0, 100)), "short");
  for (FileHandle h : {*unlinked, *renamed, *reread}) {
    ASSERT_TRUE(fs->Close(h).ok());
  }
}

TEST_P(ScfsTest, WriteWriteConflictGetsBusy) {
  auto a = MountAgent("alice");
  auto b = MountAgent("alice");
  ASSERT_TRUE(a->WriteFile("/f", ToBytes("x")).ok());
  env_->Sleep(kSecond);
  auto fh_a = a->Open("/f", kOpenWrite);
  ASSERT_TRUE(fh_a.ok());
  EXPECT_EQ(b->Open("/f", kOpenWrite).status().code(), ErrorCode::kBusy);
  // Reading is always allowed.
  auto fh_b = b->Open("/f", kOpenRead);
  EXPECT_TRUE(fh_b.ok());
  ASSERT_TRUE(b->Close(*fh_b).ok());
  // After close, the other client can lock.
  ASSERT_TRUE(a->Close(*fh_a).ok());
  auto fh_b2 = b->Open("/f", kOpenWrite);
  EXPECT_TRUE(fh_b2.ok());
  ASSERT_TRUE(b->Close(*fh_b2).ok());
}

TEST_P(ScfsTest, CrashedClientLockExpires) {
  auto a = MountAgent("alice");
  auto b = MountAgent("alice");
  ASSERT_TRUE(a->WriteFile("/f", ToBytes("x")).ok());
  env_->Sleep(kSecond);
  auto fh_a = a->Open("/f", kOpenWrite);
  ASSERT_TRUE(fh_a.ok());
  EXPECT_EQ(b->Open("/f", kOpenWrite).status().code(), ErrorCode::kBusy);
  // "a" crashes (never closes). The ephemeral lock lease runs out.
  env_->Sleep(200 * kSecond);
  auto fh_b = b->Open("/f", kOpenWrite);
  EXPECT_TRUE(fh_b.ok());
  ASSERT_TRUE(b->Close(*fh_b).ok());
}

TEST_P(ScfsTest, SharingWithAclBetweenUsers) {
  auto alice = MountAgent("alice");
  auto bob = MountAgent("bob");
  Bytes data = ToBytes("alice's document");
  ASSERT_TRUE(alice->WriteFile("/doc", data).ok());
  env_->Sleep(kSecond);

  // Before the grant bob cannot read (metadata ACL + cloud ACL).
  EXPECT_FALSE(bob->ReadFile("/doc").ok());

  ASSERT_TRUE(alice->SetFacl("/doc", "bob", true, false).ok());
  env_->Sleep(kSecond);
  auto read = bob->ReadFile("/doc");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);

  // Read-only: bob cannot open for writing.
  EXPECT_EQ(bob->Open("/doc", kOpenWrite).status().code(),
            ErrorCode::kPermissionDenied);

  // Upgrade to read-write; bob updates; alice reads bob's version.
  ASSERT_TRUE(alice->SetFacl("/doc", "bob", true, true).ok());
  env_->Sleep(kSecond);
  Bytes update = ToBytes("bob was here");
  ASSERT_TRUE(bob->WriteFile("/doc", update).ok());
  env_->Sleep(kSecond);
  auto alice_read = alice->ReadFile("/doc");
  ASSERT_TRUE(alice_read.ok()) << alice_read.status().ToString();
  EXPECT_EQ(*alice_read, update);

  // GetFacl reflects the grants.
  auto acl = alice->GetFacl("/doc");
  ASSERT_TRUE(acl.ok());
  ASSERT_EQ(acl->size(), 1u);
  EXPECT_EQ((*acl)[0].user, "bob");
  EXPECT_TRUE((*acl)[0].write);

  // Revoke: bob loses access.
  ASSERT_TRUE(alice->SetFacl("/doc", "bob", false, false).ok());
  env_->Sleep(kSecond);
  EXPECT_FALSE(bob->ReadFile("/doc").ok());
}

TEST_P(ScfsTest, OnlyOwnerChangesAcl) {
  auto alice = MountAgent("alice");
  auto bob = MountAgent("bob");
  ASSERT_TRUE(alice->WriteFile("/doc", ToBytes("x")).ok());
  ASSERT_TRUE(alice->SetFacl("/doc", "bob", true, false).ok());
  env_->Sleep(kSecond);
  EXPECT_EQ(bob->SetFacl("/doc", "bob", true, true).code(),
            ErrorCode::kPermissionDenied);
}

TEST_P(ScfsTest, NonBlockingModeEventuallyPublishes) {
  auto writer = MountAgent("alice", ScfsMode::kNonBlocking);
  auto reader = MountAgent("alice");
  Bytes data = ToBytes("async data");
  ASSERT_TRUE(writer->WriteFile("/f", data).ok());
  writer->DrainBackground();
  env_->Sleep(kSecond);
  auto read = reader->ReadFile("/f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST_P(ScfsTest, NonBlockingHoldsLockUntilUploadDone) {
  // Mutual exclusion is preserved: metadata is updated and the lock released
  // only after the background upload completes (§3.1).
  auto writer = MountAgent("alice", ScfsMode::kNonBlocking);
  ASSERT_TRUE(writer->WriteFile("/f", ToBytes("queued")).ok());
  // Until drained, the lock may still be held; after drain it must be free.
  writer->DrainBackground();
  auto reader = MountAgent("alice");
  auto fh = reader->Open("/f", kOpenWrite);
  EXPECT_TRUE(fh.ok());
  ASSERT_TRUE(reader->Close(*fh).ok());
}

TEST_P(ScfsTest, NonBlockingLocalReadAfterClose) {
  // The writer itself sees its own update immediately (local caches).
  auto fs = MountAgent("alice", ScfsMode::kNonBlocking);
  Bytes data = ToBytes("read my own writes");
  ASSERT_TRUE(fs->WriteFile("/f", data).ok());
  auto read = fs->ReadFile("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  fs->DrainBackground();
}

TEST_P(ScfsTest, NonSharingModeWorksWithoutCoordination) {
  auto fs = MountAgent("alice", ScfsMode::kNonSharing);
  ASSERT_TRUE(fs->Mkdir("/docs").ok());
  Bytes data = ToBytes("private data");
  ASSERT_TRUE(fs->WriteFile("/docs/f", data).ok());
  EXPECT_EQ(*fs->ReadFile("/docs/f"), data);
  // Sharing operations are rejected.
  EXPECT_EQ(fs->SetFacl("/docs/f", "bob", true, false).code(),
            ErrorCode::kNotSupported);
  fs->DrainBackground();
  // A remount recovers the namespace from the cloud-stored PNS.
  ASSERT_TRUE(fs->Unmount().ok());
  auto remounted = MountAgent("alice", ScfsMode::kNonSharing);
  auto read = remounted->ReadFile("/docs/f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST_P(ScfsTest, PnsKeepsPrivateFilesOutOfCoordination) {
  auto bob = MountAgent("bob");  // registers bob's cloud ids
  auto fs = MountAgent("alice", ScfsMode::kBlocking, /*use_pns=*/true);
  ASSERT_TRUE(fs->WriteFile("/private", ToBytes("p")).ok());
  // No metadata tuple for the private file.
  auto entry =
      deployment_->coord()->Read("alice", MetadataKey("/private"));
  EXPECT_EQ(entry.status().code(), ErrorCode::kNotFound);

  // Sharing promotes it into the coordination service.
  ASSERT_TRUE(fs->SetFacl("/private", "bob", true, false).ok());
  entry = deployment_->coord()->Read("alice", MetadataKey("/private"));
  EXPECT_TRUE(entry.ok());

  // Revoking all grants demotes it back.
  ASSERT_TRUE(fs->SetFacl("/private", "bob", false, false).ok());
  entry = deployment_->coord()->Read("alice", MetadataKey("/private"));
  EXPECT_EQ(entry.status().code(), ErrorCode::kNotFound);
  // Still readable throughout.
  EXPECT_TRUE(fs->ReadFile("/private").ok());
  fs->DrainBackground();
}

TEST_P(ScfsTest, PnsSharedFileVisibleToOtherUser) {
  auto alice = MountAgent("alice", ScfsMode::kBlocking, /*use_pns=*/true);
  auto bob = MountAgent("bob");
  ASSERT_TRUE(alice->WriteFile("/doc", ToBytes("pns shared")).ok());
  ASSERT_TRUE(alice->SetFacl("/doc", "bob", true, false).ok());
  env_->Sleep(kSecond);
  auto read = bob->ReadFile("/doc");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(ToString(*read), "pns shared");
}

TEST_P(ScfsTest, GarbageCollectorTrimsOldVersions) {
  ScfsOptions options;
  options.mode = ScfsMode::kBlocking;
  options.gc.enabled = false;  // run manually
  options.gc.versions_to_keep = 2;
  auto fs = deployment_->Mount("alice", options);
  ASSERT_TRUE(fs.ok());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*fs)->WriteFile("/f", ToBytes("version " + std::to_string(i))).ok());
  }
  auto stat = (*fs)->Stat("/f");
  ASSERT_TRUE(stat.ok());
  // The last close's cloud metadata is written behind it.
  ASSERT_TRUE((*fs)->SyncBarrier().ok());

  // Find the object id through the metadata service.
  auto md = (*fs)->metadata_service().Get("/f");
  ASSERT_TRUE(md.ok());
  auto before = (*fs)->storage_service().backend().ListVersions(md->object_id);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 5u);

  ASSERT_TRUE((*fs)->RunGarbageCollection().ok());
  auto after = (*fs)->storage_service().backend().ListVersions(md->object_id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u);
  // The live version survives.
  EXPECT_EQ(ToString(*(*fs)->ReadFile("/f")), "version 4");
}

TEST_P(ScfsTest, GarbageCollectorReclaimsDeletedFiles) {
  ScfsOptions options;
  options.gc.enabled = false;
  auto fs = deployment_->Mount("alice", options);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->WriteFile("/f", ToBytes("doomed")).ok());
  auto md = (*fs)->metadata_service().Get("/f");
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE((*fs)->Unlink("/f").ok());
  // Data still in the cloud (recoverable) until GC runs.
  auto versions = (*fs)->storage_service().backend().ListVersions(md->object_id);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 1u);
  ASSERT_TRUE((*fs)->RunGarbageCollection().ok());
  versions = (*fs)->storage_service().backend().ListVersions(md->object_id);
  // Unit gone (empty list or not found are both acceptable).
  EXPECT_TRUE(!versions.ok() || versions->empty());
}

TEST_P(ScfsTest, MemoryCacheServesRepeatedReads) {
  auto fs = MountAgent("alice");
  Bytes data(100 * 1024, 7);
  ASSERT_TRUE(fs->WriteFile("/f", data).ok());
  uint64_t cloud_reads_before = fs->storage_service().cloud_reads();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs->ReadFile("/f").ok());
  }
  // Always-write/avoid-reading: all these reads resolve locally.
  EXPECT_EQ(fs->storage_service().cloud_reads(), cloud_reads_before);
  EXPECT_GE(fs->storage_service().memory_hits(), 10u);
}

// Appends `record` to `path`: open for writing, write at the end of what the
// open read, close.
Status Append(FileSystem* fs, const std::string& path,
              const std::string& record) {
  ASSIGN_OR_RETURN(FileHandle handle, fs->Open(path, kOpenWrite));
  Result<Bytes> current = fs->Read(handle, 0, 1 << 20);
  Status written = current.status();
  if (written.ok()) {
    written = fs->Write(handle, current->size(), ToBytes(record));
  }
  Status closed = fs->Close(handle);
  return written.ok() ? closed : written;
}

// Two agents of one user. The second caches the file's entry (a long TTL
// makes the window certain), the first appends, then the second appends
// too: its open must see the first append, which its cache does not hold.
// An open that trusted the cache would publish "AC" over the acknowledged
// "AB".
void ExpectNoLostAppend(Deployment* deployment, ScfsMode mode) {
  ScfsOptions options;
  options.mode = mode;
  options.metadata_cache_ttl = 600 * kSecond;
  auto first = deployment->Mount("alice", options);
  auto second = deployment->Mount("alice", options);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE((*first)->WriteFile("/f", ToBytes("A")).ok());
  ASSERT_TRUE((*first)->SyncBarrier().ok());
  ASSERT_EQ(ToString(*(*second)->ReadFile("/f")), "A");

  ASSERT_TRUE(Append(first->get(), "/f", "B").ok());
  ASSERT_TRUE((*first)->SyncBarrier().ok());
  ASSERT_TRUE(Append(second->get(), "/f", "C").ok());
  ASSERT_TRUE((*second)->SyncBarrier().ok());

  auto fresh = deployment->Mount("alice", ScfsOptions{});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ToString(*(*fresh)->ReadFile("/f")), "ABC");
}

std::unique_ptr<ScfsFileSystem> MountAlice(Deployment* deployment,
                                           ScfsOptions options = {}) {
  auto fs = deployment->Mount("alice", options);
  EXPECT_TRUE(fs.ok()) << fs.status().ToString();
  return fs.ok() ? std::move(*fs) : nullptr;
}

// An unlink checks the file lock in its own ordered slot: while another
// agent holds the write lock it fails with kBusy and the file survives.
void ExpectUnlinkBusyWhileAnotherAgentWrites(Deployment* deployment) {
  auto writer = MountAlice(deployment);
  auto remover = MountAlice(deployment);
  ASSERT_TRUE(writer && remover);
  ASSERT_TRUE(writer->WriteFile("/f", ToBytes("kept")).ok());
  auto fh = writer->Open("/f", kOpenWrite);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  EXPECT_EQ(remover->Unlink("/f").code(), ErrorCode::kBusy);
  ASSERT_TRUE(writer->Write(*fh, 4, ToBytes("+")).ok());
  ASSERT_TRUE(writer->Close(*fh).ok());
  ASSERT_TRUE(writer->SyncBarrier().ok());
  EXPECT_EQ(ToString(*MountAlice(deployment)->ReadFile("/f")), "kept+");
  // Once the lock is free the unlink goes through, although the entry it
  // read before has moved on (one conflict, one re-read).
  ASSERT_TRUE(remover->Unlink("/f").ok());
  EXPECT_EQ(MountAlice(deployment)->Stat("/f").status().code(),
            ErrorCode::kNotFound);
}

// A writer whose lock lease ran out does not stop an unlink, and its later
// close cannot bring the file back: its publish is a compare-and-swap on
// the version it read under the lock.
void ExpectExpiredWriterCannotResurrect(Deployment* deployment,
                                        Environment* env) {
  ScfsOptions short_lease;
  short_lease.locks.lease = 10 * kSecond;
  auto late = MountAlice(deployment, short_lease);
  auto remover = MountAlice(deployment);
  ASSERT_TRUE(late && remover);
  ASSERT_TRUE(late->WriteFile("/f", ToBytes("base")).ok());
  auto fh = late->Open("/f", kOpenWrite);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  ASSERT_TRUE(late->Write(*fh, 4, ToBytes("+late")).ok());
  env->Sleep(20 * kSecond);  // past the lock's lease
  ASSERT_TRUE(remover->Unlink("/f").ok());
  const Status closed = late->Close(*fh);
  EXPECT_TRUE(closed.code() == ErrorCode::kConflict ||
              closed.code() == ErrorCode::kNotFound)
      << closed.ToString();
  ASSERT_TRUE(late->SyncBarrier().ok());
  EXPECT_EQ(MountAlice(deployment)->Stat("/f").status().code(),
            ErrorCode::kNotFound);
}

// An unlink that starts from a cached entry another agent has since
// replaced conflicts, re-reads the entry once and removes it, and its
// tombstone names the removed entry's data unit.
void ExpectStaleUnlinkRetries(Deployment* deployment) {
  ScfsOptions long_cache;
  long_cache.metadata_cache_ttl = 600 * kSecond;
  auto writer = MountAlice(deployment);
  auto remover = MountAlice(deployment, long_cache);
  ASSERT_TRUE(writer && remover);
  ASSERT_TRUE(writer->WriteFile("/f", ToBytes("v1")).ok());
  ASSERT_TRUE(remover->Stat("/f").ok());  // caches the first version
  ASSERT_TRUE(writer->WriteFile("/f", ToBytes("v2, longer")).ok());
  ASSERT_TRUE(writer->SyncBarrier().ok());
  auto published = writer->metadata_service().Get("/f");
  ASSERT_TRUE(published.ok());
  const uint64_t reads = remover->metadata_service().coord_reads();
  ASSERT_TRUE(remover->Unlink("/f").ok());
  EXPECT_EQ(remover->metadata_service().coord_reads(), reads + 1);
  EXPECT_EQ(MountAlice(deployment)->Stat("/f").status().code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(remover->SyncBarrier().ok());
  auto tombstones = remover->metadata_service().ListTombstones();
  ASSERT_TRUE(tombstones.ok());
  EXPECT_EQ(std::count(tombstones->begin(), tombstones->end(),
                       published->object_id),
            1);
}

// The tombstone is written behind the unlink's ack; a sync barrier waits
// for it, and the garbage collector then reclaims every version.
void ExpectGcReclaimsUnlinkedVersions(Deployment* deployment) {
  ScfsOptions options;
  options.gc.enabled = false;
  auto fs = MountAlice(deployment, options);
  ASSERT_TRUE(fs);
  ASSERT_TRUE(fs->WriteFile("/g", ToBytes("first")).ok());
  ASSERT_TRUE(fs->WriteFile("/g", ToBytes("second")).ok());
  auto md = fs->metadata_service().Get("/g");
  ASSERT_TRUE(md.ok());
  ASSERT_TRUE(fs->Unlink("/g").ok());
  ASSERT_TRUE(fs->SyncBarrier().ok());
  auto tombstones = fs->metadata_service().ListTombstones();
  ASSERT_TRUE(tombstones.ok());
  EXPECT_EQ(std::count(tombstones->begin(), tombstones->end(), md->object_id),
            1);
  auto versions = fs->storage_service().backend().ListVersions(md->object_id);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 2u);
  ASSERT_TRUE(fs->RunGarbageCollection().ok());
  versions = fs->storage_service().backend().ListVersions(md->object_id);
  EXPECT_TRUE(!versions.ok() || versions->empty());
  tombstones = fs->metadata_service().ListTombstones();
  ASSERT_TRUE(tombstones.ok());
  EXPECT_EQ(std::count(tombstones->begin(), tombstones->end(), md->object_id),
            0);
}

TEST_P(ScfsTest, UnlinkIsBusyWhileAnotherAgentHoldsTheWriteLock) {
  ExpectUnlinkBusyWhileAnotherAgentWrites(deployment_.get());
}

TEST_P(ScfsTest, WriterWhoseLockExpiredCannotResurrectAnUnlinkedFile) {
  ExpectExpiredWriterCannotResurrect(deployment_.get(), env_.get());
}

TEST_P(ScfsTest, UnlinkFromAStaleCachedEntryRetriesOnConflict) {
  ExpectStaleUnlinkRetries(deployment_.get());
}

TEST_P(ScfsTest, SyncBarrierThenGcReclaimsAnUnlinkedFile) {
  ExpectGcReclaimsUnlinkedVersions(deployment_.get());
}

TEST_P(ScfsTest, WriterOpensTheVersionCurrentAtItsLock) {
  ExpectNoLostAppend(deployment_.get(), ScfsMode::kBlocking);
}

TEST_P(ScfsTest, NonBlockingWriterOpensTheVersionCurrentAtItsLock) {
  ExpectNoLostAppend(deployment_.get(), ScfsMode::kNonBlocking);
}

TEST_P(ScfsTest, FreshWriteLockReadsTheEntryInItsOwnRound) {
  auto writer = MountAgent("alice");
  ASSERT_TRUE(writer->WriteFile("/f", ToBytes("v1")).ok());
  auto other = MountAgent("alice");
  const uint64_t reads = other->metadata_service().coord_reads();
  auto fh = other->Open("/f", kOpenWrite);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  // The lock round carried the entry: no metadata read of its own.
  EXPECT_EQ(other->metadata_service().coord_reads(), reads);
  EXPECT_EQ(ToString(*other->Read(*fh, 0, 100)), "v1");
  ASSERT_TRUE(other->Close(*fh).ok());
}

// A blocking close releases the file lock in its publish's ordered slot, so
// a contender that opens for writing right after the close's ack finds the
// lock free — no kBusy — and opens the version that close published.
TEST_P(ScfsTest, ContenderLocksRightAfterBlockingCloseAck) {
  auto a = MountAgent("alice");
  auto b = MountAgent("alice");
  ASSERT_TRUE(a->WriteFile("/f", ToBytes("0")).ok());
  std::string expected = "0";
  int busy = 0;
  for (int i = 1; i <= 6; ++i) {
    ScfsFileSystem* writer = (i % 2 == 0 ? a : b).get();
    auto fh = writer->Open("/f", kOpenWrite);
    if (!fh.ok()) {
      busy += fh.status().code() == ErrorCode::kBusy;
      ADD_FAILURE() << "open " << i << ": " << fh.status().ToString();
      continue;
    }
    EXPECT_EQ(ToString(*writer->Read(*fh, 0, 100)), expected);
    const std::string record = std::to_string(i);
    ASSERT_TRUE(writer->Write(*fh, expected.size(), ToBytes(record)).ok());
    ASSERT_TRUE(writer->Close(*fh).ok());
    expected += record;
  }
  EXPECT_EQ(busy, 0);
  EXPECT_EQ(ToString(*MountAgent("alice")->ReadFile("/f")), expected);
}

INSTANTIATE_TEST_SUITE_P(Backends, ScfsTest,
                         ::testing::Values(ScfsBackendKind::kAws,
                                           ScfsBackendKind::kCoc),
                         [](const ::testing::TestParamInfo<ScfsBackendKind>& i) {
                           return i.param == ScfsBackendKind::kAws ? "Aws"
                                                                   : "CoC";
                         });

// A coordination service that holds back the first publish releasing a
// lock until a TryLock of that lock has run (or a real-time patience has
// passed), so a reopen can race the publish-and-release's slot.
class HeldFirstRelease : public CoordinationService {
 public:
  explicit HeldFirstRelease(CoordinationService* inner) : inner_(inner) {}

  Result<CoordReply> Submit(const CoordCommand& command) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (command.op == CoordOp::kCompareAndSwap && !command.aux.empty() &&
        !held_once_) {
      held_once_ = true;
      holding_ = true;
      cv_.notify_all();
      cv_.wait_for(lock, std::chrono::milliseconds(300),
                   [&] { return contender_ran_; });
      holding_ = false;
      lock.unlock();
      return inner_->Submit(command);
    }
    const bool contender = holding_ && command.op == CoordOp::kTryLock;
    lock.unlock();
    Result<CoordReply> reply = inner_->Submit(command);
    if (contender) {
      lock.lock();
      contender_ran_ = true;
      cv_.notify_all();
    }
    return reply;
  }

  // Waits (up to `patience` of real time) until a release is held back.
  bool AwaitHolding(std::chrono::milliseconds patience) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, patience, [&] { return held_once_; });
  }

 private:
  CoordinationService* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_once_ = false;
  bool holding_ = false;
  bool contender_ran_ = false;
};

// A non-blocking close acknowledges at the local disk, and its background
// publish then releases the lock. A reopen by the same agent while that
// publish is in flight must wait for it: the server takes the session's
// TryLock as re-entrant, so a lock-and-read ordered before the publish
// would open the version before the acknowledged close (and the publish's
// release would then free the reopened lock).
TEST(ScfsLockTest, ReopenDuringPublishAndReleaseOpensThePublishedVersion) {
  auto env = Environment::Instant();
  CloudProfile profile;
  SimulatedCloud cloud(profile, env.get(), 1);
  SingleCloudBackend backend(&cloud, {cloud.provider_name() + ":alice"});
  LocalCoordination coord(env.get(), LatencyModel::Fixed(0));
  HeldFirstRelease held(&coord);
  ScfsOptions options;
  options.user = "alice";
  options.mode = ScfsMode::kNonBlocking;
  options.user_cloud_ids = {cloud.provider_name() + ":alice"};
  ScfsFileSystem fs(env.get(), &held, &backend, options);
  ASSERT_TRUE(fs.Mount().ok());

  ASSERT_TRUE(fs.WriteFile("/f", ToBytes("A")).ok());  // acknowledged
  held.AwaitHolding(std::chrono::seconds(2));
  auto fh = fs.Open("/f", kOpenWrite);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  EXPECT_EQ(ToString(*fs.Read(*fh, 0, 100)), "A");
  ASSERT_TRUE(fs.Write(*fh, 1, ToBytes("B")).ok());
  ASSERT_TRUE(fs.Close(*fh).ok());
  ASSERT_TRUE(fs.SyncBarrier().ok());
  // The reopened lock was held until its own close released it.
  EXPECT_TRUE(coord.TryLock("alice@other", LockKey("/f"), kSecond).ok());
  auto entry = coord.Read("alice", MetadataKey("/f"));
  ASSERT_TRUE(entry.ok());
  auto md = FileMetadata::Decode(entry->value);
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->size, 2u);
  ASSERT_TRUE(fs.Unmount().ok());
}

// ---------------------------------------------------------------------------
// CoC-specific fault tolerance and consistency-anchor behaviour.
// ---------------------------------------------------------------------------

class ScfsCocTest : public ::testing::Test {
 protected:
  ScfsCocTest() : env_(Environment::Instant()) {
    DeploymentOptions options;
    options.backend = ScfsBackendKind::kCoc;
    options.zero_latency = true;
    deployment_ = Deployment::Create(env_.get(), options);
  }

  std::unique_ptr<ScfsFileSystem> MountAgent(ScfsOptions options = {}) {
    auto fs = deployment_->Mount("alice", options);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    return std::move(*fs);
  }

  // The entry of `path` as the coordination service holds it.
  FileMetadata Published(const std::string& path) {
    auto entry = deployment_->coord()->Read("alice", MetadataKey(path));
    EXPECT_TRUE(entry.ok()) << entry.status().ToString();
    auto md = FileMetadata::Decode(entry->value);
    EXPECT_TRUE(md.ok());
    return *md;
  }

  uint64_t CloudGets() {
    uint64_t gets = 0;
    for (unsigned i = 0; i < deployment_->cloud_count(); ++i) {
      deployment_->cloud(i)->Quiesce();
      gets += deployment_->cloud(i)->costs().GrandTotals().gets;
    }
    return gets;
  }

  // The DepSky client of the most recent mount.
  const DepSkyClient& LastClient() {
    return *deployment_->depsky_clients().back();
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Deployment> deployment_;
};

TEST_F(ScfsCocTest, OpenReadsTheAnchoredRecordWithoutDepSkyMetadata) {
  auto writer = MountAgent();
  Bytes data(5000, 4);
  ASSERT_TRUE(writer->WriteFile("/f", data).ok());
  const FileMetadata md = Published("/f");
  auto record = DepSkyVersion::Decode(md.locator);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->content_hash, md.content_hash);

  // Remove the file's DepSky metadata, once written behind the close, from
  // every cloud: no cloud can serve a GET of it any more, so a read that
  // needed one would fail.
  ASSERT_TRUE(writer->SyncBarrier().ok());
  for (unsigned i = 0; i < deployment_->cloud_count(); ++i) {
    SimulatedCloud* cloud = deployment_->cloud(i);
    cloud->Quiesce();
    ASSERT_TRUE(cloud
                    ->Delete({cloud->provider_name() + ":alice"},
                             DepSkyClient::MetadataKey(md.object_id))
                    .ok());
  }
  auto reader = MountAgent();
  const uint64_t gets_before = CloudGets();
  auto read = reader->ReadFile("/f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  // k = 2 shard GETs, no metadata round and no fallback.
  EXPECT_EQ(CloudGets() - gets_before, 2u);
  EXPECT_EQ(LastClient().anchored_read_fallbacks(), 0u);
}

// The hashes of every version the unit's metadata copy at `cloud` lists.
std::vector<std::string> ListedHashes(Deployment* deployment, unsigned cloud,
                                      const std::string& unit) {
  SimulatedCloud* store = deployment->cloud(cloud);
  store->Quiesce();
  auto raw = store->Get({store->provider_name() + ":alice"},
                        DepSkyClient::MetadataKey(unit));
  std::vector<std::string> hashes;
  if (!raw.ok()) {
    return hashes;
  }
  auto md = DepSkyMetadata::Decode(*raw, deployment->depsky_clients()
                                             .front()
                                             ->config()
                                             .auth_key);
  EXPECT_TRUE(md.ok()) << md.status().ToString();
  for (const auto& version : md->versions) {
    hashes.push_back(version.content_hash);
  }
  return hashes;
}

std::string HashOf(const std::string& text) {
  return HexEncode(Sha1::Hash(ToBytes(text)));
}

TEST_F(ScfsCocTest, CloseWhoseLockExpiredConflictsAndWritesNoMetadata) {
  auto late = MountAgent();
  auto other = MountAgent();
  ASSERT_TRUE(late->WriteFile("/f", ToBytes("base")).ok());
  auto fh = late->Open("/f", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(late->Write(*fh, 0, ToBytes("late")).ok());
  // The lock's 120 s lease runs out mid-write, and another agent takes the
  // lock and publishes.
  env_->Sleep(200 * kSecond);
  ASSERT_TRUE(other->WriteFile("/f", ToBytes("other")).ok());

  EXPECT_EQ(late->Close(*fh).code(), ErrorCode::kConflict);
  ASSERT_TRUE(late->SyncBarrier().ok());
  ASSERT_TRUE(other->SyncBarrier().ok());
  EXPECT_EQ(ToString(*MountAgent()->ReadFile("/f")), "other");
  // The late version's shards were stored, but its metadata never was.
  const std::string unit = Published("/f").object_id;
  for (unsigned cloud = 0; cloud < deployment_->cloud_count(); ++cloud) {
    std::vector<std::string> listed =
        ListedHashes(deployment_.get(), cloud, unit);
    EXPECT_EQ(std::count(listed.begin(), listed.end(), HashOf("late")), 0)
        << "cloud " << cloud;
  }
}

TEST_F(ScfsCocTest, HandoffListsBothVersionsOnAWriteQuorum) {
  auto first = MountAgent();
  auto second = MountAgent();
  ASSERT_TRUE(first->WriteFile("/f", ToBytes("one")).ok());
  // No barrier: the second writer may lock the file while the first's
  // metadata is still being written behind its close.
  ASSERT_TRUE(second->WriteFile("/f", ToBytes("two")).ok());
  ASSERT_TRUE(first->SyncBarrier().ok());
  ASSERT_TRUE(second->SyncBarrier().ok());
  const std::string unit = Published("/f").object_id;
  unsigned both = 0;
  for (unsigned cloud = 0; cloud < deployment_->cloud_count(); ++cloud) {
    std::vector<std::string> listed =
        ListedHashes(deployment_.get(), cloud, unit);
    both += std::count(listed.begin(), listed.end(), HashOf("one")) == 1 &&
            std::count(listed.begin(), listed.end(), HashOf("two")) == 1;
  }
  EXPECT_GE(both, 3u);
}

TEST_F(ScfsCocTest, TruncatingOpenPublishesAnEmptyLocator) {
  auto fs = MountAgent();
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("old content")).ok());
  ASSERT_FALSE(Published("/f").locator.empty());

  auto fh = fs->Open("/f", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs->Close(*fh).ok());
  const FileMetadata emptied = Published("/f");
  EXPECT_TRUE(emptied.content_hash.empty());
  EXPECT_TRUE(emptied.locator.empty());
  EXPECT_TRUE(MountAgent()->ReadFile("/f")->empty());

  // The next close publishes the new version's record with its hash.
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("new")).ok());
  const FileMetadata rewritten = Published("/f");
  auto record = DepSkyVersion::Decode(rewritten.locator);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->content_hash, rewritten.content_hash);
  EXPECT_EQ(ToString(*MountAgent()->ReadFile("/f")), "new");
}

TEST_F(ScfsCocTest, RenameKeepsTheLocator) {
  auto fs = MountAgent();
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->WriteFile("/d/f", ToBytes("moved")).ok());
  const Bytes locator = Published("/d/f").locator;
  ASSERT_FALSE(locator.empty());
  ASSERT_TRUE(fs->Rename("/d", "/e").ok());
  EXPECT_EQ(Published("/e/f").locator, locator);
  auto fresh = MountAgent();
  EXPECT_EQ(ToString(*fresh->ReadFile("/e/f")), "moved");
  EXPECT_EQ(LastClient().anchored_read_fallbacks(), 0u);
}

TEST_F(ScfsCocTest, PnsFilesReadBackAfterRemount) {
  for (ScfsMode mode : {ScfsMode::kBlocking, ScfsMode::kNonBlocking}) {
    SCOPED_TRACE(mode == ScfsMode::kBlocking ? "blocking" : "non-blocking");
    const std::string path =
        mode == ScfsMode::kBlocking ? "/blocking" : "/non-blocking";
    const Bytes data = ToBytes("private " + path);
    ScfsOptions options;
    options.mode = mode;
    options.use_pns = true;
    {
      auto fs = MountAgent(options);
      ASSERT_TRUE(fs->WriteFile(path, data).ok());
      ASSERT_TRUE(fs->Unmount().ok());
    }
    // Both the PNS object and the file inside it are anchored with their
    // records.
    auto tuple = deployment_->coord()->Read("alice", PnsTupleKey("alice"));
    ASSERT_TRUE(tuple.ok());
    auto anchor = DecodePnsAnchor(tuple->value);
    ASSERT_TRUE(anchor.ok());
    EXPECT_FALSE(anchor->locator.empty());

    auto fs = MountAgent(options);
    bool listed = false;
    for (const FileMetadata& md : fs->metadata_service().PnsEntries()) {
      if (md.path == path) {
        listed = true;
        EXPECT_FALSE(md.locator.empty());
      }
    }
    EXPECT_TRUE(listed);
    auto read = fs->ReadFile(path);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, data);
    EXPECT_EQ(LastClient().anchored_read_fallbacks(), 0u);
    ASSERT_TRUE(fs->Unmount().ok());
  }
}

TEST_F(ScfsCocTest, SurvivesSingleCloudOutage) {
  ScfsOptions options;
  auto fs = deployment_->Mount("alice", options);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE((*fs)->WriteFile("/f", ToBytes("before outage")).ok());

  deployment_->cloud(0)->faults().SetUnavailable(true);
  // Reads and writes continue.
  EXPECT_EQ(ToString(*(*fs)->ReadFile("/f")), "before outage");
  ASSERT_TRUE((*fs)->WriteFile("/g", ToBytes("during outage")).ok());
  deployment_->cloud(0)->faults().SetUnavailable(false);

  // Fresh agent (empty caches) can read everything.
  auto fresh = deployment_->Mount("alice", ScfsOptions{});
  ASSERT_TRUE(fresh.ok());
  env_->Sleep(kSecond);
  EXPECT_EQ(ToString(*(*fresh)->ReadFile("/g")), "during outage");
}

TEST_F(ScfsCocTest, SurvivesCloudCorruption) {
  auto fs = deployment_->Mount("alice", ScfsOptions{});
  ASSERT_TRUE(fs.ok());
  Bytes data(20000, 9);
  ASSERT_TRUE((*fs)->WriteFile("/f", data).ok());
  deployment_->cloud(1)->faults().SetCorruptAllReads(true);
  // A cache-cold agent must detect the bad shard and recover elsewhere.
  auto fresh = deployment_->Mount("alice", ScfsOptions{});
  ASSERT_TRUE(fresh.ok());
  env_->Sleep(kSecond);
  auto read = (*fresh)->ReadFile("/f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  deployment_->cloud(1)->faults().SetCorruptAllReads(false);
}

TEST_F(ScfsCocTest, AnchoredStorageAlgorithm) {
  // The decoupled Figure 3 algorithm over the real substrates.
  SingleCloudBackend backend(deployment_->cloud(0),
                             CloudCredentials{"amazon-s3:alice"});
  AnchorOptions anchor_options;
  anchor_options.retry_delay = 10 * kMillisecond;
  AnchoredStorage anchored(env_.get(), deployment_->coord(), "alice",
                           &backend, anchor_options);
  Bytes v1 = ToBytes("anchored v1");
  ASSERT_TRUE(anchored.Write("obj", v1).ok());
  EXPECT_EQ(*anchored.Read("obj"), v1);
  Bytes v2 = ToBytes("anchored v2");
  ASSERT_TRUE(anchored.Write("obj", v2).ok());
  EXPECT_EQ(*anchored.Read("obj"), v2);
}

TEST_F(ScfsCocTest, AnchoredStorageAsyncPipeline) {
  // The async variants preserve the anchored order (SS write before CA
  // publish, CA read before SS fetch) while letting callers overlap whole
  // anchored operations: fan out writes to distinct ids, then read them all
  // back through futures.
  SingleCloudBackend backend(deployment_->cloud(0),
                             CloudCredentials{"amazon-s3:alice"});
  AnchorOptions anchor_options;
  anchor_options.retry_delay = 10 * kMillisecond;
  AnchoredStorage anchored(env_.get(), deployment_->coord(), "alice",
                           &backend, anchor_options);
  constexpr int kObjects = 6;
  std::vector<Future<Status>> writes;
  for (int i = 0; i < kObjects; ++i) {
    Bytes value = ToBytes("async v" + std::to_string(i));
    writes.push_back(anchored.WriteAsync("obj" + std::to_string(i), value));
  }
  for (auto& write : writes) {
    EXPECT_TRUE(write.Get().ok());
  }
  std::vector<Future<Result<Bytes>>> reads;
  for (int i = 0; i < kObjects; ++i) {
    reads.push_back(anchored.ReadAsync("obj" + std::to_string(i)));
  }
  for (int i = 0; i < kObjects; ++i) {
    Result<Bytes> value = reads[i].Get();
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(ToString(*value), "async v" + std::to_string(i));
  }
}

TEST_F(ScfsCocTest, AnchoredReadLoopsUntilVisible) {
  // Non-zero consistency window: the anchor hash is immediately current, but
  // the data appears only later; Read must spin, not return stale data.
  CloudProfile profile;
  profile.name = "windowed";
  profile.consistency_window_base = 200 * kMillisecond;
  SimulatedCloud cloud(profile, env_.get(), 77);
  SingleCloudBackend backend(&cloud, CloudCredentials{"u"});
  LocalCoordination coord(env_.get(), LatencyModel::None());
  AnchorOptions anchor_options;
  anchor_options.retry_delay = 20 * kMillisecond;
  AnchoredStorage anchored(env_.get(), &coord, "u", &backend, anchor_options);

  // Note: version objects are keyed id|hash => new keys, which the simulated
  // S3 treats as immediately visible. To exercise the loop we need an
  // overwrite: write the same content id|hash twice with different bytes is
  // impossible by construction, so instead verify the PNS-style ReadLatest
  // lag at the cloud level and the anchored read's immunity to it.
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  ASSERT_TRUE(anchored.Write("obj", v1).ok());
  env_->Sleep(kSecond);
  ASSERT_TRUE(anchored.Write("obj", v2).ok());
  EXPECT_EQ(*anchored.Read("obj"), v2);  // anchor always current
}

TEST(ScfsPartitionedTest, CocDeploymentWithPartitionedCoordination) {
  // End-to-end over the sharded coordination plane: the full CoC deployment
  // (real link latencies, DepSky storage) with the coordination keys hashed
  // over 4 SMR partitions. Metadata, locking, sharing and rename must
  // behave exactly as with one cluster — only the plumbing is sharded.
  auto env = Environment::Scaled(1e-3);
  DeploymentOptions options;
  options.backend = ScfsBackendKind::kCoc;
  options.coord_partitions = 4;
  auto deployment = Deployment::Create(env.get(), options);
  ASSERT_NE(deployment->partitioned_coord(), nullptr);
  EXPECT_EQ(deployment->coord()->partition_count(), 4u);

  auto fs = deployment->Mount("alice", ScfsOptions{});
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  ASSERT_TRUE((*fs)->Mkdir("/docs").ok());
  ASSERT_TRUE((*fs)->WriteFile("/docs/a.txt", ToBytes("alpha")).ok());
  ASSERT_TRUE((*fs)->WriteFile("/docs/b.txt", ToBytes("beta")).ok());
  EXPECT_EQ(ToString(*(*fs)->ReadFile("/docs/a.txt")), "alpha");
  // Directory listing is a scatter-gather prefix read across partitions.
  auto listed = (*fs)->ReadDir("/docs");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
  // Rename rides the cross-partition intent-record protocol.
  ASSERT_TRUE((*fs)->Rename("/docs", "/papers").ok());
  EXPECT_EQ(ToString(*(*fs)->ReadFile("/papers/b.txt")), "beta");
  EXPECT_FALSE((*fs)->ReadFile("/docs/b.txt").ok());
}

TEST(ScfsPartitionedTest, WriterOpensTheVersionCurrentAtItsLock) {
  auto env = Environment::Scaled(1e-3);
  DeploymentOptions options;
  options.backend = ScfsBackendKind::kCoc;
  options.coord_partitions = 4;
  auto deployment = Deployment::Create(env.get(), options);
  // The lock and the entry it reads share a partition.
  EXPECT_EQ(deployment->coord()->PartitionOf(LockKey("/f")),
            deployment->coord()->PartitionOf(MetadataKey("/f")));
  ExpectNoLostAppend(deployment.get(), ScfsMode::kBlocking);
}

// Ordered commands and fast reads the coordination plane has executed.
SmrCounters CoordCounters(Deployment* deployment) {
  return deployment->partitioned_coord() != nullptr
             ? deployment->partitioned_coord()->counters()
             : deployment->replicated_coord()->cluster().counters();
}

// An unlink is one ordered command: the guarded remove. A cold agent reads
// the entry first (a fast read); an agent that knows the entry's version
// from its own publish does not. A file with content adds its tombstone,
// written behind the ack.
void ExpectOneOrderedCommandPerUnlink(Deployment* deployment) {
  ScfsOptions long_cache;
  long_cache.metadata_cache_ttl = 600 * kSecond;
  auto writer = MountAlice(deployment, long_cache);
  auto remover = MountAlice(deployment);
  ASSERT_TRUE(writer && remover);
  ASSERT_TRUE(writer->WriteFile("/empty", {}).ok());
  ASSERT_TRUE(writer->WriteFile("/f", ToBytes("data")).ok());
  ASSERT_TRUE(writer->SyncBarrier().ok());

  SmrCounters before = CoordCounters(deployment);
  ASSERT_TRUE(remover->Unlink("/empty").ok());
  SmrCounters delta = CoordCounters(deployment);
  delta -= before;
  // A fast read that fell back to ordering counts as both.
  EXPECT_EQ(delta.ordered_commands - delta.fast_path_fallbacks, 1u);
  EXPECT_EQ(delta.fast_path_reads + delta.fast_path_fallbacks, 1u);

  before = CoordCounters(deployment);
  ASSERT_TRUE(writer->Unlink("/f").ok());
  ASSERT_TRUE(writer->SyncBarrier().ok());
  delta = CoordCounters(deployment);
  delta -= before;
  EXPECT_EQ(delta.ordered_commands, 2u);  // the remove and the tombstone
  EXPECT_EQ(delta.fast_path_reads + delta.fast_path_fallbacks, 0u);
}

// A blocking close publishes its entry and releases the file lock in one
// ordered command: a create is the lock round, the create's placeholder
// publish (Figure 4 creates the entry at open) and the close's publish; an
// append is the lock round and the publish. No unlock round, no fast read
// (the root needs no parent lookup).
void ExpectBlockingCloseIsLockThenOnePublishRound(Deployment* deployment) {
  auto fs = MountAlice(deployment);
  auto contender = MountAlice(deployment);
  ASSERT_TRUE(fs && contender);
  SmrCounters before = CoordCounters(deployment);
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("created")).ok());
  SmrCounters delta = CoordCounters(deployment);
  delta -= before;
  EXPECT_EQ(delta.ordered_commands, 3u);
  EXPECT_EQ(delta.fast_path_reads + delta.fast_path_fallbacks, 0u);

  before = CoordCounters(deployment);
  auto fh = fs->Open("/f", kOpenWrite);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  ASSERT_TRUE(fs->Write(*fh, 7, ToBytes("+")).ok());
  ASSERT_TRUE(fs->Close(*fh).ok());
  delta = CoordCounters(deployment);
  delta -= before;
  EXPECT_EQ(delta.ordered_commands, 2u);
  EXPECT_EQ(delta.fast_path_reads + delta.fast_path_fallbacks, 0u);

  // The lock is free the moment the close acks.
  auto taken = contender->Open("/f", kOpenWrite);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(ToString(*contender->Read(*taken, 0, 100)), "created+");
  ASSERT_TRUE(contender->Close(*taken).ok());
}

// A CoC deployment whose coordination is replicated (one partition) or
// partitioned, in scaled time. One virtual second is 10 real ms: ten times
// the margin of the 1e-3 scale above against scheduling delays on a loaded
// host, which virtual-time deadlines would otherwise count.
struct ScaledCoc {
  explicit ScaledCoc(unsigned partitions) : env(Environment::Scaled(1e-2)) {
    DeploymentOptions options;
    options.backend = ScfsBackendKind::kCoc;
    options.coord_partitions = partitions;
    deployment = Deployment::Create(env.get(), options);
  }

  std::unique_ptr<Environment> env;
  std::unique_ptr<Deployment> deployment;
};

TEST(ScfsReplicatedTest, UnlinkIsOneOrderedCommand) {
  ScaledCoc coc(1);
  ASSERT_NE(coc.deployment->replicated_coord(), nullptr);
  ExpectOneOrderedCommandPerUnlink(coc.deployment.get());
}

TEST(ScfsPartitionedTest, UnlinkIsOneOrderedCommand) {
  ScaledCoc coc(4);
  // The guarded remove reads the lock on the entry's partition.
  EXPECT_EQ(coc.deployment->coord()->PartitionOf(LockKey("/f")),
            coc.deployment->coord()->PartitionOf(MetadataKey("/f")));
  ExpectOneOrderedCommandPerUnlink(coc.deployment.get());
}

TEST(ScfsPartitionedTest, UnlinkIsBusyWhileAnotherAgentHoldsTheWriteLock) {
  ScaledCoc coc(4);
  ExpectUnlinkBusyWhileAnotherAgentWrites(coc.deployment.get());
}

TEST(ScfsPartitionedTest, WriterWhoseLockExpiredCannotResurrectAnUnlinkedFile) {
  ScaledCoc coc(4);
  ExpectExpiredWriterCannotResurrect(coc.deployment.get(), coc.env.get());
}

TEST(ScfsPartitionedTest, UnlinkFromAStaleCachedEntryRetriesOnConflict) {
  ScaledCoc coc(4);
  ExpectStaleUnlinkRetries(coc.deployment.get());
}

TEST(ScfsPartitionedTest, SyncBarrierThenGcReclaimsAnUnlinkedFile) {
  ScaledCoc coc(4);
  ExpectGcReclaimsUnlinkedVersions(coc.deployment.get());
}

TEST(ScfsReplicatedTest, BlockingCloseIsLockThenOnePublishRound) {
  ScaledCoc coc(1);
  ASSERT_NE(coc.deployment->replicated_coord(), nullptr);
  ExpectBlockingCloseIsLockThenOnePublishRound(coc.deployment.get());
}

TEST(ScfsPartitionedTest, BlockingCloseIsLockThenOnePublishRound) {
  ScaledCoc coc(4);
  ExpectBlockingCloseIsLockThenOnePublishRound(coc.deployment.get());
}

}  // namespace
}  // namespace scfs
