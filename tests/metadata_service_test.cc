// Unit tests for the SCFS metadata service: serialization, the short-term
// cache (hits, expiration, invalidation), private name spaces (mount, flush,
// promotion/demotion, the second-session lock) and tombstones.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/cloud/simulated_cloud.h"
#include "src/coord/local_coordination.h"
#include "src/coord/partitioned_coordination.h"
#include "src/scfs/metadata_service.h"

namespace scfs {
namespace {

FileMetadata SampleMetadata(const std::string& path) {
  FileMetadata md;
  md.path = path;
  md.type = FileType::kFile;
  md.size = 123;
  md.mtime = 456;
  md.ctime = 789;
  md.owner = "alice";
  md.object_id = "alice-xyz";
  md.content_hash = "abcd";
  md.version = 7;
  md.acl["bob"] = 1;
  md.acl["carol"] = 3;
  return md;
}

TEST(FileMetadataTest, EncodeDecodeRoundTrip) {
  FileMetadata md = SampleMetadata("/a/b");
  auto decoded = FileMetadata::Decode(md.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->path, "/a/b");
  EXPECT_EQ(decoded->size, 123u);
  EXPECT_EQ(decoded->owner, "alice");
  EXPECT_EQ(decoded->object_id, "alice-xyz");
  EXPECT_EQ(decoded->content_hash, "abcd");
  EXPECT_EQ(decoded->version, 7u);
  ASSERT_EQ(decoded->acl.size(), 2u);
  EXPECT_EQ(decoded->acl.at("carol"), 3);
}

TEST(FileMetadataTest, DecodeRejectsTruncation) {
  FileMetadata md = SampleMetadata("/a");
  Bytes encoded = md.Encode();
  encoded.resize(encoded.size() / 2);
  EXPECT_FALSE(FileMetadata::Decode(encoded).ok());
}

TEST(FileMetadataTest, AclSemantics) {
  FileMetadata md = SampleMetadata("/a");
  EXPECT_TRUE(md.AllowsRead("alice"));   // owner
  EXPECT_TRUE(md.AllowsWrite("alice"));
  EXPECT_TRUE(md.AllowsRead("bob"));     // read-only grant
  EXPECT_FALSE(md.AllowsWrite("bob"));
  EXPECT_TRUE(md.AllowsWrite("carol"));  // rw grant
  EXPECT_FALSE(md.AllowsRead("eve"));
  EXPECT_TRUE(md.IsShared());
}

TEST(PrivateNameSpaceTest, EncodeDecodeRoundTrip) {
  PrivateNameSpace pns;
  pns.entries["/a"] = SampleMetadata("/a");
  pns.entries["/b/c"] = SampleMetadata("/b/c");
  pns.tombstones = {"obj-1", "obj-2"};
  auto decoded = PrivateNameSpace::Decode(pns.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries.at("/b/c").size, 123u);
  ASSERT_EQ(decoded->tombstones.size(), 2u);
  EXPECT_EQ(decoded->tombstones[1], "obj-2");
}

class MetadataServiceTest : public ::testing::Test {
 protected:
  MetadataServiceTest()
      : env_(Environment::Instant()),
        cloud_(CloudProfile{}, env_.get(), 1),
        backend_(&cloud_, CloudCredentials{"u"}),
        coord_(env_.get(), LatencyModel::None()) {
    StorageServiceOptions storage_options;
    storage_ = std::make_unique<StorageService>(env_.get(), &backend_,
                                                storage_options);
  }

  MetadataService MakeService(MetadataServiceOptions options,
                              const std::string& user = "alice") {
    return MetadataService(env_.get(),
                           options.non_sharing ? nullptr : &coord_,
                           storage_.get(), user, options);
  }

  std::unique_ptr<Environment> env_;
  SimulatedCloud cloud_;
  SingleCloudBackend backend_;
  LocalCoordination coord_;
  std::unique_ptr<StorageService> storage_;
};

TEST_F(MetadataServiceTest, PutGetThroughCoordination) {
  auto service = MakeService({});
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/f")).ok());
  auto got = service.Get("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->object_id, "alice-xyz");
  // It is really in the coordination service.
  EXPECT_TRUE(coord_.Read("alice", MetadataKey("/f")).ok());
}

TEST_F(MetadataServiceTest, CacheHitsWithinTtlThenExpires) {
  MetadataServiceOptions options;
  options.cache_ttl = 100 * kMillisecond;
  auto service = MakeService(options);
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/f")).ok());

  uint64_t reads0 = service.coord_reads();
  ASSERT_TRUE(service.Get("/f").ok());  // cache hit (cached by Put)
  EXPECT_EQ(service.coord_reads(), reads0);
  EXPECT_GE(service.cache_hits(), 1u);

  env_->Sleep(200 * kMillisecond);  // past the TTL
  ASSERT_TRUE(service.Get("/f").ok());
  EXPECT_EQ(service.coord_reads(), reads0 + 1);  // had to go to coord
}

TEST_F(MetadataServiceTest, ZeroTtlAlwaysReadsCoordination) {
  MetadataServiceOptions options;
  options.cache_ttl = 0;
  auto service = MakeService(options);
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/f")).ok());
  uint64_t reads0 = service.coord_reads();
  env_->Sleep(1);
  ASSERT_TRUE(service.Get("/f").ok());
  env_->Sleep(1);
  ASSERT_TRUE(service.Get("/f").ok());
  EXPECT_EQ(service.coord_reads(), reads0 + 2);
}

// A read that finds no entry is a coordination round like any other.
TEST_F(MetadataServiceTest, MissingPathCountsOneCoordinationRead) {
  auto service = MakeService({});
  ASSERT_TRUE(service.Mount().ok());
  const uint64_t reads0 = service.coord_reads();
  EXPECT_EQ(service.Get("/missing").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(service.coord_reads(), reads0 + 1);
}

// Copies read from the coordination service carry their entry version; a
// remove guarded by an older one conflicts and drops the stale copy.
TEST_F(MetadataServiceTest, RemoveSharedIsGuardedByTheEntryVersion) {
  MetadataServiceOptions options;
  options.session = "alice@s1";
  auto service = MakeService(options);
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/f")).ok());
  service.InvalidateCache("/f");
  auto first = service.Get("/f");
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->entry_version, 0u);
  ASSERT_TRUE(coord_.Write("alice", MetadataKey("/f"),
                           SampleMetadata("/f").Encode())
                  .ok());
  EXPECT_EQ(service.RemoveShared("/f", first->entry_version).status().code(),
            ErrorCode::kConflict);
  auto current = service.Get("/f");  // the stale copy is gone: a fresh read
  ASSERT_TRUE(current.ok());
  EXPECT_GT(current->entry_version, first->entry_version);
  // Another session's lock on the file refuses the remove.
  auto lock = coord_.TryLock("alice@s2", LockKey("/f"), 10 * kSecond);
  ASSERT_TRUE(lock.ok());
  EXPECT_EQ(service.RemoveShared("/f", current->entry_version).status().code(),
            ErrorCode::kBusy);
  ASSERT_TRUE(coord_.Unlock("alice@s2", LockKey("/f"), lock->token).ok());
  auto removed = service.RemoveShared("/f", current->entry_version);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->object_id, "alice-xyz");
  EXPECT_EQ(removed->entry_version, current->entry_version);
  EXPECT_EQ(service.Get("/f").status().code(), ErrorCode::kNotFound);
}

TEST_F(MetadataServiceTest, LocalOverrideSurvivesTtlUntilPublished) {
  MetadataServiceOptions options;
  options.cache_ttl = kMillisecond;
  auto service = MakeService(options);
  ASSERT_TRUE(service.Mount().ok());
  FileMetadata stale = SampleMetadata("/f");
  stale.version = 1;
  ASSERT_TRUE(service.Put(stale).ok());

  FileMetadata fresh = stale;
  fresh.version = 2;
  fresh.content_hash = "ffff";
  service.CacheLocally(fresh);  // pending close, not yet in coord
  env_->Sleep(10 * kSecond);    // far past the TTL

  auto got = service.Get("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->version, 2u);  // the override, not coord's stale copy

  // After the (background) Put publishes it, the override is dropped and
  // coord agrees.
  ASSERT_TRUE(service.Put(fresh).ok());
  env_->Sleep(10 * kSecond);
  got = service.Get("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->version, 2u);
}

TEST_F(MetadataServiceTest, PnsMountFlushRemount) {
  MetadataServiceOptions options;
  options.use_pns = true;
  {
    auto service = MakeService(options);
    ASSERT_TRUE(service.Mount().ok());
    ASSERT_TRUE(service.Create(SampleMetadata("/private")).ok());
    ASSERT_TRUE(service.Unmount().ok());  // flushes the PNS object
  }
  // No per-file tuple was created; only the PNS tuple exists.
  EXPECT_FALSE(coord_.Read("alice", MetadataKey("/private")).ok());
  EXPECT_TRUE(coord_.Read("alice", PnsTupleKey("alice")).ok());

  auto service = MakeService(options);
  ASSERT_TRUE(service.Mount().ok());
  auto got = service.Get("/private");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->object_id, "alice-xyz");
  ASSERT_TRUE(service.Unmount().ok());
}

TEST_F(MetadataServiceTest, PnsSecondSessionIsLockedOut) {
  MetadataServiceOptions options;
  options.use_pns = true;
  options.session = "alice@laptop";
  auto first = MakeService(options);
  ASSERT_TRUE(first.Mount().ok());

  MetadataServiceOptions second_options = options;
  second_options.session = "alice@desktop";
  auto second = MakeService(second_options);
  EXPECT_EQ(second.Mount().code(), ErrorCode::kBusy);

  ASSERT_TRUE(first.Unmount().ok());
  auto third = MakeService(second_options);
  EXPECT_TRUE(third.Mount().ok());
  ASSERT_TRUE(third.Unmount().ok());
}

TEST_F(MetadataServiceTest, PromoteAndDemote) {
  MetadataServiceOptions options;
  options.use_pns = true;
  auto service = MakeService(options);
  ASSERT_TRUE(service.Mount().ok());
  FileMetadata md = SampleMetadata("/doc");
  md.acl.clear();
  ASSERT_TRUE(service.Create(md).ok());
  EXPECT_FALSE(coord_.Read("alice", MetadataKey("/doc")).ok());

  md.acl["bob"] = 1;
  ASSERT_TRUE(service.PromoteToShared(md).ok());
  EXPECT_TRUE(coord_.Read("alice", MetadataKey("/doc")).ok());
  EXPECT_TRUE(service.Get("/doc").ok());

  md.acl.clear();
  ASSERT_TRUE(service.DemoteToPrivate(md).ok());
  EXPECT_FALSE(coord_.Read("alice", MetadataKey("/doc")).ok());
  EXPECT_TRUE(service.Get("/doc").ok());
  ASSERT_TRUE(service.Unmount().ok());
}

TEST_F(MetadataServiceTest, TombstonesRoundTrip) {
  auto service = MakeService({});
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.AddTombstone("obj-1").ok());
  ASSERT_TRUE(service.AddTombstone("obj-2").ok());
  auto listed = service.ListTombstones();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);
  ASSERT_TRUE(service.RemoveTombstone("obj-1").ok());
  listed = service.ListTombstones();
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0], "obj-2");
}

TEST_F(MetadataServiceTest, RenameSubtreeMovesEverything) {
  auto service = MakeService({});
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/d")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/d/f1")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/d/sub/f2")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/dx")).ok());  // prefix sibling

  ASSERT_TRUE(service.RenameSubtree("/d", "/e").ok());
  service.InvalidateCache("/d");
  service.InvalidateCache("/dx");
  EXPECT_TRUE(service.Get("/e/f1").ok());
  EXPECT_TRUE(service.Get("/e/sub/f2").ok());
  EXPECT_FALSE(service.Get("/d/f1").ok());
  // The sibling with a common name prefix must be untouched.
  EXPECT_TRUE(service.Get("/dx").ok());
}

// ---------------------------------------------------------------------------
// Cross-partition rename over the partitioned coordination plane: the
// intent-record protocol, its crash-recovery replay, and leader failure in
// the middle of a move.
// ---------------------------------------------------------------------------

class PartitionedRenameTest : public ::testing::Test {
 protected:
  static PartitionedCoordinationConfig PartitionConfig() {
    PartitionedCoordinationConfig config;
    config.partitions = 4;
    config.smr.f = 1;
    config.smr.byzantine = true;
    config.smr.client_link = LatencyModel::Fixed(2 * kMillisecond);
    config.smr.replica_link = LatencyModel::Fixed(kMillisecond);
    config.smr.client_timeout = 2000 * kMillisecond;
    config.smr.order_timeout = 600 * kMillisecond;
    return config;
  }

  PartitionedRenameTest()
      : env_(Environment::Scaled(1e-3)),
        cloud_(CloudProfile{}, env_.get(), 1),
        backend_(&cloud_, CloudCredentials{"u"}),
        coord_(env_.get(), PartitionConfig(), 11) {
    storage_ = std::make_unique<StorageService>(env_.get(), &backend_,
                                                StorageServiceOptions{});
  }

  MetadataService MakeService(const std::string& user = "alice") {
    return MetadataService(env_.get(), &coord_, storage_.get(), user, {});
  }

  // No intent or commit record may survive a completed (or replayed) move.
  void ExpectNoRenameRecords() {
    auto intents = coord_.ReadPrefix("alice", kRenameIntentPrefix);
    ASSERT_TRUE(intents.ok());
    EXPECT_TRUE(intents->empty());
    auto commits = coord_.ReadPrefix("alice", kRenameCommitPrefix);
    ASSERT_TRUE(commits.ok());
    EXPECT_TRUE(commits->empty());
  }

  std::unique_ptr<Environment> env_;
  SimulatedCloud cloud_;
  SingleCloudBackend backend_;
  PartitionedCoordination coord_;
  std::unique_ptr<StorageService> storage_;
};

TEST_F(PartitionedRenameTest, CrossPartitionRenameMovesSubtreeExactlyOnce) {
  auto service = MakeService();
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/d")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/d/f1")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/d/sub/f2")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/dx")).ok());  // prefix sibling
  ASSERT_TRUE(
      service.GrantEntry("/d/f1", "bob", /*read=*/true, /*write=*/false)
          .ok());
  // The subtree's tuples really span more than one partition, so this
  // exercises the intent-record path, not a lucky co-location.
  std::set<unsigned> partitions;
  for (const char* path : {"/d", "/d/f1", "/d/sub/f2"}) {
    partitions.insert(coord_.PartitionOf(MetadataKey(path)));
  }
  EXPECT_GT(partitions.size(), 1u);

  ASSERT_TRUE(service.RenameSubtree("/d", "/e").ok());
  EXPECT_TRUE(service.Get("/e/f1").ok());
  EXPECT_TRUE(service.Get("/e/sub/f2").ok());
  EXPECT_FALSE(service.Get("/d/f1").ok());
  EXPECT_TRUE(service.Get("/dx").ok());
  // Tuple-level: the move bumped each version exactly once (1 -> 2, the
  // same contract as the single-partition rename trigger) and preserved
  // the ACL — bob's read grant survives the partition hop.
  auto moved = coord_.Read("alice", MetadataKey("/e/f1"));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->version, 2u);
  EXPECT_TRUE(coord_.Read("bob", MetadataKey("/e/f1")).ok());
  EXPECT_EQ(coord_.Read("eve", MetadataKey("/e/f1")).status().code(),
            ErrorCode::kPermissionDenied);
  ExpectNoRenameRecords();
}

TEST_F(PartitionedRenameTest, MountReplaysIntentAfterClientCrash) {
  // A client that crashed right after the prepare record: nothing moved
  // yet. Mounting a fresh session must finish the rename from the record.
  {
    auto service = MakeService();
    ASSERT_TRUE(service.Mount().ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/a")).ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/a/f")).ok());
    ASSERT_TRUE(coord_
                    .ConditionalCreate("alice", RenameIntentKey("/a"),
                                       EncodeRenameIntent("/a", "/b"))
                    .ok());
  }
  auto service = MakeService();
  ASSERT_TRUE(service.Mount().ok());
  EXPECT_TRUE(service.Get("/b/f").ok());
  EXPECT_FALSE(service.Get("/a/f").ok());
  auto moved = coord_.Read("alice", MetadataKey("/b/f"));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->version, 2u);
  ExpectNoRenameRecords();
}

TEST_F(PartitionedRenameTest, MountReplaysCrashMidImportWithoutDuplicates) {
  // Crash mid-import: the intent exists and one entry was already imported
  // at the destination. Replay re-imports everything — idempotently, so
  // the half-imported entry keeps its exactly-once version — and finishes.
  {
    auto service = MakeService();
    ASSERT_TRUE(service.Mount().ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/c")).ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/c/f1")).ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/c/f2")).ok());
    ASSERT_TRUE(coord_
                    .ConditionalCreate("alice", RenameIntentKey("/c"),
                                       EncodeRenameIntent("/c", "/cd"))
                    .ok());
    auto exported = coord_.ExportPrefix("alice", MetadataKey("/c"));
    ASSERT_TRUE(exported.ok());
    ASSERT_FALSE(exported->empty());
    const auto& first = exported->front();
    std::string new_key =
        MetadataKey("/cd") + first.key.substr(MetadataKey("/c").size());
    ASSERT_TRUE(coord_.ImportEntry("alice", new_key, first.value).ok());
  }
  auto service = MakeService();
  ASSERT_TRUE(service.Mount().ok());
  for (const char* path : {"/cd", "/cd/f1", "/cd/f2"}) {
    auto entry = coord_.Read("alice", MetadataKey(path));
    ASSERT_TRUE(entry.ok()) << path;
    EXPECT_EQ(entry->version, 2u) << path;  // imported exactly once
  }
  auto leftovers = coord_.ReadPrefix("alice", MetadataKey("/c"));
  ASSERT_TRUE(leftovers.ok());
  EXPECT_TRUE(leftovers->empty());
  ExpectNoRenameRecords();
}

TEST_F(PartitionedRenameTest, MountReplaysCrashAfterCommitMidDeletes) {
  // Crash after the commit marker with one source key already deleted:
  // replay must only finish the deletes (the marker proves the imports
  // completed) and retire both records.
  {
    auto service = MakeService();
    ASSERT_TRUE(service.Mount().ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/g")).ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/g/f1")).ok());
    ASSERT_TRUE(service.Put(SampleMetadata("/g/f2")).ok());
    ASSERT_TRUE(coord_
                    .ConditionalCreate("alice", RenameIntentKey("/g"),
                                       EncodeRenameIntent("/g", "/h"))
                    .ok());
    auto exported = coord_.ExportPrefix("alice", MetadataKey("/g"));
    ASSERT_TRUE(exported.ok());
    ASSERT_EQ(exported->size(), 3u);
    for (const auto& entry : *exported) {
      std::string new_key =
          MetadataKey("/h") + entry.key.substr(MetadataKey("/g").size());
      ASSERT_TRUE(coord_.ImportEntry("alice", new_key, entry.value).ok());
    }
    ASSERT_TRUE(coord_
                    .ConditionalCreate("alice", RenameCommitKey("/h"),
                                       EncodeRenameIntent("/g", "/h"))
                    .ok());
    ASSERT_TRUE(coord_.Remove("alice", exported->front().key).ok());
  }
  auto service = MakeService();
  ASSERT_TRUE(service.Mount().ok());
  for (const char* path : {"/h", "/h/f1", "/h/f2"}) {
    auto entry = coord_.Read("alice", MetadataKey(path));
    ASSERT_TRUE(entry.ok()) << path;
    EXPECT_EQ(entry->version, 2u) << path;
  }
  auto leftovers = coord_.ReadPrefix("alice", MetadataKey("/g"));
  ASSERT_TRUE(leftovers.ok());
  EXPECT_TRUE(leftovers->empty());
  ExpectNoRenameRecords();
}

TEST_F(PartitionedRenameTest, ForeignCommitMarkerDoesNotSkipImports) {
  auto service = MakeService();
  ASSERT_TRUE(service.Mount().ok());
  // A crashed rename (/old -> /dst) that imported everything and wrote its
  // commit marker, but never ran its deletes or retired its records:
  ASSERT_TRUE(service.Put(SampleMetadata("/old")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/old/f")).ok());
  ASSERT_TRUE(coord_
                  .ConditionalCreate("alice", RenameIntentKey("/old"),
                                     EncodeRenameIntent("/old", "/dst"))
                  .ok());
  auto exported = coord_.ExportPrefix("alice", MetadataKey("/old"));
  ASSERT_TRUE(exported.ok());
  for (const auto& entry : *exported) {
    std::string new_key =
        MetadataKey("/dst") + entry.key.substr(MetadataKey("/old").size());
    ASSERT_TRUE(coord_.ImportEntry("alice", new_key, entry.value).ok());
  }
  ASSERT_TRUE(coord_
                  .ConditionalCreate("alice", RenameCommitKey("/dst"),
                                     EncodeRenameIntent("/old", "/dst"))
                  .ok());
  // A live rename of a DIFFERENT source into the same destination must not
  // mistake that marker for its own commit: /src's entries have to be
  // imported, not silently deleted as "already committed".
  ASSERT_TRUE(service.Put(SampleMetadata("/src")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/src/g")).ok());
  ASSERT_TRUE(service.RenameSubtree("/src", "/dst").ok());
  for (const char* path : {"/dst/f", "/dst/g"}) {
    auto entry = coord_.Read("alice", MetadataKey(path));
    ASSERT_TRUE(entry.ok()) << path;
    EXPECT_EQ(entry->version, 2u) << path;
  }
  // Both the crashed rename's sources and ours are retired, records gone.
  EXPECT_TRUE(coord_.ReadPrefix("alice", MetadataKey("/old"))->empty());
  EXPECT_TRUE(coord_.ReadPrefix("alice", MetadataKey("/src"))->empty());
  ExpectNoRenameRecords();
}

TEST_F(PartitionedRenameTest, MidImportPermissionFailureKeepsIntentForReplay) {
  auto service = MakeService();
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/ps")).ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/ps/x")).ok());
  // The destination key for /ps/x already exists and is owned by another
  // user: the import phase is refused after the move has begun.
  ASSERT_TRUE(
      coord_.Write("mallory", MetadataKey("/pd/x"), ToBytes("theirs")).ok());
  Status denied = service.RenameSubtree("/ps", "/pd");
  EXPECT_EQ(denied.code(), ErrorCode::kPermissionDenied);
  // The prepare record must survive a failure that may have moved part of
  // the subtree — it is the only replay handle.
  EXPECT_TRUE(coord_.Read("alice", RenameIntentKey("/ps")).ok());
  // Once the conflict is cleared, a remount replays and completes.
  ASSERT_TRUE(coord_.Remove("mallory", MetadataKey("/pd/x")).ok());
  auto fresh = MakeService();
  ASSERT_TRUE(fresh.Mount().ok());
  for (const char* path : {"/pd", "/pd/x"}) {
    EXPECT_TRUE(coord_.Read("alice", MetadataKey(path)).ok()) << path;
  }
  EXPECT_TRUE(coord_.ReadPrefix("alice", MetadataKey("/ps"))->empty());
  ExpectNoRenameRecords();
}

TEST_F(PartitionedRenameTest, RenameSurvivesPartitionLeaderCrashMidCommit) {
  auto service = MakeService();
  ASSERT_TRUE(service.Mount().ok());
  ASSERT_TRUE(service.Put(SampleMetadata("/dir")).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        service.Put(SampleMetadata("/dir/f" + std::to_string(i))).ok());
  }
  // Crash the destination partition's view-0 leader while the rename is in
  // flight: its in-flight imports/commit must survive the view change, and
  // the client's retransmissions must not double-apply any of them.
  const unsigned dst_partition = coord_.PartitionOf(RenameCommitKey("/moved"));
  Status rename_status;
  std::thread renamer(
      [&] { rename_status = service.RenameSubtree("/dir", "/moved"); });
  env_->Sleep(10 * kMillisecond);
  coord_.cluster(dst_partition).CrashReplica(0);
  renamer.join();
  ASSERT_TRUE(rename_status.ok()) << rename_status.ToString();
  EXPECT_GE(coord_.cluster(dst_partition).current_view(), 1u);
  for (int i = 0; i < 6; ++i) {
    auto entry =
        coord_.Read("alice", MetadataKey("/moved/f" + std::to_string(i)));
    ASSERT_TRUE(entry.ok()) << i;
    EXPECT_EQ(entry->version, 2u) << i;  // moved exactly once, not lost
  }
  auto leftovers = coord_.ReadPrefix("alice", MetadataKey("/dir"));
  ASSERT_TRUE(leftovers.ok());
  EXPECT_TRUE(leftovers->empty());
  ExpectNoRenameRecords();
}

}  // namespace
}  // namespace scfs
