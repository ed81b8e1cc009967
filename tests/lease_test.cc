// Lease-delegated metadata caching, end to end over a deployment: grants on
// first read, local serving afterwards, revoke-before-ack on mutation,
// write-hot backoff, natural expiry, lock linger reclaim and the broker
// handoff to a contender. Complemented by the TupleSpace-level lease unit
// tests in coord_test.cc and the randomized interleavings in
// property_test.cc.

#include <gtest/gtest.h>

#include "src/scfs/deployment.h"

namespace scfs {
namespace {

class LeaseTest : public ::testing::Test {
 protected:
  LeaseTest() : env_(Environment::Instant()) {
    DeploymentOptions options;
    options.backend = ScfsBackendKind::kCoc;
    options.zero_latency = true;
    options.lease_ttl = 5 * kSecond;
    deployment_ = Deployment::Create(env_.get(), options);
  }

  std::unique_ptr<ScfsFileSystem> MountAgent(
      const std::string& user, ScfsMode mode = ScfsMode::kBlocking) {
    ScfsOptions options;
    options.mode = mode;
    auto fs = deployment_->Mount(user, options);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    return std::move(*fs);
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Deployment> deployment_;
};

TEST_F(LeaseTest, RepeatedReadsServedFromOneGrant) {
  // The reader is a second agent: the writer's own files are served by its
  // write-credit pin (it holds the lingering locks), which would mask the
  // lease path this test probes.
  auto writer = MountAgent("alice");
  auto fs = MountAgent("alice");
  ASSERT_TRUE(writer->Mkdir("/d").ok());
  ASSERT_TRUE(writer->WriteFile("/d/a", ToBytes("aa")).ok());
  ASSERT_TRUE(writer->WriteFile("/d/b", ToBytes("bb")).ok());

  // Outlive the metadata TTL cache so the reads below exercise the lease
  // path, not the short-term cache.
  env_->Sleep(kSecond);
  const uint64_t grants_before = fs->metadata_service().lease_grants();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fs->Stat("/d/a").ok());
    ASSERT_TRUE(fs->Stat("/d/b").ok());
  }
  EXPECT_GE(fs->metadata_service().lease_grants(), grants_before + 1);
  // First miss grants; everything after is local.
  EXPECT_GE(fs->metadata_service().lease_hits(), 8u);
  EXPECT_GT(deployment_->lease_manager()->counters().local_hits, 0u);
}

TEST_F(LeaseTest, OwnWritesServedByWriteCredit) {
  // The dual of the above: while the writer's lock lingers, its own
  // published metadata is pinned — repeated stats of an own-written file
  // cost zero coordination rounds and zero lease grants.
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->WriteFile("/d/mine", ToBytes("aa")).ok());
  env_->Sleep(kSecond);  // outlive the TTL cache
  const uint64_t grants_before = fs->metadata_service().lease_grants();
  const uint64_t coord_before = fs->metadata_service().coord_reads();
  for (int i = 0; i < 5; ++i) {
    auto stat = fs->Stat("/d/mine");
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->size, 2u);
  }
  EXPECT_GT(fs->metadata_service().pinned_hits(), 0u);
  EXPECT_EQ(fs->metadata_service().lease_grants(), grants_before);
  EXPECT_EQ(fs->metadata_service().coord_reads(), coord_before);
}

TEST_F(LeaseTest, UnlinkStopsWriteCreditServing) {
  // Unlink takes the write lock and unpins: no window where the remover
  // still answers stats for the deleted file from its pin.
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->WriteFile("/d/gone", ToBytes("aa")).ok());
  env_->Sleep(kSecond);
  ASSERT_TRUE(fs->Stat("/d/gone").ok());  // served by the pin
  ASSERT_TRUE(fs->Unlink("/d/gone").ok());
  EXPECT_EQ(fs->Stat("/d/gone").status().code(), ErrorCode::kNotFound);
}

TEST_F(LeaseTest, LeaseCoversNegativeLookups) {
  auto writer = MountAgent("alice");
  auto fs = MountAgent("alice");
  ASSERT_TRUE(writer->Mkdir("/d").ok());
  ASSERT_TRUE(writer->WriteFile("/d/a", ToBytes("aa")).ok());
  env_->Sleep(kSecond);
  ASSERT_TRUE(fs->Stat("/d/a").ok());  // grants the /d lease
  const uint64_t hits_before = fs->metadata_service().lease_hits();
  // A path covered by the live lease but absent from its snapshot is
  // authoritatively absent — answered locally, no coordination round.
  EXPECT_EQ(fs->Stat("/d/nope").status().code(), ErrorCode::kNotFound);
  EXPECT_GT(fs->metadata_service().lease_hits(), hits_before);
}

// A create's lock round creates the entry and revokes the leases covering
// it in the same ordered slot: once the open returns, an agent leasing the
// parent directory sees the new file without waiting out the lease.
TEST_F(LeaseTest, CreateRevokesTheParentLeaseInItsLockRound) {
  auto writer = MountAgent("alice");
  auto reader = MountAgent("alice");
  ASSERT_TRUE(writer->Mkdir("/d").ok());
  ASSERT_TRUE(writer->WriteFile("/d/a", ToBytes("aa")).ok());
  env_->Sleep(kSecond);
  ASSERT_TRUE(reader->Stat("/d/a").ok());  // grants the /d lease
  const uint64_t hits_before = reader->metadata_service().lease_hits();
  EXPECT_EQ(reader->Stat("/d/new").status().code(), ErrorCode::kNotFound);
  EXPECT_GT(reader->metadata_service().lease_hits(), hits_before);

  auto fh = writer->Open("/d/new", kOpenWrite | kOpenCreate);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  auto stat = reader->Stat("/d/new");
  EXPECT_TRUE(stat.ok()) << stat.status().ToString();
  ASSERT_TRUE(writer->Close(*fh).ok());
}

TEST_F(LeaseTest, MutationRevokesBeforeAck) {
  auto writer = MountAgent("alice");
  auto reader = MountAgent("alice");
  ASSERT_TRUE(writer->Mkdir("/d").ok());
  ASSERT_TRUE(writer->WriteFile("/d/f", ToBytes("v1")).ok());

  env_->Sleep(kSecond);
  auto before = reader->Stat("/d/f");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size, 2u);

  // The writer's publish commits a revocation in the same ordered slot; by
  // the time WriteFile returns, no agent may serve the old entry.
  ASSERT_TRUE(writer->WriteFile("/d/f", ToBytes("longer")).ok());
  auto after = reader->Stat("/d/f");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size, 6u);
  EXPECT_GT(deployment_->lease_manager()->counters().revocations, 0u);
}

TEST_F(LeaseTest, WriteHotPrefixBacksOff) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/hot").ok());
  ASSERT_TRUE(fs->WriteFile("/hot/f", ToBytes("x")).ok());
  env_->Sleep(kSecond);
  const uint64_t grants_before = fs->metadata_service().lease_grants();
  // Steady mutations: each write revokes any covering lease; the exponential
  // holdoff must keep the client from re-granting at every miss.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fs->Stat("/hot/f").ok());
    ASSERT_TRUE(fs->WriteFile("/hot/f", ToBytes("x")).ok());
  }
  EXPECT_LE(fs->metadata_service().lease_grants() - grants_before, 3u);
}

TEST_F(LeaseTest, ExpiredLeaseRegrants) {
  auto writer = MountAgent("alice");
  auto fs = MountAgent("alice");
  ASSERT_TRUE(writer->Mkdir("/d").ok());
  ASSERT_TRUE(writer->WriteFile("/d/a", ToBytes("aa")).ok());
  env_->Sleep(kSecond);
  ASSERT_TRUE(fs->Stat("/d/a").ok());
  const uint64_t grants_after_first = fs->metadata_service().lease_grants();
  EXPECT_GE(grants_after_first, 1u);

  // Walk past the TTL: the client stops serving from the lease exactly when
  // the replicas stop honouring it, and the next read re-grants.
  env_->Sleep(6 * kSecond);
  ASSERT_TRUE(fs->Stat("/d/a").ok());
  EXPECT_GT(fs->metadata_service().lease_grants(), grants_after_first);
}

TEST_F(LeaseTest, LingerReclaimSkipsLockRounds) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("v1")).ok());
  // The close released the last refcount but the lock lingers; the second
  // write-open reclaims it without a coordination round.
  ASSERT_TRUE(fs->WriteFile("/f", ToBytes("v2")).ok());
  EXPECT_GE(fs->lock_service().reclaim_hits(), 1u);
}

TEST_F(LeaseTest, ContenderClaimsLingeringLock) {
  auto a = MountAgent("alice");
  auto b = MountAgent("alice");
  ASSERT_TRUE(a->WriteFile("/f", ToBytes("from a")).ok());
  // a's lock on /f lingers after its close. b's open would be BUSY against a
  // held lock, but a lingering one is handed over through the broker.
  ASSERT_TRUE(b->WriteFile("/f", ToBytes("from b")).ok());
  EXPECT_GE(deployment_->lease_manager()->counters().linger_handoffs, 1u);
  // Outlive a's short-term metadata cache (nobody held a lease on m:/, so
  // b's publish had nothing to revoke) before checking a sees b's close.
  env_->Sleep(kSecond);
  auto read = a->ReadFile("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "from b");
}

TEST_F(LeaseTest, UnlinkClaimsAnotherMountsLingeringLock) {
  auto a = MountAgent("alice");
  auto b = MountAgent("alice");
  ASSERT_TRUE(a->WriteFile("/f", ToBytes("from a")).ok());
  // a's lock on /f lingers after its close: b's guarded remove finds it
  // held, the broker has a release it, and b's retry removes the file.
  const uint64_t handoffs =
      deployment_->lease_manager()->counters().linger_handoffs;
  ASSERT_TRUE(b->Unlink("/f").ok());
  EXPECT_EQ(deployment_->lease_manager()->counters().linger_handoffs,
            handoffs + 1);
  EXPECT_EQ(a->lock_service().HeldUntil("/f"), 0);
  EXPECT_EQ(MountAgent("alice")->Stat("/f").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(LeaseTest, ListDirServedFromLease) {
  auto fs = MountAgent("alice");
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        fs->WriteFile("/d/f" + std::to_string(i), ToBytes("x")).ok());
  }
  env_->Sleep(kSecond);
  auto first = fs->ReadDir("/d");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->size(), 4u);
  const uint64_t hits_before = fs->metadata_service().lease_hits();
  auto second = fs->ReadDir("/d");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->size(), 4u);
  EXPECT_GT(fs->metadata_service().lease_hits(), hits_before);
}

TEST_F(LeaseTest, GrantsSuspendedFallsBackToAnchoredPath) {
  auto writer = MountAgent("alice");
  auto fs = MountAgent("alice");
  ASSERT_TRUE(writer->Mkdir("/d").ok());
  ASSERT_TRUE(writer->WriteFile("/d/a", ToBytes("aa")).ok());
  env_->Sleep(kSecond);

  // The chaos hook: suspension invalidates all delegated state and blocks
  // new grants; reads still succeed through the anchored path.
  deployment_->lease_manager()->SetGrantsSuspended(true);
  const uint64_t grants_before = fs->metadata_service().lease_grants();
  for (int i = 0; i < 3; ++i) {
    env_->Sleep(2 * kSecond);  // outrun the TTL cache between reads
    ASSERT_TRUE(fs->Stat("/d/a").ok());
  }
  EXPECT_EQ(fs->metadata_service().lease_grants(), grants_before);

  deployment_->lease_manager()->SetGrantsSuspended(false);
  env_->Sleep(2 * kSecond);
  ASSERT_TRUE(fs->Stat("/d/a").ok());
  EXPECT_GT(fs->metadata_service().lease_grants(), grants_before);
}

// The partitioned plane scatters lease grants to every partition and a
// holder serves only while the earliest per-partition slice is live; the
// revocation ride-along works regardless of which partition orders the
// mutation.
TEST(LeasePartitionedTest, GrantServeRevokeAcrossPartitions) {
  // One virtual second is 10 real ms: the 5 s lease lasts 50 real ms, so
  // host scheduling delays on a loaded (or sanitized) run cannot expire the
  // grant before the stats it should serve.
  auto env = Environment::Scaled(1e-2);
  DeploymentOptions options;
  options.backend = ScfsBackendKind::kCoc;
  options.coord_partitions = 4;
  options.lease_ttl = 5 * kSecond;
  auto deployment = Deployment::Create(env.get(), options);

  ScfsOptions mount_options;
  auto a_mount = deployment->Mount("alice", mount_options);
  ASSERT_TRUE(a_mount.ok()) << a_mount.status().ToString();
  auto b_mount = deployment->Mount("alice", mount_options);
  ASSERT_TRUE(b_mount.ok()) << b_mount.status().ToString();
  auto& a = **a_mount;
  auto& b = **b_mount;

  ASSERT_TRUE(a.Mkdir("/d").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(a.WriteFile("/d/f" + std::to_string(i), ToBytes("v1")).ok());
  }
  env->Sleep(kSecond);
  const uint64_t grants_before = b.metadata_service().lease_grants();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(b.Stat("/d/f" + std::to_string(i)).ok());
  }
  EXPECT_GE(b.metadata_service().lease_grants(), grants_before + 1);
  EXPECT_GT(b.metadata_service().lease_hits(), 0u);

  ASSERT_TRUE(a.WriteFile("/d/f3", ToBytes("longer")).ok());
  auto after = b.Stat("/d/f3");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size, 6u);
}

// A rename over the partitioned plane runs through its intent engine, below
// the lease decorator: the engine hands each import's and remove's
// revocations to the plane's hook before it moves on. So once RenameSubtree
// returns, a holder of a lease on the source or the destination directory
// never serves its pre-rename snapshot.
TEST(LeasePartitionedTest, RenameRevokesSourceAndDestinationLeases) {
  auto env = Environment::Scaled(1e-2);
  DeploymentOptions options;
  options.backend = ScfsBackendKind::kCoc;
  options.coord_partitions = 4;
  // Outlives the test: only a revocation can end the holder's leases.
  options.lease_ttl = 600 * kSecond;
  auto deployment = Deployment::Create(env.get(), options);

  auto writer_mount = deployment->Mount("alice", ScfsOptions{});
  ASSERT_TRUE(writer_mount.ok()) << writer_mount.status().ToString();
  // The holder keeps no TTL cache, so every read it serves locally comes
  // from a lease.
  ScfsOptions holder_options;
  holder_options.metadata_cache_ttl = 0;
  auto holder_mount = deployment->Mount("alice", holder_options);
  ASSERT_TRUE(holder_mount.ok()) << holder_mount.status().ToString();
  auto& writer = **writer_mount;
  auto& holder = **holder_mount;

  ASSERT_TRUE(writer.Mkdir("/src").ok());
  ASSERT_TRUE(writer.Mkdir("/dst").ok());
  ASSERT_TRUE(writer.WriteFile("/src/f", ToBytes("data")).ok());
  env->Sleep(kSecond);
  // Leases on both directories, each answering a second read locally.
  ASSERT_TRUE(holder.Stat("/src/f").ok());
  EXPECT_EQ(holder.Stat("/dst/f").status().code(), ErrorCode::kNotFound);
  const uint64_t hits = holder.metadata_service().lease_hits();
  ASSERT_TRUE(holder.Stat("/src/f").ok());
  EXPECT_EQ(holder.Stat("/dst/f").status().code(), ErrorCode::kNotFound);
  ASSERT_EQ(holder.metadata_service().lease_hits(), hits + 2);

  ASSERT_TRUE(writer.Rename("/src/f", "/dst/f").ok());
  EXPECT_EQ(holder.Stat("/src/f").status().code(), ErrorCode::kNotFound);
  auto moved = holder.Stat("/dst/f");
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(moved->size, 4u);
  auto src_listing = holder.ReadDir("/src");
  ASSERT_TRUE(src_listing.ok());
  EXPECT_TRUE(src_listing->empty());
  auto dst_listing = holder.ReadDir("/dst");
  ASSERT_TRUE(dst_listing.ok());
  ASSERT_EQ(dst_listing->size(), 1u);
  EXPECT_EQ(dst_listing->front().name, "f");
}

}  // namespace
}  // namespace scfs
