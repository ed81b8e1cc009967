// Tests for the DepSky cloud-of-clouds protocols: metadata authentication,
// write/read quorums, read-by-hash, confidentiality (no single cloud holds
// the plaintext), corruption/outage/byzantine tolerance, preferred quorums,
// version GC, cross-account sharing grants, and the overlapped write's
// fresh object names.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/cloud/simulated_cloud.h"
#include "src/common/rng.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/depsky/depsky.h"
#include "src/scfs/blob_backend.h"

namespace scfs {
namespace {

// The largest single allocation made while `track_allocations` is set (see
// the replaced operator new at the end of this file).
std::atomic<bool> track_allocations{false};
std::atomic<size_t> largest_allocation{0};

std::string ContentHash(const Bytes& data) {
  return HexEncode(Sha1::Hash(data));
}

class DepSkyTest : public ::testing::Test {
 protected:
  static constexpr unsigned kClouds = 4;

  DepSkyTest() : env_(Environment::Instant()) {
    for (unsigned i = 0; i < kClouds; ++i) {
      CloudProfile profile;  // zero latency, zero window by default
      profile.name = "cloud" + std::to_string(i);
      profile.prices = PriceBook::AmazonS3();
      clouds_.push_back(
          std::make_unique<SimulatedCloud>(profile, env_.get(), 10 + i));
    }
  }

  DepSkyClient MakeClient(const std::string& user,
                          DepSkyMode mode = DepSkyMode::kSecretSharing,
                          bool preferred = true) {
    DepSkyConfig config;
    config.f = 1;
    config.mode = mode;
    config.preferred_quorums = preferred;
    config.auth_key = ToBytes("deployment-auth-key");
    std::vector<DepSkyCloud> set;
    for (auto& cloud : clouds_) {
      set.push_back(DepSkyCloud{cloud.get(),
                                {cloud->provider_name() + ":" + user}});
    }
    return DepSkyClient(env_.get(), std::move(set), config, 1234);
  }

  // Client with 1 KB units and a window of four, so multi-unit tests stay
  // fast.
  DepSkyClient MakeStripedClient(const std::string& user,
                                 DepSkyMode mode = DepSkyMode::kSecretSharing) {
    DepSkyConfig config;
    config.f = 1;
    config.mode = mode;
    config.auth_key = ToBytes("deployment-auth-key");
    config.stripe_unit_size = 1024;
    config.stripe_inflight = 4;
    std::vector<DepSkyCloud> set;
    for (auto& cloud : clouds_) {
      set.push_back(DepSkyCloud{cloud.get(),
                                {cloud->provider_name() + ":" + user}});
    }
    return DepSkyClient(env_.get(), std::move(set), config, 1234);
  }

  std::unique_ptr<Environment> env_;
  std::vector<std::unique_ptr<SimulatedCloud>> clouds_;
};

TEST_F(DepSkyTest, MetadataEncodeDecodeRoundTrip) {
  DepSkyMetadata md;
  md.n = 4;
  md.k = 2;
  md.mode = DepSkyMode::kSecretSharing;
  md.owner_ids = {"a", "b", "c", "d"};
  DepSkyVersion v;
  v.version = 3;
  v.content_hash = "abcd";
  v.size = 100;
  v.nonce = Bytes(12, 9);
  v.stripe_unit_size = 4096;
  DepSkyStripeUnit unit;
  unit.shard_hashes = {Bytes(32, 1), Bytes(32, 2), Bytes(32, 3), Bytes(32, 4)};
  unit.cloud_shard = {0, 1, 2, -1};
  v.stripe_units.push_back(unit);
  md.versions.push_back(v);
  DepSkyGrant grant;
  grant.cloud_ids = {"u0", "u1", "u2", "u3"};
  grant.read = true;
  md.grants.push_back(grant);

  Bytes key = ToBytes("k");
  auto decoded = DepSkyMetadata::Decode(md.Encode(key), key);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->n, 4u);
  EXPECT_EQ(decoded->owner_ids[2], "c");
  ASSERT_EQ(decoded->versions.size(), 1u);
  EXPECT_EQ(decoded->versions[0].version, 3u);
  ASSERT_EQ(decoded->versions[0].stripe_units.size(), 1u);
  EXPECT_EQ(decoded->versions[0].stripe_units[0].cloud_shard[3], -1);
  ASSERT_EQ(decoded->grants.size(), 1u);
  EXPECT_TRUE(decoded->grants[0].read);
  EXPECT_FALSE(decoded->grants[0].write);
}

TEST_F(DepSkyTest, MetadataStripeManifestRoundTrip) {
  DepSkyMetadata md;
  md.n = 4;
  md.k = 2;
  // Version 1 is one unit, version 2 three: each carries its own units.
  DepSkyVersion small;
  small.version = 1;
  small.content_hash = "aaaa";
  small.size = 10;
  small.stripe_unit_size = 4 * 1024 * 1024;
  DepSkyStripeUnit only;
  only.shard_hashes = {Bytes(32, 1), Bytes(32, 2), Bytes(32, 3), Bytes(32, 4)};
  only.cloud_shard = {0, 1, 2, 3};
  small.stripe_units.push_back(only);
  md.versions.push_back(small);
  DepSkyVersion striped;
  striped.version = 2;
  striped.content_hash = "bbbb";
  striped.size = 10 * 1024 * 1024;
  striped.nonce = Bytes(12, 7);
  striped.stripe_unit_size = 4 * 1024 * 1024;
  for (int u = 0; u < 3; ++u) {
    DepSkyStripeUnit unit;
    unit.content_hash = Bytes(32, static_cast<uint8_t>(0x10 + u));
    unit.shard_hashes = {Bytes(32, 5), Bytes(32, 6), Bytes(32, 7),
                         Bytes(32, 8)};
    unit.cloud_shard = {3, 2, 1, -1};
    striped.stripe_units.push_back(unit);
  }
  md.versions.push_back(striped);

  Bytes key = ToBytes("k");
  auto decoded = DepSkyMetadata::Decode(md.Encode(key), key);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->versions.size(), 2u);
  ASSERT_EQ(decoded->versions[0].stripe_units.size(), 1u);
  EXPECT_EQ(decoded->versions[0].stripe_units[0].cloud_shard,
            (std::vector<int32_t>{0, 1, 2, 3}));
  const auto& v = decoded->versions[1];
  EXPECT_EQ(v.stripe_unit_size, 4u * 1024 * 1024);
  ASSERT_EQ(v.stripe_units.size(), 3u);
  EXPECT_EQ(v.stripe_units[1].content_hash, Bytes(32, 0x11));
  ASSERT_EQ(v.stripe_units[2].shard_hashes.size(), 4u);
  EXPECT_EQ(v.stripe_units[2].shard_hashes[3], Bytes(32, 8));
  EXPECT_EQ(v.stripe_units[0].cloud_shard,
            (std::vector<int32_t>{3, 2, 1, -1}));
}

// A one-unit and a three-unit record, every field set.
std::vector<DepSkyVersion> SampleRecords() {
  DepSkyVersion small;
  small.version = 7;
  small.object_id = 0x0123456789abcdefULL;
  small.content_hash = "aaaa";
  small.size = 10;
  small.nonce = Bytes(12, 3);
  small.stripe_unit_size = 4096;
  DepSkyStripeUnit only;
  only.content_hash = Bytes(32, 0x0f);
  only.shard_hashes = {Bytes(32, 1), Bytes(32, 2), Bytes(32, 3), Bytes(32, 4)};
  only.cloud_shard = {0, 1, 2, -1};
  small.stripe_units.push_back(only);
  DepSkyVersion striped;
  striped.version = 8;
  striped.object_id = 42;
  striped.content_hash = "bbbb";
  striped.size = 9 * 1024;
  striped.nonce = Bytes(12, 7);
  striped.stripe_unit_size = 4096;
  for (int u = 0; u < 3; ++u) {
    DepSkyStripeUnit unit;
    unit.content_hash = Bytes(32, static_cast<uint8_t>(0x10 + u));
    unit.shard_hashes = {Bytes(32, 5), Bytes(32, 6), Bytes(32, 7),
                         Bytes(32, 8)};
    unit.cloud_shard = {-1, u, 2, 1};
    striped.stripe_units.push_back(unit);
  }
  return {small, striped};
}

void ExpectSameRecord(const DepSkyVersion& got, const DepSkyVersion& want) {
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.object_id, want.object_id);
  EXPECT_EQ(got.content_hash, want.content_hash);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.nonce, want.nonce);
  EXPECT_EQ(got.stripe_unit_size, want.stripe_unit_size);
  ASSERT_EQ(got.stripe_units.size(), want.stripe_units.size());
  for (size_t u = 0; u < want.stripe_units.size(); ++u) {
    EXPECT_EQ(got.stripe_units[u].content_hash,
              want.stripe_units[u].content_hash);
    EXPECT_EQ(got.stripe_units[u].shard_hashes,
              want.stripe_units[u].shard_hashes);
    EXPECT_EQ(got.stripe_units[u].cloud_shard,
              want.stripe_units[u].cloud_shard);
  }
}

TEST_F(DepSkyTest, VersionRecordRoundTrip) {
  for (const DepSkyVersion& record : SampleRecords()) {
    const Bytes encoded = record.Encode();
    auto decoded = DepSkyVersion::Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameRecord(*decoded, record);
    // Exactly one record: truncated or trailing bytes are rejected.
    EXPECT_EQ(DepSkyVersion::Decode(Bytes(encoded.begin(), encoded.end() - 1))
                  .status()
                  .code(),
              ErrorCode::kCorruption);
    Bytes longer = encoded;
    longer.push_back(0);
    EXPECT_EQ(DepSkyVersion::Decode(longer).status().code(),
              ErrorCode::kCorruption);
  }
}

TEST_F(DepSkyTest, MetadataEncodesEachVersionWithTheRecordCodec) {
  DepSkyMetadata md;
  md.owner_ids = {"a", "b", "c", "d"};
  md.versions = SampleRecords();
  Bytes key = ToBytes("k");
  const Bytes encoded = md.Encode(key);
  // The metadata body embeds each record's encoding as is, the stripe
  // manifest included.
  for (const DepSkyVersion& record : md.versions) {
    const Bytes bytes = record.Encode();
    EXPECT_NE(std::search(encoded.begin(), encoded.end(), bytes.begin(),
                          bytes.end()),
              encoded.end());
  }
  auto decoded = DepSkyMetadata::Decode(encoded, key);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->versions.size(), md.versions.size());
  for (size_t i = 0; i < md.versions.size(); ++i) {
    ExpectSameRecord(decoded->versions[i], md.versions[i]);
  }
}

TEST_F(DepSkyTest, MetadataAuthenticatorRejectsTampering) {
  DepSkyMetadata md;
  Bytes key = ToBytes("k");
  Bytes encoded = md.Encode(key);
  encoded[6] ^= 0x01;
  EXPECT_EQ(DepSkyMetadata::Decode(encoded, key).status().code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(DepSkyMetadata::Decode(md.Encode(key), ToBytes("other"))
                .status()
                .code(),
            ErrorCode::kCorruption);
}

TEST_F(DepSkyTest, WriteReadRoundTrip) {
  auto client = MakeClient("alice");
  Rng rng(1);
  Bytes data = rng.RandomBytes(10000);
  auto version = client.WriteVersion("file1", ContentHash(data), data);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version->version, 1u);
  EXPECT_EQ(version->content_hash, ContentHash(data));
  EXPECT_EQ(*client.ReadVersion("file1", *version), data);

  auto read = client.ReadByHash("file1", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);

  auto latest = client.ReadLatest("file1");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, data);
}

TEST_F(DepSkyTest, VersionsAccumulate) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("version one");
  Bytes v2 = ToBytes("version two, longer");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->versions.size(), 2u);

  // Both versions remain readable (multi-versioning for error recovery).
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v1)), v1);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
}

TEST_F(DepSkyTest, ReadUnknownHashIsNotFound) {
  auto client = MakeClient("alice");
  Bytes data = ToBytes("x");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  EXPECT_EQ(client.ReadByHash("f", "deadbeef").status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(client.ReadLatest("missing-unit").status().code(),
            ErrorCode::kNotFound);
}

TEST_F(DepSkyTest, NoSingleCloudHoldsPlaintext) {
  auto client = MakeClient("alice");
  Bytes data(4096, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(client.WriteVersion("secret", ContentHash(data), data).ok());

  // Inspect every object in every cloud: none may contain the plaintext (or
  // even a quarter of it) as a substring.
  std::string needle(data.begin(), data.begin() + data.size() / 4);
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "");
    ASSERT_TRUE(listed.ok());
    for (const auto& info : *listed) {
      auto blob = cloud->PeekLatest(info.key);
      ASSERT_TRUE(blob.ok());
      std::string haystack(blob->begin(), blob->end());
      EXPECT_EQ(haystack.find(needle), std::string::npos)
          << "plaintext leaked to " << cloud->provider_name();
    }
  }
}

TEST_F(DepSkyTest, PreferredQuorumLeavesOneCloudEmpty) {
  auto client = MakeClient("alice");
  Bytes data(10000, 5);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  // Paper: "two clouds store half of the file each while a third receives an
  // extra block ... the fourth cloud is not used".
  unsigned clouds_with_value = 0;
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/o");
    ASSERT_TRUE(listed.ok());
    clouds_with_value += listed->empty() ? 0 : 1;
  }
  EXPECT_EQ(clouds_with_value, 3u);
}

TEST_F(DepSkyTest, WithoutPreferredQuorumsAllCloudsUsed) {
  auto client = MakeClient("alice", DepSkyMode::kSecretSharing,
                           /*preferred=*/false);
  Bytes data(1000, 5);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/o");
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed->size(), 1u);
  }
}

TEST_F(DepSkyTest, StorageOverheadIsAboutOnePointFive) {
  auto client = MakeClient("alice");
  Bytes data(100000, 3);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  uint64_t stored = 0;
  for (auto& cloud : clouds_) {
    stored += cloud->costs().StoredBytes(cloud->provider_name() + ":alice");
  }
  // 3 shards of |F|/2 plus small metadata: ~1.5x (Figure 11c).
  EXPECT_GT(stored, data.size() * 14 / 10);
  EXPECT_LT(stored, data.size() * 17 / 10);
}

TEST_F(DepSkyTest, SurvivesOneCloudOutage) {
  auto client = MakeClient("alice");
  Bytes data = ToBytes("important data");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());

  for (unsigned down = 0; down < kClouds; ++down) {
    clouds_[down]->faults().SetUnavailable(true);
    auto read = client.ReadByHash("f", ContentHash(data));
    ASSERT_TRUE(read.ok()) << "with cloud " << down << " down";
    EXPECT_EQ(*read, data);
    clouds_[down]->faults().SetUnavailable(false);
  }
}

TEST_F(DepSkyTest, WritesSucceedDuringOutage) {
  auto client = MakeClient("alice");
  clouds_[1]->faults().SetUnavailable(true);
  Bytes data = ToBytes("written under failure");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  clouds_[1]->faults().SetUnavailable(false);
}

TEST_F(DepSkyTest, TwoCloudOutageBlocksWrites) {
  auto client = MakeClient("alice");
  clouds_[0]->faults().SetUnavailable(true);
  clouds_[1]->faults().SetUnavailable(true);
  Bytes data = ToBytes("x");
  EXPECT_EQ(client.WriteVersion("f", ContentHash(data), data).status().code(),
            ErrorCode::kUnavailable);
}

TEST_F(DepSkyTest, DetectsAndRoutesAroundCorruption) {
  auto client = MakeClient("alice");
  Bytes data(5000, 7);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  // Cloud 0 persistently corrupts reads; the shard hash check must reject its
  // shard and the read must recover from the other clouds.
  clouds_[0]->faults().SetCorruptAllReads(true);
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  clouds_[0]->faults().SetCorruptAllReads(false);
}

TEST_F(DepSkyTest, ByzantineMetadataRollbackOutvoted) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  // Cloud 2 serves arbitrarily old (but authentic) state; the metadata read
  // takes the maximum authenticated version from the other clouds.
  clouds_[2]->faults().SetByzantine(true);
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->versions.size(), 2u);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
  clouds_[2]->faults().SetByzantine(false);
}

TEST_F(DepSkyTest, ReplicationModeRoundTrip) {
  auto client = MakeClient("alice", DepSkyMode::kReplication);
  Bytes data = ToBytes("replicated everywhere");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  auto read = client.ReadLatest("f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  // Replication mode survives an outage too.
  clouds_[0]->faults().SetUnavailable(true);
  EXPECT_EQ(*client.ReadLatest("f"), data);
  clouds_[0]->faults().SetUnavailable(false);
}

TEST_F(DepSkyTest, ReplicationStoresFullCopies) {
  auto client = MakeClient("alice", DepSkyMode::kReplication);
  Bytes data(10000, 1);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  uint64_t stored = 0;
  for (auto& cloud : clouds_) {
    stored += cloud->costs().StoredBytes(cloud->provider_name() + ":alice");
  }
  EXPECT_GT(stored, data.size() * 29 / 10);  // ~3 full copies (quorum of 3)
}

TEST_F(DepSkyTest, DeleteVersionReclaimsSpace) {
  auto client = MakeClient("alice");
  Bytes v1(1000, 1);
  Bytes v2(1000, 2);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  ASSERT_TRUE(client.DeleteVersion("f", ContentHash(v1)).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->versions.size(), 1u);
  EXPECT_EQ(md->versions[0].version, 2u);
  EXPECT_EQ(client.ReadByHash("f", ContentHash(v1)).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
}

TEST_F(DepSkyTest, DeleteUnitRemovesEverything) {
  auto client = MakeClient("alice");
  Bytes data = ToBytes("gone soon");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  ASSERT_TRUE(client.DeleteUnit("f").ok());
  EXPECT_EQ(client.ReadMetadata("f").status().code(), ErrorCode::kNotFound);
  for (auto& cloud : clouds_) {
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/");
    ASSERT_TRUE(listed.ok());
    EXPECT_TRUE(listed->empty());
  }
}

TEST_F(DepSkyTest, SharingGrantAllowsSecondUser) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  Bytes data = ToBytes("shared document");
  ASSERT_TRUE(alice.WriteVersion("doc", ContentHash(data), data).ok());

  // Before the grant, bob cannot read.
  EXPECT_FALSE(bob.ReadByHash("doc", ContentHash(data)).ok());

  DepSkyGrant grant;
  for (auto& cloud : clouds_) {
    grant.cloud_ids.push_back(cloud->provider_name() + ":bob");
  }
  grant.read = true;
  grant.write = true;
  ASSERT_TRUE(alice.SetGrant("doc", grant).ok());

  auto read = bob.ReadByHash("doc", ContentHash(data));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);

  // Bob writes a new version; alice can read it back (owner ACLs applied).
  Bytes update = ToBytes("bob's update");
  ASSERT_TRUE(bob.WriteVersion("doc", ContentHash(update), update).ok());
  auto alice_read = alice.ReadLatest("doc");
  ASSERT_TRUE(alice_read.ok());
  EXPECT_EQ(*alice_read, update);
}

TEST_F(DepSkyTest, RevokedGrantDeniesAccess) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  Bytes data = ToBytes("was shared");
  ASSERT_TRUE(alice.WriteVersion("doc", ContentHash(data), data).ok());
  DepSkyGrant grant;
  for (auto& cloud : clouds_) {
    grant.cloud_ids.push_back(cloud->provider_name() + ":bob");
  }
  grant.read = true;
  ASSERT_TRUE(alice.SetGrant("doc", grant).ok());
  ASSERT_TRUE(bob.ReadLatest("doc").ok());

  grant.read = false;
  grant.write = false;
  ASSERT_TRUE(alice.SetGrant("doc", grant).ok());
  EXPECT_FALSE(bob.ReadLatest("doc").ok());
}

TEST_F(DepSkyTest, EventualConsistencyNotFoundUntilVisible) {
  // With a consistency window on metadata overwrites, a second version is
  // invisible to readers until the window passes — exactly the situation the
  // SCFS consistency anchor loop handles.
  for (auto& cloud : clouds_) {
    // Rebuild clouds with a window is not possible in place; emulate with a
    // fresh set.
  }
  std::vector<std::unique_ptr<SimulatedCloud>> windowed;
  std::vector<DepSkyCloud> set;
  for (unsigned i = 0; i < kClouds; ++i) {
    CloudProfile profile;
    profile.name = "w" + std::to_string(i);
    profile.consistency_window_base = 5 * kSecond;
    windowed.push_back(
        std::make_unique<SimulatedCloud>(profile, env_.get(), 50 + i));
    set.push_back(DepSkyCloud{windowed.back().get(), {"w:alice"}});
  }
  DepSkyConfig config;
  config.auth_key = ToBytes("k");
  DepSkyClient client(env_.get(), std::move(set), config, 7);

  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  env_->Sleep(6 * kSecond);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());

  // Metadata overwrite still in the window: v2 not found yet, by either
  // anchored read.
  EXPECT_EQ(client.ReadByHash("f", ContentHash(v2)).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(client.ReadAt("f", ContentHash(v2), 0, 2).status().code(),
            ErrorCode::kNotFound);
  env_->Sleep(6 * kSecond);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
}

// ---------------------------------------------------------------------------
// Units: every version is a list of units, at least one
// ---------------------------------------------------------------------------

TEST_F(DepSkyTest, StripedWriteReadRoundTrip) {
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(77).RandomBytes(10 * 1024 + 37);  // 11 units, last partial
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->versions.size(), 1u);
  const DepSkyVersion& v = md->versions.back();
  EXPECT_EQ(v.stripe_unit_size, 1024u);
  ASSERT_EQ(v.stripe_units.size(), 11u);
  for (const auto& su : v.stripe_units) {
    EXPECT_EQ(su.shard_hashes.size(), kClouds);
    EXPECT_EQ(su.cloud_shard.size(), kClouds);
    EXPECT_EQ(su.content_hash.size(), 32u);
  }
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(data)), data);
  EXPECT_EQ(*client.ReadLatest("f"), data);
}

// A file no larger than one unit is one unit, and an empty file is one unit
// of 0 bytes (SCFS writes empty files, e.g. fresh logs): it is stored,
// read, range-read and scrubbed like any other unit.
TEST_F(DepSkyTest, EmptyFileIsOneUnitOfZeroBytes) {
  for (DepSkyMode mode : {DepSkyMode::kSecretSharing,
                          DepSkyMode::kReplication}) {
    auto client = MakeStripedClient("alice", mode);
    const std::string unit = mode == DepSkyMode::kReplication ? "a" : "ca";
    const Bytes empty;
    const std::string hash = ContentHash(empty);
    auto record = client.WriteVersion(unit, hash, empty);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(record->size, 0u);
    ASSERT_EQ(record->stripe_units.size(), 1u);
    EXPECT_EQ(record->stripe_units[0].content_hash, Sha256::Hash(empty));
    unsigned holders = 0;
    for (unsigned c = 0; c < kClouds; ++c) {
      if (record->stripe_units[0].cloud_shard[c] >= 0) {
        ++holders;
        EXPECT_TRUE(
            clouds_[c]->PeekLatest(DepSkyClient::ValueKey(unit, *record, 0))
                .ok());
      }
    }
    EXPECT_EQ(holders, 3u);

    auto decoded = DepSkyVersion::Decode(record->Encode());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    auto read = client.ReadVersion(unit, *decoded);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(read->empty());
    auto by_hash = client.ReadByHash(unit, hash);
    ASSERT_TRUE(by_hash.ok()) << by_hash.status().ToString();
    EXPECT_TRUE(by_hash->empty());
    auto latest = client.ReadLatest(unit);
    ASSERT_TRUE(latest.ok()) << latest.status().ToString();
    EXPECT_TRUE(latest->empty());
    auto range = client.ReadAt(unit, hash, 0, 10);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_TRUE(range->empty());
    EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
    auto report = client.ScrubUnit(unit);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->objects_checked, 3u);
    EXPECT_EQ(report->objects_missing, 0u);
  }
}

// DepSky-A runs the same unit path: a file larger than one unit is cut into
// units, and each cloud stores every unit's plaintext in full.
TEST_F(DepSkyTest, ReplicationModeCutsLargeFilesIntoUnits) {
  auto client = MakeStripedClient("alice", DepSkyMode::kReplication);
  Bytes data = Rng(78).RandomBytes(3 * 1024 + 500);
  const std::string hash = ContentHash(data);
  auto record = client.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_TRUE(record->nonce.empty());
  ASSERT_EQ(record->stripe_units.size(), 4u);
  for (size_t u = 0; u < record->stripe_units.size(); ++u) {
    const Bytes slice(data.begin() + u * 1024,
                      data.begin() + std::min<size_t>((u + 1) * 1024,
                                                      data.size()));
    const DepSkyStripeUnit& su = record->stripe_units[u];
    EXPECT_EQ(su.content_hash, Sha256::Hash(slice));
    for (unsigned c = 0; c < kClouds; ++c) {
      if (su.cloud_shard[c] < 0) {
        continue;
      }
      auto stored =
          clouds_[c]->PeekLatest(DepSkyClient::ValueKey("f", *record, u));
      ASSERT_TRUE(stored.ok());
      auto object = DepSkyValueObject::Decode(*stored);
      ASSERT_TRUE(object.ok());
      EXPECT_EQ(object->shard, slice) << "unit " << u << " cloud " << c;
      EXPECT_EQ(object->share_index, 0u);
    }
  }
  EXPECT_EQ(*client.ReadVersion("f", *record), data);
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
  EXPECT_EQ(*client.ReadAt("f", hash, 1000, 1100),
            Bytes(data.begin() + 1000, data.begin() + 2100));
  clouds_[0]->faults().SetUnavailable(true);
  EXPECT_EQ(*client.ReadLatest("f"), data);
  clouds_[0]->faults().SetUnavailable(false);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
}

// A record's unit count follows from its size and unit size, and decoding
// rejects any other count: readers index units and size the output by the
// record, which may come from any writer.
TEST_F(DepSkyTest, RecordWithWrongUnitCountIsCorrupt) {
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(79).RandomBytes(2 * 1024 + 10);
  const std::string hash = ContentHash(data);
  auto record = client.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->stripe_units.size(), 3u);
  ASSERT_TRUE(DepSkyVersion::Decode(record->Encode()).ok());

  DepSkyVersion too_few = *record;
  too_few.stripe_units.pop_back();
  DepSkyVersion too_many = *record;
  too_many.stripe_units.push_back(record->stripe_units.back());
  DepSkyVersion no_unit_size = *record;
  no_unit_size.stripe_unit_size = 0;
  // Three units, as 2058 bytes of 1000-byte units need, but no unit may
  // split a 64-byte keystream block.
  DepSkyVersion odd_unit_size = *record;
  odd_unit_size.stripe_unit_size = 1000;
  DepSkyVersion empty_without_unit = *record;
  empty_without_unit.size = 0;
  empty_without_unit.stripe_units.clear();
  for (const DepSkyVersion* bad : {&too_few, &too_many, &no_unit_size,
                                   &odd_unit_size, &empty_without_unit}) {
    const Bytes encoded = bad->Encode();
    EXPECT_EQ(DepSkyVersion::Decode(encoded).status().code(),
              ErrorCode::kCorruption);
    // As a locator: one counted fallback to the hash, and the right bytes.
    const uint64_t fallbacks = client.anchored_read_fallbacks();
    auto read = client.ReadVersion("f", hash, encoded);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, data);
    EXPECT_EQ(client.anchored_read_fallbacks(), fallbacks + 1);
  }

  // Inside authentic metadata the record fails the copy's decode too: a
  // range read past the last listed unit gets an error, not a unit the
  // record does not have.
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  md->versions.back() = too_few;
  const Bytes forged = md->Encode(ToBytes("deployment-auth-key"));
  EXPECT_EQ(DepSkyMetadata::Decode(forged, ToBytes("deployment-auth-key"))
                .status()
                .code(),
            ErrorCode::kCorruption);
  for (auto& cloud : clouds_) {
    ASSERT_TRUE(cloud
                    ->Put({cloud->provider_name() + ":alice"},
                          DepSkyClient::MetadataKey("f"), forged)
                    .ok());
  }
  auto range = client.ReadAt("f", hash, 2 * 1024, 10);
  EXPECT_FALSE(range.ok());
  EXPECT_FALSE(client.ReadByHash("f", hash).ok());
}

TEST_F(DepSkyTest, RecordClaimingAHugeSizeIsCorruptWithoutAllocatingIt) {
  auto client = MakeClient("alice");
  Bytes data = Rng(80).RandomBytes(3000);
  const std::string hash = ContentHash(data);
  auto record = client.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok());
  // One unit of 2^50 bytes decodes as valid; its shards hold 3000 bytes.
  DepSkyVersion huge = *record;
  huge.size = uint64_t{1} << 50;
  huge.stripe_unit_size = huge.size;
  ASSERT_TRUE(DepSkyVersion::Decode(huge.Encode()).ok());
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  md->versions.back() = huge;
  const Bytes forged = md->Encode(ToBytes("deployment-auth-key"));
  for (auto& cloud : clouds_) {
    ASSERT_TRUE(cloud
                    ->Put({cloud->provider_name() + ":alice"},
                          DepSkyClient::MetadataKey("f"), forged)
                    .ok());
  }

  largest_allocation = 0;
  track_allocations = true;
  auto whole = client.ReadLatest("f");
  auto range = client.ReadAt("f", hash, 0, size_t{1} << 40);
  track_allocations = false;
  EXPECT_EQ(whole.status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(range.status().code(), ErrorCode::kCorruption);
  // Nothing near the claim was allocated: the largest buffer is of the
  // order of the fetched shards and metadata copies.
  EXPECT_LT(largest_allocation.load(), size_t{1} << 20);
}

TEST_F(DepSkyTest, StripedReadAtBoundaries) {
  auto client = MakeStripedClient("alice");
  const size_t kUnit = 1024;
  Bytes data = Rng(9).RandomBytes(10 * kUnit + 37);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto slice = [&](uint64_t offset, size_t length) {
    length = std::min<uint64_t>(length, data.size() - offset);
    return Bytes(data.begin() + offset, data.begin() + offset + length);
  };

  // Exactly one full unit.
  EXPECT_EQ(*client.ReadAt("f", hash, kUnit, kUnit), slice(kUnit, kUnit));
  // Start mid-unit.
  EXPECT_EQ(*client.ReadAt("f", hash, 1500, 100), slice(1500, 100));
  // End mid-unit.
  EXPECT_EQ(*client.ReadAt("f", hash, kUnit, 1500), slice(kUnit, 1500));
  // Span several units with ragged edges on both sides.
  EXPECT_EQ(*client.ReadAt("f", hash, 500, 5 * kUnit - 7),
            slice(500, 5 * kUnit - 7));
  // Tail read into the partial last unit, clamped at EOF.
  EXPECT_EQ(*client.ReadAt("f", hash, data.size() - 10, 100),
            slice(data.size() - 10, 100));
  // Whole file.
  EXPECT_EQ(*client.ReadAt("f", hash, 0, data.size()), data);
  // Past EOF / empty.
  EXPECT_TRUE(client.ReadAt("f", hash, data.size() + 5, 10)->empty());
  EXPECT_TRUE(client.ReadAt("f", hash, 0, 0)->empty());
}

TEST_F(DepSkyTest, ReadAtOnOneUnitVersionSlices) {
  auto client = MakeClient("alice");
  Bytes data = Rng(11).RandomBytes(5000);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());
  EXPECT_EQ(*client.ReadAt("f", hash, 1234, 600),
            Bytes(data.begin() + 1234, data.begin() + 1234 + 600));
  EXPECT_TRUE(client.ReadAt("f", hash, 9999, 10)->empty());
}

TEST_F(DepSkyTest, StripedUnitsSurviveIndependentShardLoss) {
  // Each stripe unit is an independent erasure group: every unit may lose up
  // to f shards — at a *different* cloud per unit — and the file must still
  // reassemble.
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(13).RandomBytes(8 * 1024);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion& v = md->versions.back();
  ASSERT_EQ(v.stripe_units.size(), 8u);
  for (size_t u = 0; u < v.stripe_units.size(); ++u) {
    // Rotate which holder loses its object from unit to unit.
    std::vector<unsigned> holders;
    for (unsigned c = 0; c < kClouds; ++c) {
      if (v.stripe_units[u].cloud_shard[c] >= 0) {
        holders.push_back(c);
      }
    }
    ASSERT_GE(holders.size(), 3u);
    const unsigned victim = holders[u % holders.size()];
    ASSERT_TRUE(clouds_[victim]
                    ->Delete({clouds_[victim]->provider_name() + ":alice"},
                             DepSkyClient::ValueKey("f", v, u))
                    .ok());
  }
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
}

// ---------------------------------------------------------------------------
// Scrub & repair
// ---------------------------------------------------------------------------

TEST_F(DepSkyTest, ScrubOnHealthyUnitReportsFullRedundancy) {
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(17).RandomBytes(4 * 1024);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->versions_checked, 1u);
  EXPECT_GT(report->objects_checked, 0u);
  EXPECT_EQ(report->objects_missing, 0u);
  EXPECT_EQ(report->objects_repaired, 0u);
  EXPECT_TRUE(report->fully_redundant);
}

TEST_F(DepSkyTest, ScrubRebuildsLostStripeShardsByteIdentically) {
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(19).RandomBytes(6 * 1024);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion v = md->versions.back();
  ASSERT_EQ(v.stripe_units.size(), 6u);

  // Lose one stored object per unit (rotating holders), then scrub.
  std::vector<std::pair<unsigned, std::string>> lost;  // (cloud, key)
  for (size_t u = 0; u < v.stripe_units.size(); ++u) {
    std::vector<unsigned> holders;
    for (unsigned c = 0; c < kClouds; ++c) {
      if (v.stripe_units[u].cloud_shard[c] >= 0) {
        holders.push_back(c);
      }
    }
    const unsigned victim = holders[u % holders.size()];
    const std::string key = DepSkyClient::ValueKey("f", v, u);
    ASSERT_TRUE(clouds_[victim]
                    ->Delete({clouds_[victim]->provider_name() + ":alice"}, key)
                    .ok());
    lost.emplace_back(victim, key);
  }

  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_missing, v.stripe_units.size());
  EXPECT_EQ(report->objects_repaired, v.stripe_units.size());
  EXPECT_EQ(report->objects_relocated, 0u);
  EXPECT_EQ(report->repair_failures, 0u);

  // The rebuilt objects hash-match the manifest (byte-identical repair), so
  // the metadata needed no update and a second pass finds nothing missing.
  for (size_t u = 0; u < lost.size(); ++u) {
    auto restored = clouds_[lost[u].first]->PeekLatest(lost[u].second);
    ASSERT_TRUE(restored.ok()) << "unit " << u;
    const unsigned shard = static_cast<unsigned>(
        v.stripe_units[u].cloud_shard[lost[u].first]);
    EXPECT_EQ(Sha256::Hash(*restored), v.stripe_units[u].shard_hashes[shard]);
  }
  auto second = client.ScrubUnit("f");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->objects_missing, 0u);
  EXPECT_TRUE(second->fully_redundant);
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
}

TEST_F(DepSkyTest, ScrubRelocatesShardWhenHolderStaysDown) {
  auto client = MakeClient("alice");
  Bytes data = Rng(23).RandomBytes(5000);
  const std::string hash = ContentHash(data);
  ASSERT_TRUE(client.WriteVersion("f", hash, data).ok());

  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion v = md->versions.back();
  ASSERT_EQ(v.stripe_units.size(), 1u);
  const std::vector<int32_t>& cloud_shard = v.stripe_units[0].cloud_shard;
  // Preferred quorums leave one cloud without a shard — the relocation target.
  int spare = -1;
  unsigned holder = 0;
  for (unsigned c = 0; c < kClouds; ++c) {
    if (cloud_shard[c] < 0) {
      spare = static_cast<int>(c);
    } else {
      holder = c;
    }
  }
  ASSERT_GE(spare, 0);

  // The holder loses the object *and* stays unreachable: in-place repair is
  // impossible, so the scrubber must move the shard to the spare cloud and
  // update the metadata map.
  ASSERT_TRUE(clouds_[holder]
                  ->Delete({clouds_[holder]->provider_name() + ":alice"},
                           DepSkyClient::ValueKey("f", v, 0))
                  .ok());
  clouds_[holder]->faults().SetUnavailable(true);

  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_missing, 1u);
  EXPECT_EQ(report->objects_repaired, 0u);
  EXPECT_EQ(report->objects_relocated, 1u);
  EXPECT_EQ(report->repair_failures, 0u);

  auto after = client.ReadMetadata("f");
  ASSERT_TRUE(after.ok());
  const DepSkyStripeUnit& moved = after->versions.back().stripe_units[0];
  EXPECT_EQ(moved.cloud_shard[holder], -1);
  EXPECT_EQ(moved.cloud_shard[static_cast<unsigned>(spare)],
            cloud_shard[holder]);

  // Readable with the dead cloud still dead.
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
  clouds_[holder]->faults().SetUnavailable(false);
}

// Nothing refreshes a published record after a scrub relocation. Two
// relocations leave the record with one valid holder: the first moves a
// shard to the spare cloud, the second moves another onto the first
// relocation's source, which the record still lists for its old shard.
// Every record read then pays one fallback, and still returns the bytes.
TEST_F(DepSkyTest, RecordFallsBackAfterScrubRelocations) {
  auto client = MakeClient("alice");
  Bytes data = Rng(24).RandomBytes(5000);
  const std::string hash = ContentHash(data);
  auto record = client.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->stripe_units.size(), 1u);
  const std::vector<int32_t>& cloud_shard = record->stripe_units[0].cloud_shard;
  std::vector<unsigned> holders;
  for (unsigned c = 0; c < kClouds; ++c) {
    if (cloud_shard[c] >= 0) {
      holders.push_back(c);
    }
  }
  ASSERT_EQ(holders.size(), 3u);

  auto creds = [&](unsigned c) {
    return CloudCredentials{clouds_[c]->provider_name() + ":alice"};
  };
  auto relocate = [&](unsigned holder) {
    ASSERT_TRUE(clouds_[holder]
                    ->Delete(creds(holder),
                             DepSkyClient::ValueKey("f", *record, 0))
                    .ok());
    clouds_[holder]->faults().SetUnavailable(true);
    auto report = client.ScrubUnit("f");
    clouds_[holder]->faults().SetUnavailable(false);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->objects_relocated, 1u);
    // The holder missed the scrub's metadata PUT; give it the new copy, as
    // the unit's next metadata write would.
    const std::string key = DepSkyClient::MetadataKey("f");
    auto fresh = clouds_[holders[2]]->Get(creds(holders[2]), key);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(clouds_[holder]->Put(creds(holder), key, *fresh).ok());
  };
  relocate(holders[0]);
  relocate(holders[1]);
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->versions.back().stripe_units[0].cloud_shard[holders[0]],
            cloud_shard[holders[1]]);

  EXPECT_EQ(*client.ReadVersion("f", *record), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 1u);
  EXPECT_EQ(*client.ReadVersion("f", *record), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 2u);
  // The metadata's current holder map reads without one.
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 2u);
}

// Fetch and scrub code with the client's own n, k and mode, so a metadata
// copy written under another mode is skipped, not decoded with the wrong
// coding: the reader can neither read nor extend the unit.
TEST_F(DepSkyTest, MetadataOfAnotherModeIsSkipped) {
  auto writer = MakeClient("alice", DepSkyMode::kReplication);
  Bytes data = ToBytes("replicated");
  const std::string hash = ContentHash(data);
  auto record = writer.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok());

  auto reader = MakeClient("alice");
  EXPECT_EQ(reader.ReadByHash("f", hash).status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(reader.ReadLatest("f").status().code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(reader.ReadVersion("f", *record).status().code(),
            ErrorCode::kFailedPrecondition);
  // Not "no metadata": the write must not start a fresh history over it.
  Bytes other = ToBytes("erasure-coded");
  EXPECT_EQ(reader.WriteVersion("f", ContentHash(other), other)
                .status()
                .code(),
            ErrorCode::kFailedPrecondition);
  auto read = writer.ReadByHash("f", hash);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

// ---------------------------------------------------------------------------
// Overlapped writes: fresh object names, the metadata read settling after
// the shard PUT wave, and orphan reclamation.
// ---------------------------------------------------------------------------

// Forwards to a SimulatedCloud, but answers every GET of a metadata object
// with UNAVAILABLE while `blind` is set: the unit's metadata cannot be read
// from this cloud, while its value objects can still be written.
class MetadataBlindStore : public ObjectStore {
 public:
  explicit MetadataBlindStore(SimulatedCloud* cloud) : cloud_(cloud) {}

  bool blind = false;

  Status Put(const CloudCredentials& creds, const std::string& key,
             std::shared_ptr<const Bytes> data) override {
    return cloud_->Put(creds, key, std::move(data));
  }
  Result<Bytes> Get(const CloudCredentials& creds,
                    const std::string& key) override {
    const bool metadata =
        key.size() >= 3 && key.compare(key.size() - 3, 3, "/md") == 0;
    if (blind && metadata) {
      return UnavailableError("metadata unreadable at " + provider_name());
    }
    return cloud_->Get(creds, key);
  }
  Status Delete(const CloudCredentials& creds,
                const std::string& key) override {
    return cloud_->Delete(creds, key);
  }
  Result<std::vector<ObjectInfo>> List(const CloudCredentials& creds,
                                       const std::string& prefix) override {
    return cloud_->List(creds, prefix);
  }
  Status SetAcl(const CloudCredentials& creds, const std::string& key,
                const CanonicalId& grantee,
                ObjectPermissions permissions) override {
    return cloud_->SetAcl(creds, key, grantee, permissions);
  }
  Result<ObjectAcl> GetAcl(const CloudCredentials& creds,
                           const std::string& key) override {
    return cloud_->GetAcl(creds, key);
  }
  const std::string& provider_name() const override {
    return cloud_->provider_name();
  }

 private:
  SimulatedCloud* cloud_;
};

class DepSkyBlindMetadataTest : public DepSkyTest {
 protected:
  DepSkyBlindMetadataTest() {
    for (auto& cloud : clouds_) {
      stores_.push_back(std::make_unique<MetadataBlindStore>(cloud.get()));
    }
  }

  DepSkyClient MakeBlindableClient() {
    DepSkyConfig config;
    config.f = 1;
    config.auth_key = ToBytes("deployment-auth-key");
    std::vector<DepSkyCloud> set;
    for (auto& store : stores_) {
      set.push_back(DepSkyCloud{store.get(),
                                {store->provider_name() + ":alice"}});
    }
    return DepSkyClient(env_.get(), std::move(set), config, 99);
  }

  // Objects stored under du/<unit>/ on each cloud.
  std::vector<std::vector<std::string>> ListUnit(const std::string& unit) {
    std::vector<std::vector<std::string>> keys;
    for (auto& cloud : clouds_) {
      cloud->Quiesce();
      auto listed =
          cloud->List({cloud->provider_name() + ":alice"}, "du/" + unit + "/");
      EXPECT_TRUE(listed.ok());
      keys.emplace_back();
      for (const auto& info : *listed) {
        keys.back().push_back(info.key);
      }
    }
    return keys;
  }

  std::vector<std::unique_ptr<MetadataBlindStore>> stores_;
};

// The metadata read runs alongside the shard PUT wave; if it cannot reach
// n-f clouds the write fails with its status, after the shards were stored,
// and publishes nothing.
TEST_F(DepSkyBlindMetadataTest, UnreadableMetadataQuorumFailsTheWrite) {
  auto client = MakeBlindableClient();
  Bytes v1 = ToBytes("published");
  Bytes v2 = ToBytes("never published");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());

  stores_[0]->blind = true;
  stores_[1]->blind = true;
  auto failed = client.WriteVersion("f", ContentHash(v2), v2);
  EXPECT_EQ(failed.status().code(), ErrorCode::kUnavailable);
  stores_[0]->blind = false;
  stores_[1]->blind = false;

  // No metadata copy lists the failed version, and the history is intact.
  for (auto& cloud : clouds_) {
    cloud->Quiesce();
    auto raw = cloud->PeekLatest(DepSkyClient::MetadataKey("f"));
    ASSERT_TRUE(raw.ok());
    auto md = DepSkyMetadata::Decode(*raw, ToBytes("deployment-auth-key"));
    ASSERT_TRUE(md.ok());
    EXPECT_EQ(md->FindByHash(ContentHash(v2)), nullptr);
    ASSERT_EQ(md->versions.size(), 1u);
  }
  EXPECT_EQ(*client.ReadLatest("f"), v1);
  // The next write numbers itself after the published history.
  auto next = client.WriteVersion("f", ContentHash(v2), v2);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->version, 2u);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
}

// The read side of the same rule: with two of four clouds unable to serve
// the metadata, no read may claim a latest version or that a hash is
// absent, but a copy that lists the anchored hash still settles a read by
// hash.
TEST_F(DepSkyBlindMetadataTest, UnreadableMetadataQuorumFailsUnanchoredReads) {
  auto client = MakeBlindableClient();
  Bytes v1 = ToBytes("anchored content");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());

  stores_[0]->blind = true;
  stores_[1]->blind = true;
  EXPECT_EQ(client.ReadLatest("f").status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(client.ReadMetadata("f").status().code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(client.ReadByHash("f", ContentHash(ToBytes("unknown")))
                .status()
                .code(),
            ErrorCode::kUnavailable);

  auto anchored = client.ReadByHash("f", ContentHash(v1));
  ASSERT_TRUE(anchored.ok()) << anchored.status().ToString();
  EXPECT_EQ(*anchored, v1);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
}

// The failed write above leaves its shards behind under a name no version
// record holds. DeleteUnit lists the unit's prefix, so it reclaims them too.
TEST_F(DepSkyBlindMetadataTest, DeleteUnitReclaimsOrphansOfFailedWrites) {
  auto client = MakeBlindableClient();
  Bytes v1 = ToBytes("published");
  Bytes v2 = ToBytes("orphaned");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  stores_[0]->blind = true;
  stores_[1]->blind = true;
  ASSERT_FALSE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  stores_[0]->blind = false;
  stores_[1]->blind = false;

  // Metadata + one published object + one orphan on each shard holder.
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const std::string published =
      DepSkyClient::ValueKey("f", md->versions[0], 0);
  size_t orphans = 0;
  for (const auto& keys : ListUnit("f")) {
    for (const auto& key : keys) {
      orphans += (key != published && key != DepSkyClient::MetadataKey("f"));
    }
  }
  EXPECT_EQ(orphans, 3u);

  ASSERT_TRUE(client.DeleteUnit("f").ok());
  for (const auto& keys : ListUnit("f")) {
    EXPECT_TRUE(keys.empty());
  }
}

// Two writers that both read the metadata before the other's version is
// visible pick the same version number. Their objects carry different
// names, so neither overwrites the other's shards, and the second version
// reads back as soon as one cloud shows its metadata — inside the clouds'
// consistency window, when an overwritten object would still serve the
// first writer's bytes and fail its hash check.
TEST_F(DepSkyTest, SameVersionNumberWritersKeepSeparateObjects) {
  // Clouds 0-2 (the preferred quorum) make overwrites visible after 5 s;
  // cloud 3 at once.
  std::vector<std::unique_ptr<SimulatedCloud>> windowed;
  std::vector<std::unique_ptr<MetadataBlindStore>> stores;
  for (unsigned i = 0; i < kClouds; ++i) {
    CloudProfile profile;
    profile.name = "w" + std::to_string(i);
    profile.consistency_window_base = i < 3 ? 5 * kSecond : 0;
    windowed.push_back(
        std::make_unique<SimulatedCloud>(profile, env_.get(), 70 + i));
    stores.push_back(std::make_unique<MetadataBlindStore>(windowed[i].get()));
  }
  // Two clients of one user built with one seed, as two agents of a user
  // may be: only the object-id salt keeps their names apart.
  auto make = [&] {
    DepSkyConfig config;
    config.f = 1;
    config.auth_key = ToBytes("deployment-auth-key");
    std::vector<DepSkyCloud> set;
    for (auto& store : stores) {
      set.push_back(DepSkyCloud{store.get(), {"w:alice"}});
    }
    return std::make_unique<DepSkyClient>(env_.get(), std::move(set), config,
                                          1);
  };
  auto first = make();
  auto second = make();

  Bytes v1 = ToBytes("v1");
  Bytes a = ToBytes("first writer");
  Bytes b = ToBytes("second writer");
  ASSERT_TRUE(first->WriteVersion("f", ContentHash(v1), v1).ok());
  env_->Sleep(6 * kSecond);
  // The first writer's version 2 reaches clouds 0-2 only; its metadata there
  // stays invisible for the window.
  windowed[3]->faults().SetUnavailable(true);
  auto va = first->WriteVersion("f", ContentHash(a), a);
  windowed[3]->faults().SetUnavailable(false);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(va->version, 2u);
  windowed[0]->Quiesce();
  auto a_md = DepSkyMetadata::Decode(
      *windowed[0]->PeekLatest(DepSkyClient::MetadataKey("f")),
      ToBytes("deployment-auth-key"));
  ASSERT_TRUE(a_md.ok());
  const DepSkyVersion a_record = *a_md->FindByHash(ContentHash(a));
  ASSERT_EQ(a_record.stripe_units.size(), 1u);
  const DepSkyStripeUnit& a_unit = a_record.stripe_units[0];

  // Every visible copy still says version 1: the second writer also picks 2.
  auto vb = second->WriteVersion("f", ContentHash(b), b);
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(vb->version, 2u);

  // Only cloud 3's copy, which shows the second writer's metadata at once,
  // is readable: the anchored read accepts it and fetches the shards from
  // clouds 0-2, which still hide every overwrite.
  for (unsigned c = 0; c < 3; ++c) {
    stores[c]->blind = true;
  }
  auto read = second->ReadByHash("f", ContentHash(b));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, b);
  EXPECT_EQ(second->anchored_read_fallbacks(), 0u);
  for (unsigned c = 0; c < 3; ++c) {
    stores[c]->blind = false;
  }

  // After the window the first writer's objects are still its own.
  env_->Sleep(6 * kSecond);
  for (unsigned c = 0; c < kClouds; ++c) {
    windowed[c]->Quiesce();
    if (a_unit.cloud_shard[c] < 0) {
      continue;
    }
    auto stored =
        windowed[c]->PeekLatest(DepSkyClient::ValueKey("f", a_record, 0));
    ASSERT_TRUE(stored.ok()) << "cloud " << c;
    EXPECT_EQ(Sha256::Hash(*stored),
              a_unit.shard_hashes[a_unit.cloud_shard[c]])
        << "cloud " << c;
  }
}

TEST_F(DepSkyTest, ValueObjectsAreNamedByTheRecordedObjectId) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("one");
  Bytes v2 = ToBytes("two");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->versions.size(), 2u);
  EXPECT_NE(md->versions[0].object_id, md->versions[1].object_id);
  for (const auto& v : md->versions) {
    const std::string key = DepSkyClient::ValueKey("f", v, 0);
    EXPECT_EQ(key.rfind("du/f/o", 0), 0u) << key;
    EXPECT_EQ(key.substr(key.size() - 3), "/u0") << key;
    unsigned holders = 0;
    for (unsigned c = 0; c < kClouds; ++c) {
      holders += clouds_[c]->PeekLatest(key).ok() ? 1 : 0;
    }
    EXPECT_EQ(holders, 3u) << key;
  }
  // The id is authenticated: changing it breaks the HMAC.
  DepSkyMetadata tampered = *md;
  Bytes good = tampered.Encode(ToBytes("deployment-auth-key"));
  tampered.versions[0].object_id ^= 1;
  Bytes bad = tampered.Encode(ToBytes("deployment-auth-key"));
  ASSERT_EQ(good.size(), bad.size());
  // Splice the old authenticator onto the new body.
  Bytes spliced(bad.begin(), bad.end() - 32);
  spliced.insert(spliced.end(), good.end() - 32, good.end());
  EXPECT_EQ(DepSkyMetadata::Decode(spliced, ToBytes("deployment-auth-key"))
                .status()
                .code(),
            ErrorCode::kCorruption);
}

// The owner's ids come from the metadata read, which settles after the
// grantee's shard PUT wave: every acknowledged object must still carry the
// owner's ACL.
TEST_F(DepSkyTest, GranteeWriteLeavesEveryObjectReadableByOwner) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  Bytes data = ToBytes("shared");
  ASSERT_TRUE(alice.WriteVersion("doc", ContentHash(data), data).ok());
  DepSkyGrant grant;
  for (auto& cloud : clouds_) {
    grant.cloud_ids.push_back(cloud->provider_name() + ":bob");
  }
  grant.read = true;
  grant.write = true;
  ASSERT_TRUE(alice.SetGrant("doc", grant).ok());

  Bytes update = ToBytes("bob's update");
  ASSERT_TRUE(bob.WriteVersion("doc", ContentHash(update), update).ok());
  auto md = alice.ReadMetadata("doc");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion* written = md->FindByHash(ContentHash(update));
  ASSERT_NE(written, nullptr);
  ASSERT_EQ(written->stripe_units.size(), 1u);
  unsigned readable = 0;
  for (unsigned c = 0; c < kClouds; ++c) {
    if (written->stripe_units[0].cloud_shard[c] < 0) {
      continue;
    }
    clouds_[c]->Quiesce();
    auto object = clouds_[c]->Get({clouds_[c]->provider_name() + ":alice"},
                                  DepSkyClient::ValueKey("doc", *written, 0));
    ASSERT_TRUE(object.ok()) << "cloud " << c << ": "
                             << object.status().ToString();
    ++readable;
  }
  EXPECT_EQ(readable, 3u);
  EXPECT_EQ(*alice.ReadByHash("doc", ContentHash(update)), update);
}

// ---------------------------------------------------------------------------
// Write-behind metadata: StartWrite returns at the shard quorum, and the
// metadata PUT follows.
// ---------------------------------------------------------------------------

TEST_F(DepSkyTest, UnpublishedWriteNeverWritesItsMetadata) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("published");
  Bytes v2 = ToBytes("lost its publish");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  // The caller's anchor fails, so it never calls finish.
  auto write = client.StartWrite("f", ContentHash(v2), v2);
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  EXPECT_EQ(write->record.version, 2u);
  // The shards are stored: the record reads before any metadata lists it.
  EXPECT_EQ(*client.ReadVersion("f", write->record), v2);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->versions.size(), 1u);
  EXPECT_EQ(md->versions[0].content_hash, ContentHash(v1));
}

TEST_F(DepSkyTest, DroppedPredecessorMetadataIsListedByTheNextWriter) {
  auto first = MakeClient("alice");
  auto second = MakeClient("alice");  // another agent of the same user
  Bytes v1 = ToBytes("first writer");
  Bytes v2 = ToBytes("second writer");
  // The first writer published v1's record but crashed before its finish:
  // no cloud lists v1.
  auto w1 = first.StartWrite("f", ContentHash(v1), v1);
  ASSERT_TRUE(w1.ok());

  // The next writer, handed v1's record as its predecessor, numbers after
  // it and lists it, once v1's requests could no longer land.
  const VirtualTime started = env_->Now();
  auto w2 = second.StartWrite("f", ContentHash(v2), v2, nullptr, &w1->record);
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  EXPECT_EQ(w2->record.version, w1->record.version + 1);
  ASSERT_TRUE(w2->finish(std::nullopt).Get().ok());
  EXPECT_GE(env_->Now(), started + second.RequestBudget());
  EXPECT_EQ(second.predecessor_rereads(), 1u);
  EXPECT_EQ(second.predecessor_budget_waits(), 1u);
  auto md = second.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  ASSERT_EQ(md->versions.size(), 2u);
  EXPECT_EQ(md->versions[0].content_hash, ContentHash(v1));
  EXPECT_EQ(md->versions[1].content_hash, ContentHash(v2));

  auto reader = MakeClient("alice");
  EXPECT_EQ(*reader.ReadVersion("f", w1->record), v1);
  EXPECT_EQ(reader.anchored_read_fallbacks(), 0u);
  EXPECT_EQ(*reader.ReadByHash("f", ContentHash(v1)), v1);
}

TEST_F(DepSkyTest, GranteeReadsACrossUserWriteBeforeItsMetadata) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  Bytes data = ToBytes("alice's version");
  ASSERT_TRUE(alice.WriteVersion("doc", ContentHash(data), data).ok());
  DepSkyGrant to_bob;
  DepSkyGrant to_alice;
  for (auto& cloud : clouds_) {
    to_bob.cloud_ids.push_back(cloud->provider_name() + ":bob");
    to_alice.cloud_ids.push_back(cloud->provider_name() + ":alice");
  }
  to_bob.read = to_bob.write = true;
  to_alice.read = to_alice.write = true;
  ASSERT_TRUE(alice.SetGrant("doc", to_bob).ok());

  // Bob writes with the owner among its grants, as an SCFS agent does; its
  // metadata is held back, yet alice reads the new version at once.
  Bytes update = ToBytes("bob's update");
  const std::vector<DepSkyGrant> grants = {to_alice};
  auto write = bob.StartWrite("doc", ContentHash(update), update, &grants);
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  auto read = alice.ReadVersion("doc", write->record);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, update);
  EXPECT_EQ(alice.anchored_read_fallbacks(), 0u);
  ASSERT_TRUE(write->finish(std::nullopt).Get().ok());
  EXPECT_EQ(*alice.ReadLatest("doc"), update);
}

// Garbage collection of one version reads the metadata once: one GET per
// cloud, not two rounds (the backend no longer looks the version up first).
TEST_F(DepSkyTest, DeleteVersionByHashReadsMetadataOnce) {
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("deployment-auth-key");
  std::vector<DepSkyCloud> set;
  for (auto& cloud : clouds_) {
    set.push_back(DepSkyCloud{cloud.get(),
                              {cloud->provider_name() + ":alice"}});
  }
  DepSkyBackend backend(
      std::make_shared<DepSkyClient>(env_.get(), std::move(set), config, 5));
  Bytes v1 = ToBytes("old");
  Bytes v2 = ToBytes("new");
  ASSERT_TRUE(backend.WriteVersion("f", ContentHash(v1), v1, {}).ok());
  ASSERT_TRUE(backend.WriteVersion("f", ContentHash(v2), v2, {}).ok());

  auto gets = [&] {
    uint64_t total = 0;
    for (auto& cloud : clouds_) {
      cloud->Quiesce();
      total += cloud->costs().GrandTotals().gets;
    }
    return total;
  };
  const uint64_t before = gets();
  ASSERT_TRUE(backend.DeleteVersionByHash("f", ContentHash(v1)).ok());
  EXPECT_EQ(gets() - before, kClouds);
  EXPECT_EQ(backend.DeleteVersionByHash("f", ContentHash(v1)).code(),
            ErrorCode::kNotFound);
  auto versions = backend.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  EXPECT_EQ(versions->front().content_hash, ContentHash(v2));
}

// A locator DepSkyBackend cannot use — truncated, or the record of another
// version — costs one counted fallback to the hash, not a failed read.
TEST_F(DepSkyTest, UnusableLocatorFallsBackToTheHash) {
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("deployment-auth-key");
  std::vector<DepSkyCloud> set;
  for (auto& cloud : clouds_) {
    set.push_back(DepSkyCloud{cloud.get(),
                              {cloud->provider_name() + ":alice"}});
  }
  auto client =
      std::make_shared<DepSkyClient>(env_.get(), std::move(set), config, 6);
  DepSkyBackend backend(client);
  Bytes a = ToBytes("contents a");
  Bytes b = ToBytes("contents b");
  auto locator_a = backend.WriteVersion("f", ContentHash(a), a, {});
  auto locator_b = backend.WriteVersion("f", ContentHash(b), b, {});
  ASSERT_TRUE(locator_a.ok());
  ASSERT_TRUE(locator_b.ok());
  EXPECT_EQ(*backend.ReadByHash("f", ContentHash(a), *locator_a), a);
  EXPECT_EQ(client->anchored_read_fallbacks(), 0u);

  const Bytes truncated(locator_a->begin(), locator_a->end() - 1);
  auto read = backend.ReadByHash("f", ContentHash(a), truncated);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, a);
  EXPECT_EQ(client->anchored_read_fallbacks(), 1u);

  read = backend.ReadByHash("f", ContentHash(a), *locator_b);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, a);
  EXPECT_EQ(client->anchored_read_fallbacks(), 2u);
}

}  // namespace
}  // namespace scfs

// Records the largest request while scfs::track_allocations is set. Every
// unaligned allocation and deallocation function of this test binary is
// replaced, so each pair meets in malloc and free.
namespace {

void* TrackedAllocate(size_t size) noexcept {
  if (scfs::track_allocations.load(std::memory_order_relaxed)) {
    size_t seen = scfs::largest_allocation.load(std::memory_order_relaxed);
    while (size > seen && !scfs::largest_allocation.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* TrackedAllocateOrThrow(size_t size) {
  if (void* p = TrackedAllocate(size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t size) { return TrackedAllocateOrThrow(size); }
void* operator new[](size_t size) { return TrackedAllocateOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return TrackedAllocate(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return TrackedAllocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
