// Tests for the DepSky cloud-of-clouds protocols: self-certifying shard
// headers, write/read quorums, read-by-hash, confidentiality (no single cloud
// holds the plaintext), corruption/outage/byzantine tolerance, preferred
// quorums, version GC, cross-account sharing grants, and fresh object names.

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

  // The key of unit `u`'s shard at `cloud`, as the record places it.
  static std::string KeyAt(const std::string& unit, const DepSkyVersion& v,
                           size_t u, unsigned cloud) {
    return DepSkyClient::ValueKey(
        unit, v, u, static_cast<unsigned>(v.stripe_units[u].cloud_shard[cloud]));
  }

  CloudCredentials Creds(unsigned cloud, const std::string& user = "alice") {
    return {clouds_[cloud]->provider_name() + ":" + user};
  }

  // Re-authenticates every stored header of unit `u` after `edit`, in
  // place: what a writer holding the deployment key could store.
  void RewriteHeaders(const std::string& unit, const DepSkyVersion& v,
                      size_t u,
                      const std::function<void(DepSkyShardHeader*)>& edit) {
    for (unsigned c = 0; c < kClouds; ++c) {
      if (v.stripe_units[u].cloud_shard[c] < 0) {
        continue;
      }
      const std::string key = KeyAt(unit, v, u, c);
      auto stored = clouds_[c]->PeekLatest(key);
      ASSERT_TRUE(stored.ok());
      size_t offset = 0;
      auto header = DepSkyShardHeader::Read(
          *stored, unit, ToBytes("deployment-auth-key"), &offset);
      ASSERT_TRUE(header.ok()) << header.status().ToString();
      edit(&*header);
      Bytes rewritten(header->EncodedSize());
      header->WriteTo(unit, ToBytes("deployment-auth-key"),
                      ByteSpan(rewritten));
      rewritten.insert(rewritten.end(), stored->begin() + offset,
                       stored->end());
      ASSERT_TRUE(clouds_[c]->Delete(Creds(c), key).ok());
      ASSERT_TRUE(clouds_[c]->Put(Creds(c), key, rewritten).ok());
    }
  }

  std::unique_ptr<Environment> env_;
  std::vector<std::unique_ptr<SimulatedCloud>> clouds_;
};

// A header with every field set, for unit 1 of a three-unit version.
DepSkyShardHeader SampleHeader() {
  DepSkyShardHeader h;
  h.n = 4;
  h.k = 2;
  h.mode = DepSkyMode::kSecretSharing;
  h.version = 3;
  h.object_id = 0x0123456789abcdefULL;
  h.content_hash = "abcd";
  h.size = 9000;
  h.nonce = Bytes(12, 9);
  h.stripe_unit_size = 4096;
  h.unit_index = 1;
  h.shard_index = 2;
  h.unit_hash = Bytes(32, 7);
  h.shard_hashes = {Bytes(32, 1), Bytes(32, 2), Bytes(32, 3), Bytes(32, 4)};
  h.acls.owner_ids = {"a", "b", "c", "d"};
  DepSkyGrant grant;
  grant.cloud_ids = {"u0", "u1", "u2", "u3"};
  grant.read = true;
  h.acls.grants.push_back(grant);
  return h;
}

TEST_F(DepSkyTest, ShardHeaderRoundTrip) {
  const DepSkyShardHeader h = SampleHeader();
  const Bytes key = ToBytes("k");
  // The header goes in front of a value object; the reader finds the value
  // object where the header ends, authenticated or not.
  Bytes stored = DepSkyValueObject::EncodeParts(ToBytes("shard"), 3,
                                                ToBytes("share"),
                                                h.EncodedSize());
  h.WriteTo("f", key, ByteSpan(stored).first(h.EncodedSize()));
  size_t offset = 0;
  auto decoded = DepSkyShardHeader::Read(stored, "f", key, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(offset, h.EncodedSize());
  EXPECT_EQ(*DepSkyShardHeader::ValueOffset(stored), offset);
  EXPECT_EQ(decoded->version, 3u);
  EXPECT_EQ(decoded->object_id, h.object_id);
  EXPECT_EQ(decoded->content_hash, "abcd");
  EXPECT_EQ(decoded->size, 9000u);
  EXPECT_EQ(decoded->nonce, h.nonce);
  EXPECT_EQ(decoded->unit_index, 1u);
  EXPECT_EQ(decoded->shard_index, 2u);
  EXPECT_EQ(decoded->unit_hash, h.unit_hash);
  EXPECT_EQ(decoded->shard_hashes, h.shard_hashes);
  EXPECT_EQ(decoded->acls.owner_ids[2], "c");
  ASSERT_EQ(decoded->acls.grants.size(), 1u);
  EXPECT_TRUE(decoded->acls.grants[0].read);
  EXPECT_FALSE(decoded->acls.grants[0].write);
  auto value = DepSkyValueObject::Decode(ConstByteSpan(stored).subspan(offset));
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->shard, ToBytes("shard"));
  EXPECT_EQ(value->share_index, 3u);

  // The size depends on neither the shard index nor the hash values.
  DepSkyShardHeader other = h;
  other.shard_index = 0;
  other.shard_hashes.assign(4, Bytes(32, 0));
  EXPECT_EQ(other.EncodedSize(), h.EncodedSize());
}

TEST_F(DepSkyTest, ShardHeaderAndGrantObjectRejectTampering) {
  const DepSkyShardHeader h = SampleHeader();
  const Bytes key = ToBytes("k");
  Bytes stored(h.EncodedSize());
  h.WriteTo("f", key, ByteSpan(stored));
  size_t offset = 0;
  ASSERT_TRUE(DepSkyShardHeader::Read(stored, "f", key, &offset).ok());
  // Another key, another unit, or any flipped bit fails the HMAC.
  EXPECT_EQ(DepSkyShardHeader::Read(stored, "f", ToBytes("other"), &offset)
                .status()
                .code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(DepSkyShardHeader::Read(stored, "g", key, &offset).status().code(),
            ErrorCode::kCorruption);
  for (size_t i : {size_t{6}, stored.size() / 2, stored.size() - 1}) {
    Bytes tampered = stored;
    tampered[i] ^= 0x01;
    EXPECT_EQ(DepSkyShardHeader::Read(tampered, "f", key, &offset)
                  .status()
                  .code(),
              ErrorCode::kCorruption)
        << "byte " << i;
  }
  EXPECT_EQ(DepSkyShardHeader::ValueOffset(Bytes(3, 0)).status().code(),
            ErrorCode::kCorruption);

  DepSkyGrants grants;
  grants.sequence = 4;
  grants.owner_ids = h.acls.owner_ids;
  grants.grants = h.acls.grants;
  const Bytes encoded = grants.Encode("f", key);
  auto decoded = DepSkyGrants::Decode(encoded, "f", key);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sequence, 4u);
  EXPECT_EQ(decoded->owner_ids, grants.owner_ids);
  ASSERT_EQ(decoded->grants.size(), 1u);
  EXPECT_EQ(DepSkyGrants::Decode(encoded, "g", key).status().code(),
            ErrorCode::kCorruption);
  Bytes tampered = encoded;
  tampered[8] ^= 0x01;
  EXPECT_EQ(DepSkyGrants::Decode(tampered, "f", key).status().code(),
            ErrorCode::kCorruption);
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

  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ((*versions)[0].version, 1u);
  EXPECT_EQ((*versions)[1].version, 2u);

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
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/v");
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
    // The write returns at a quorum; let the last shard PUT land.
    cloud->Quiesce();
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/v");
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
  // 3 shards of |F|/2, each behind its small header: ~1.5x (Figure 11c).
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

// Byzantine clouds against the headers: a cloud that lists forged names,
// serves a header with a bad HMAC, serves an old object under a new name,
// or hides objects from its LIST cannot change what a reader takes as a
// version.

TEST_F(DepSkyTest, ForgedNamesListedByACloudAreIgnored) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("v1");
  auto record = client.WriteVersion("f", ContentHash(v1), v1);
  ASSERT_TRUE(record.ok());
  // The spare cloud lists a much newer "version" it made up, with and
  // without a header, and a name with the hash of content never written.
  DepSkyVersion forged = *record;
  forged.version = 0xff;
  forged.object_id ^= 1;
  ASSERT_TRUE(clouds_[3]
                  ->Put(Creds(3), DepSkyClient::ValueKey("f", forged, 0, 3),
                        ToBytes("no header at all"))
                  .ok());
  forged.version = 0xfe;
  forged.content_hash = ContentHash(ToBytes("never written"));
  ASSERT_TRUE(clouds_[3]
                  ->Put(Creds(3), DepSkyClient::ValueKey("f", forged, 0, 3),
                        *clouds_[0]->PeekLatest(KeyAt("f", *record, 0, 0)))
                  .ok());

  EXPECT_EQ(*client.ReadLatest("f"), v1);
  EXPECT_EQ(client.ReadByHash("f", forged.content_hash).status().code(),
            ErrorCode::kNotFound);
  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  EXPECT_EQ(versions->front().object_id, record->object_id);
  // An unanchored writer does not number itself after a forged name.
  Bytes v2 = ToBytes("v2");
  auto next = client.WriteVersion("f", ContentHash(v2), v2);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->version, 2u);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
}

TEST_F(DepSkyTest, HeaderWithABadHmacIsPassedOver) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2, the latest");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  auto record = client.WriteVersion("f", ContentHash(v2), v2);
  ASSERT_TRUE(record.ok());
  // Cloud 0, the first holder a reader asks, serves v2 behind a header
  // whose HMAC fails: resolving v2 falls through to the next holder.
  ASSERT_GE(record->stripe_units[0].cloud_shard[0], 0);
  const std::string key = KeyAt("f", *record, 0, 0);
  Bytes stored = *clouds_[0]->PeekLatest(key);
  stored[8] ^= 0x01;
  ASSERT_TRUE(clouds_[0]->Delete(Creds(0), key).ok());
  ASSERT_TRUE(clouds_[0]->Put(Creds(0), key, stored).ok());
  EXPECT_EQ(*client.ReadLatest("f"), v2);
  auto read = client.ReadByHash("f", ContentHash(v2));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, v2);
  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 2u);
}

TEST_F(DepSkyTest, OldObjectServedUnderANewNameFailsItsHeader) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  auto old_record = client.WriteVersion("f", ContentHash(v1), v1);
  ASSERT_TRUE(old_record.ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  // Cloud 0 replays v1's authentic object as a newer version, and as v1
  // under another object id: its header names version 1 and v1's id.
  DepSkyVersion replay = *old_record;
  const Bytes old_object = *clouds_[0]->PeekLatest(KeyAt("f", replay, 0, 0));
  for (uint64_t bump : {uint64_t{7}, uint64_t{0}}) {
    DepSkyVersion renamed = replay;
    renamed.version += bump;
    renamed.object_id += 1;
    ASSERT_TRUE(clouds_[0]
                    ->Put(Creds(0),
                          KeyAt("f", renamed, 0, 0), old_object)
                    .ok());
  }
  EXPECT_EQ(*client.ReadLatest("f"), v2);
  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ(versions->back().content_hash, ContentHash(v2));
}

// Forwards to a SimulatedCloud, but while `blind_list` is set answers every
// LIST with UNAVAILABLE, drops the names `hidden` matches from the answers
// it gives, and adds `phantoms`, names it holds no object for.
class FilteringStore : public ObjectStore {
 public:
  explicit FilteringStore(SimulatedCloud* cloud) : cloud_(cloud) {}

  bool blind_list = false;
  std::function<bool(const std::string&)> hidden;
  std::vector<std::string> phantoms;

  Status Put(const CloudCredentials& creds, const std::string& key,
             std::shared_ptr<const Bytes> data) override {
    return cloud_->Put(creds, key, std::move(data));
  }
  Result<Bytes> Get(const CloudCredentials& creds,
                    const std::string& key) override {
    return cloud_->Get(creds, key);
  }
  Status Delete(const CloudCredentials& creds,
                const std::string& key) override {
    return cloud_->Delete(creds, key);
  }
  Result<std::vector<ObjectInfo>> List(const CloudCredentials& creds,
                                       const std::string& prefix) override {
    if (blind_list) {
      return UnavailableError("LIST unanswered at " + provider_name());
    }
    ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                     cloud_->List(creds, prefix));
    if (hidden) {
      objects.erase(std::remove_if(objects.begin(), objects.end(),
                                   [&](const ObjectInfo& object) {
                                     return hidden(object.key);
                                   }),
                    objects.end());
    }
    for (const std::string& key : phantoms) {
      ObjectInfo info;
      info.key = key;
      objects.push_back(info);
    }
    return objects;
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

class DepSkyFilteredTest : public DepSkyTest {
 protected:
  DepSkyFilteredTest() {
    for (auto& cloud : clouds_) {
      stores_.push_back(std::make_unique<FilteringStore>(cloud.get()));
    }
  }

  DepSkyClient MakeFilteredClient() {
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

  std::vector<std::unique_ptr<FilteringStore>> stores_;
};

// A Byzantine holder hides v2 from its LIST, and the other holder that
// would list it does not answer: one answering cloud lists v2. Its header
// authenticates, and the silent holder is asked for the shard of its own
// index, so the reader still gets v2, not v1.
TEST_F(DepSkyFilteredTest, CloudHidingObjectsFromListIsOutvoted) {
  auto client = MakeFilteredClient();
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2, the latest");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  auto record = client.WriteVersion("f", ContentHash(v2), v2);
  ASSERT_TRUE(record.ok());
  const std::string hidden_hash = ContentHash(v2);
  stores_[0]->hidden = [hidden_hash](const std::string& key) {
    return key.find(hidden_hash) != std::string::npos;
  };
  stores_[2]->blind_list = true;
  EXPECT_EQ(*client.ReadLatest("f"), v2);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
}

// A cloud lists a much newer name it holds no object for: no header can
// certify it, so readers pass it over and writers do not number after it.
TEST_F(DepSkyFilteredTest, ListedNameWithoutAnObjectIsIgnored) {
  auto client = MakeFilteredClient();
  Bytes v1 = ToBytes("v1");
  auto record = client.WriteVersion("f", ContentHash(v1), v1);
  ASSERT_TRUE(record.ok());
  DepSkyVersion phantom = *record;
  phantom.version = 0xff;
  phantom.object_id ^= 1;
  stores_[0]->phantoms = {DepSkyClient::ValueKey("f", phantom, 0, 0)};

  EXPECT_EQ(*client.ReadLatest("f"), v1);
  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 1u);
  Bytes v2 = ToBytes("v2");
  auto next = client.WriteVersion("f", ContentHash(v2), v2);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->version, 2u);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
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

  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  EXPECT_EQ(versions->front().version, 2u);
  EXPECT_EQ(client.ReadByHash("f", ContentHash(v1)).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
}

TEST_F(DepSkyTest, DeleteUnitRemovesEverything) {
  auto client = MakeClient("alice");
  Bytes data = ToBytes("gone soon");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  ASSERT_TRUE(client.DeleteUnit("f").ok());
  EXPECT_EQ(client.ReadLatest("f").status().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(client.ListVersions("f")->empty());
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

// Objects are never overwritten, and the clouds make new keys visible at
// once: a version reads back as soon as its write returns, even from clouds
// whose overwrites take seconds to show.
TEST_F(DepSkyTest, FreshNamesAreReadableInsideTheConsistencyWindow) {
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
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
  EXPECT_EQ(*client.ReadAt("f", ContentHash(v2), 0, 2), v2);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v1)), v1);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
}

// ---------------------------------------------------------------------------
// Units: every version is a list of units, at least one
// ---------------------------------------------------------------------------

TEST_F(DepSkyTest, StripedWriteReadRoundTrip) {
  auto client = MakeStripedClient("alice");
  Bytes data = Rng(77).RandomBytes(10 * 1024 + 37);  // 11 units, last partial
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());

  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  const DepSkyVersion& v = versions->back();
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
            clouds_[c]->PeekLatest(KeyAt(unit, *record, 0, c)).ok());
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
      auto stored = clouds_[c]->PeekLatest(KeyAt("f", *record, u, c));
      ASSERT_TRUE(stored.ok());
      auto object = DepSkyValueObject::Decode(ConstByteSpan(*stored).subspan(
          *DepSkyShardHeader::ValueOffset(*stored)));
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
  // Headers claiming the same, authentic: a writer holding the key made
  // them, and the record a reader rebuilds from them claims it too.
  RewriteHeaders("f", *record, 0, [&](DepSkyShardHeader* header) {
    header->size = huge.size;
    header->stripe_unit_size = huge.stripe_unit_size;
  });

  largest_allocation = 0;
  track_allocations = true;
  auto whole = client.ReadLatest("f");
  auto range = client.ReadAt("f", hash, 0, size_t{1} << 40);
  track_allocations = false;
  EXPECT_EQ(whole.status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(range.status().code(), ErrorCode::kCorruption);
  // Nothing near the claim was allocated: the largest buffer is of the
  // order of the fetched shards.
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

  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  const DepSkyVersion& v = versions->back();
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
    ASSERT_TRUE(
        clouds_[victim]->Delete(Creds(victim), KeyAt("f", v, u, victim)).ok());
  }
  auto read = client.ReadByHash("f", hash);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
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
  auto record = client.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok());
  const DepSkyVersion v = *record;
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
    const std::string key = KeyAt("f", v, u, victim);
    ASSERT_TRUE(clouds_[victim]->Delete(Creds(victim), key).ok());
    lost.emplace_back(victim, key);
  }

  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_missing, v.stripe_units.size());
  EXPECT_EQ(report->objects_repaired, v.stripe_units.size());
  EXPECT_EQ(report->objects_relocated, 0u);
  EXPECT_EQ(report->repair_failures, 0u);

  // The rebuilt objects hash-match the record (byte-identical repair) under
  // their old names, so the record still names them and a second pass finds
  // nothing missing.
  for (size_t u = 0; u < lost.size(); ++u) {
    auto restored = clouds_[lost[u].first]->PeekLatest(lost[u].second);
    ASSERT_TRUE(restored.ok()) << "unit " << u;
    const unsigned shard = static_cast<unsigned>(
        v.stripe_units[u].cloud_shard[lost[u].first]);
    EXPECT_EQ(Sha256::Hash(ConstByteSpan(*restored).subspan(
                  *DepSkyShardHeader::ValueOffset(*restored))),
              v.stripe_units[u].shard_hashes[shard]);
  }
  EXPECT_EQ(*client.ReadVersion("f", v), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
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
  auto record = client.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok());
  const DepSkyVersion v = *record;
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
  // impossible, so the scrubber must move the shard to the spare cloud,
  // under the same name, where the next LIST finds it.
  ASSERT_TRUE(
      clouds_[holder]->Delete(Creds(holder), KeyAt("f", v, 0, holder)).ok());
  clouds_[holder]->faults().SetUnavailable(true);

  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_missing, 1u);
  EXPECT_EQ(report->objects_repaired, 0u);
  EXPECT_EQ(report->objects_relocated, 1u);
  EXPECT_EQ(report->repair_failures, 0u);

  auto after = client.ListVersions("f");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  const DepSkyStripeUnit& moved = after->back().stripe_units[0];
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
// Every record read then pays one fallback to the LIST, and still returns
// the bytes. The filtering stores answer inline, in cloud order, so which
// answer settles a LIST is fixed.
TEST_F(DepSkyFilteredTest, RecordFallsBackAfterScrubRelocations) {
  auto client = MakeFilteredClient();
  Bytes data = Rng(24).RandomBytes(5000);
  const std::string hash = ContentHash(data);
  auto record = client.WriteVersion("f", hash, data);
  ASSERT_TRUE(record.ok());
  ASSERT_EQ(record->stripe_units.size(), 1u);
  const std::vector<int32_t>& cloud_shard = record->stripe_units[0].cloud_shard;
  ASSERT_EQ(cloud_shard, (std::vector<int32_t>{0, 1, 2, -1}));

  auto relocate = [&](unsigned holder) {
    ASSERT_TRUE(clouds_[holder]
                    ->Delete(Creds(holder), KeyAt("f", *record, 0, holder))
                    .ok());
    clouds_[holder]->faults().SetUnavailable(true);
    auto report = client.ScrubUnit("f");
    clouds_[holder]->faults().SetUnavailable(false);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->objects_relocated, 1u);
  };
  relocate(0);  // shard 0 to cloud 3
  relocate(1);  // shard 1 to cloud 0
  auto listed = client.ListVersions("f");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ(listed->back().stripe_units[0].cloud_shard,
            (std::vector<int32_t>{1, -1, 2, 0}));

  // Cloud 0's answer settles the LIST: it lists shard 1, and cloud 2, which
  // has not answered, is asked for shard 2 of its own index.
  EXPECT_EQ(*client.ReadVersion("f", *record), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 1u);
  EXPECT_EQ(*client.ReadVersion("f", *record), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 2u);
  // The LIST's current holder map reads without one.
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
  EXPECT_EQ(*client.ReadLatest("f"), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 2u);

  // With cloud 0 silent, cloud 2's answer settles the LIST, and cloud 0 is
  // guessed to hold shard 0 of its own index, which moved: the read costs
  // one more LIST, of n-f answers, counted as a fallback.
  auto lists = [&] {
    clouds_[1]->Quiesce();
    return clouds_[1]->costs().GrandTotals().lists;
  };
  const uint64_t lists_before = lists();
  stores_[0]->blind_list = true;
  EXPECT_EQ(*client.ReadByHash("f", hash), data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 3u);
  EXPECT_EQ(lists() - lists_before, 2u);
}

// Fetch and scrub code with the client's own n, k and mode, so a version
// whose headers say another mode is not decoded with the wrong coding: the
// reader cannot read it, and a write numbers itself after it.
TEST_F(DepSkyTest, VersionOfAnotherModeIsNotRead) {
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
  // Not "no versions": the write does not start a fresh history over it.
  Bytes other = ToBytes("erasure-coded");
  auto next = reader.WriteVersion("f", ContentHash(other), other);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->version, record->version + 1);
  auto read = writer.ReadByHash("f", hash);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

// ---------------------------------------------------------------------------
// Anchored and unanchored writes: the LIST, fresh object names, and orphan
// reclamation.
// ---------------------------------------------------------------------------

// Cloud requests of one kind summed over the clouds, once every request in
// flight has landed.
UsageTotals CloudUsage(std::vector<std::unique_ptr<SimulatedCloud>>& clouds) {
  UsageTotals total;
  for (auto& cloud : clouds) {
    cloud->Quiesce();
    const UsageTotals t = cloud->costs().GrandTotals();
    total.puts += t.puts;
    total.gets += t.gets;
    total.lists += t.lists;
  }
  return total;
}

// An anchored write is the shard wave alone: n-f PUTs, no GET, no LIST.
// An unanchored one adds one LIST per cloud.
TEST_F(DepSkyTest, AnchoredWriteMakesNoGetOrList) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("v1");
  Bytes v2 = ToBytes("v2");
  UsageTotals before = CloudUsage(clouds_);
  auto first = client.WriteVersion("f", ContentHash(v1), v1, nullptr, 5);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->version, 5u);
  UsageTotals after = CloudUsage(clouds_);
  EXPECT_EQ(after.puts - before.puts, 3u);
  EXPECT_EQ(after.gets - before.gets, 0u);
  EXPECT_EQ(after.lists - before.lists, 0u);

  before = after;
  auto second = client.WriteVersion("f", ContentHash(v2), v2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->version, 6u);  // after the anchored version
  after = CloudUsage(clouds_);
  EXPECT_EQ(after.puts - before.puts, 3u);
  EXPECT_EQ(after.gets - before.gets, 0u);
  EXPECT_EQ(after.lists - before.lists, kClouds);

  // Both are listed and read without any further write.
  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ(*client.ReadLatest("f"), v2);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v1)), v1);
}

// A writer that crashed mid-wave left its version on fewer than k clouds:
// readers skip it, and the previous version stays the latest.
TEST_F(DepSkyTest, WriterCrashedMidWaveLeavesReadLatestAtThePreviousVersion) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("acknowledged");
  Bytes v2 = ToBytes("crashed mid-wave");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  // Only cloud 0 takes v2's shard; the wave fails, as a crash would end it.
  for (unsigned c = 1; c < kClouds; ++c) {
    clouds_[c]->faults().SetUnavailable(true);
  }
  EXPECT_EQ(client.WriteVersion("f", ContentHash(v2), v2, nullptr, 2)
                .status()
                .code(),
            ErrorCode::kUnavailable);
  for (unsigned c = 1; c < kClouds; ++c) {
    clouds_[c]->faults().SetUnavailable(false);
  }
  ASSERT_EQ(clouds_[0]->List(Creds(0), "du/f/v").value().size(), 2u);

  EXPECT_EQ(*client.ReadLatest("f"), v1);
  EXPECT_EQ(client.ReadByHash("f", ContentHash(v2)).status().code(),
            ErrorCode::kNotFound);
  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 1u);
  EXPECT_EQ(versions->front().content_hash, ContentHash(v1));
  auto report = client.ScrubUnit("f");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->versions_checked, 1u);
  EXPECT_TRUE(report->fully_redundant);
  // The next write becomes the latest, whether or not its LIST saw the
  // crashed write's number.
  Bytes v3 = ToBytes("v3");
  auto next = client.WriteVersion("f", ContentHash(v3), v3);
  ASSERT_TRUE(next.ok());
  EXPECT_GE(next->version, 2u);
  EXPECT_EQ(*client.ReadLatest("f"), v3);
}

// With two of four clouds not answering the LIST, nothing may claim a
// latest version or that a hash is absent, and an unanchored write stores
// nothing; an answer naming the anchored hash still settles a read by hash,
// and an anchored write, which lists nothing, goes through.
TEST_F(DepSkyFilteredTest, UnansweredListQuorumFailsUnanchoredOperations) {
  auto client = MakeFilteredClient();
  Bytes v1 = ToBytes("anchored content");
  Bytes v2 = ToBytes("never stored");
  Bytes v3 = ToBytes("anchored write");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());

  stores_[0]->blind_list = true;
  stores_[1]->blind_list = true;
  EXPECT_EQ(client.ReadLatest("f").status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(client.ListVersions("f").status().code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(client.ReadByHash("f", ContentHash(ToBytes("unknown")))
                .status()
                .code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(client.WriteVersion("f", ContentHash(v2), v2).status().code(),
            ErrorCode::kUnavailable);
  for (const auto& keys : ListUnit("f")) {
    EXPECT_LE(keys.size(), 1u);
  }
  auto anchored = client.ReadByHash("f", ContentHash(v1));
  ASSERT_TRUE(anchored.ok()) << anchored.status().ToString();
  EXPECT_EQ(*anchored, v1);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
  auto record = client.WriteVersion("f", ContentHash(v3), v3, nullptr, 2);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(*client.ReadVersion("f", *record), v3);
}

// A write that failed its quorum leaves its shards behind under a name no
// anchor holds. DeleteUnit lists the unit's prefix, so it reclaims them too.
TEST_F(DepSkyFilteredTest, DeleteUnitReclaimsOrphansOfFailedWrites) {
  auto client = MakeFilteredClient();
  Bytes v1 = ToBytes("published");
  Bytes v2 = ToBytes("orphaned");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  clouds_[0]->faults().SetUnavailable(true);
  clouds_[1]->faults().SetUnavailable(true);
  ASSERT_FALSE(client.WriteVersion("f", ContentHash(v2), v2, nullptr, 2).ok());
  clouds_[0]->faults().SetUnavailable(false);
  clouds_[1]->faults().SetUnavailable(false);

  size_t orphans = 0;
  for (const auto& keys : ListUnit("f")) {
    for (const auto& key : keys) {
      orphans += key.find(ContentHash(v2)) != std::string::npos ? 1 : 0;
    }
  }
  EXPECT_EQ(orphans, 2u);

  ASSERT_TRUE(client.DeleteUnit("f").ok());
  for (const auto& keys : ListUnit("f")) {
    EXPECT_TRUE(keys.empty());
  }
}

// Two writers that take the same version number from their anchors store
// disjoint objects: the names carry their object ids, so neither overwrites
// the other's shards, and each record reads its own bytes.
TEST_F(DepSkyTest, SameVersionNumberWritersKeepSeparateObjects) {
  // Two clients of one user built with one seed, as two agents of a user
  // may be: only the object-id salt keeps their names apart.
  auto first = MakeClient("alice");
  auto second = MakeClient("alice");
  Bytes a = ToBytes("first writer");
  Bytes b = ToBytes("second writer");
  auto va = first.WriteVersion("f", ContentHash(a), a, nullptr, 2);
  auto vb = second.WriteVersion("f", ContentHash(b), b, nullptr, 2);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_NE(va->object_id, vb->object_id);
  EXPECT_EQ(*first.ReadVersion("f", *vb), b);
  EXPECT_EQ(*second.ReadVersion("f", *va), a);
  EXPECT_EQ(first.anchored_read_fallbacks() + second.anchored_read_fallbacks(),
            0u);
  auto versions = first.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 2u);
}

TEST_F(DepSkyTest, ValueObjectsAreNamedByTheRecordedObjectId) {
  auto client = MakeClient("alice");
  Bytes v1 = ToBytes("one");
  Bytes v2 = ToBytes("two");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  auto versions = client.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_NE((*versions)[0].object_id, (*versions)[1].object_id);
  for (const auto& v : *versions) {
    char id[17];
    std::snprintf(id, sizeof(id), "%016llx",
                  static_cast<unsigned long long>(v.object_id));
    unsigned holders = 0;
    for (unsigned c = 0; c < kClouds; ++c) {
      if (v.stripe_units[0].cloud_shard[c] < 0) {
        continue;
      }
      const std::string key = KeyAt("f", v, 0, c);
      EXPECT_EQ(key.rfind("du/f/v", 0), 0u) << key;
      EXPECT_NE(key.find(std::string("/o") + id + "/h" + v.content_hash +
                         "/u0/s"),
                std::string::npos)
          << key;
      holders += clouds_[c]->PeekLatest(key).ok() ? 1 : 0;
    }
    EXPECT_EQ(holders, 3u);
  }
}

// An unanchored grantee write takes the owner's ids from the grant object
// SetGrant stored: every acknowledged object must carry the owner's ACL.
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
  auto versions = alice.ListVersions("doc");
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 2u);
  const DepSkyVersion* written = &versions->back();
  ASSERT_EQ(written->content_hash, ContentHash(update));
  ASSERT_EQ(written->stripe_units.size(), 1u);
  unsigned readable = 0;
  for (unsigned c = 0; c < kClouds; ++c) {
    if (written->stripe_units[0].cloud_shard[c] < 0) {
      continue;
    }
    clouds_[c]->Quiesce();
    auto object = clouds_[c]->Get(Creds(c), KeyAt("doc", *written, 0, c));
    ASSERT_TRUE(object.ok()) << "cloud " << c << ": "
                             << object.status().ToString();
    ++readable;
  }
  EXPECT_EQ(readable, 3u);
  EXPECT_EQ(*alice.ReadByHash("doc", ContentHash(update)), update);
}

// An anchored grantee write applies the caller's grants, the owner among
// them as an SCFS agent passes it, so the owner reads the new version at
// once, by its record and by the LIST.
TEST_F(DepSkyTest, GranteeAnchoredWriteIsReadableByTheOwnerAtOnce) {
  auto alice = MakeClient("alice");
  auto bob = MakeClient("bob");
  Bytes data = ToBytes("alice's version");
  auto first = alice.WriteVersion("doc", ContentHash(data), data);
  ASSERT_TRUE(first.ok());
  DepSkyGrant to_bob;
  DepSkyGrant to_alice;
  for (auto& cloud : clouds_) {
    to_bob.cloud_ids.push_back(cloud->provider_name() + ":bob");
    to_alice.cloud_ids.push_back(cloud->provider_name() + ":alice");
  }
  to_bob.read = to_bob.write = true;
  to_alice.read = to_alice.write = true;
  ASSERT_TRUE(alice.SetGrant("doc", to_bob).ok());

  Bytes update = ToBytes("bob's update");
  const std::vector<DepSkyGrant> grants = {to_alice};
  auto write = bob.WriteVersion("doc", ContentHash(update), update, &grants,
                                first->version + 1);
  ASSERT_TRUE(write.ok()) << write.status().ToString();
  auto read = alice.ReadVersion("doc", *write);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, update);
  EXPECT_EQ(alice.anchored_read_fallbacks(), 0u);
  EXPECT_EQ(*alice.ReadLatest("doc"), update);
}

// A scrub gives a rebuilt object the grants its header recorded as SetGrant
// has changed them since: a grantee revoked after the write does not get
// access back, and one granted after it gets access.
TEST_F(DepSkyTest, ScrubAppliesTheGrantsSetSinceTheWrite) {
  auto alice = MakeClient("alice");
  DepSkyGrant to_bob;
  DepSkyGrant to_carol;
  for (auto& cloud : clouds_) {
    to_bob.cloud_ids.push_back(cloud->provider_name() + ":bob");
    to_carol.cloud_ids.push_back(cloud->provider_name() + ":carol");
  }
  to_bob.read = true;
  const std::vector<DepSkyGrant> grants = {to_bob};
  Bytes data = ToBytes("shared with bob at write time");
  auto record = alice.WriteVersion("doc", ContentHash(data), data, &grants, 1);
  ASSERT_TRUE(record.ok());
  const std::string key = KeyAt("doc", *record, 0, 0);
  clouds_[0]->Quiesce();
  ASSERT_TRUE(clouds_[0]->Get(Creds(0, "bob"), key).ok());

  to_bob.read = false;
  ASSERT_TRUE(alice.SetGrant("doc", to_bob).ok());
  to_carol.read = true;
  ASSERT_TRUE(alice.SetGrant("doc", to_carol).ok());
  ASSERT_TRUE(clouds_[0]->Delete(Creds(0), key).ok());
  auto report = alice.ScrubUnit("doc");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->objects_repaired, 1u);

  clouds_[0]->Quiesce();
  EXPECT_TRUE(clouds_[0]->Get(Creds(0), key).ok());
  EXPECT_EQ(clouds_[0]->Get(Creds(0, "bob"), key).status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(clouds_[0]->Get(Creds(0, "carol"), key).ok());
}

// Garbage collection of one version lists every cloud once and
// authenticates one header; the backend does not look the version up first.
TEST_F(DepSkyTest, DeleteVersionByHashListsOnce) {
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

  const UsageTotals before = CloudUsage(clouds_);
  ASSERT_TRUE(backend.DeleteVersionByHash("f", ContentHash(v1)).ok());
  const UsageTotals after = CloudUsage(clouds_);
  EXPECT_EQ(after.lists - before.lists, kClouds);
  EXPECT_EQ(after.gets - before.gets, 1u);
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
