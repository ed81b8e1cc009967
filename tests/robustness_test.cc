// Data-plane robustness tests: DepSky read/write with exactly f faulty
// clouds (outage, corruption, Byzantine) at (n=4, f=1) and (n=7, f=2),
// hedged reads racing a straggler on a scaled clock, anchored reads against
// forged, replayed and stale metadata copies, per-attempt deadlines,
// fake-clock circuit-breaker unit tests, and BackoffPolicy bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "src/chaos/campaign.h"
#include "src/cloud/health.h"
#include "src/cloud/simulated_cloud.h"
#include "src/common/backoff.h"
#include "src/crypto/sha1.h"
#include "src/coord/local_coordination.h"
#include "src/depsky/depsky.h"
#include "src/scfs/background.h"
#include "src/scfs/blob_backend.h"
#include "src/scfs/deployment.h"
#include "src/scfs/scrubber.h"
#include "src/sim/fault_schedule.h"

namespace scfs {
namespace {

std::string ContentHash(const Bytes& data) {
  return HexEncode(Sha1::Hash(data));
}

// ---------------------------------------------------------------------------
// DepSky at exactly f faulty clouds, parameterized over (n, f).
// ---------------------------------------------------------------------------

class DepSkyFaultMarginTest : public ::testing::TestWithParam<unsigned> {
 protected:
  DepSkyFaultMarginTest() : env_(Environment::Instant()) {
    const unsigned n = 3 * GetParam() + 1;
    for (unsigned i = 0; i < n; ++i) {
      CloudProfile profile;
      profile.name = "cloud" + std::to_string(i);
      clouds_.push_back(
          std::make_unique<SimulatedCloud>(profile, env_.get(), 30 + i));
    }
  }

  DepSkyClient MakeClient() {
    DepSkyConfig config;
    config.f = GetParam();
    config.auth_key = ToBytes("deployment-auth-key");
    std::vector<DepSkyCloud> set;
    for (auto& cloud : clouds_) {
      set.push_back(DepSkyCloud{cloud.get(),
                                {cloud->provider_name() + ":alice"}});
    }
    return DepSkyClient(env_.get(), std::move(set), config, 4321);
  }

  unsigned f() const { return GetParam(); }

  std::unique_ptr<Environment> env_;
  std::vector<std::unique_ptr<SimulatedCloud>> clouds_;
};

TEST_P(DepSkyFaultMarginTest, ReadsSurviveExactlyFOutages) {
  auto client = MakeClient();
  Bytes data(9000, 5);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  for (unsigned i = 0; i < f(); ++i) {
    clouds_[i]->faults().SetUnavailable(true);
  }
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST_P(DepSkyFaultMarginTest, WritesSurviveExactlyFOutages) {
  auto client = MakeClient();
  for (unsigned i = 0; i < f(); ++i) {
    clouds_[i]->faults().SetUnavailable(true);
  }
  Bytes data(7000, 6);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  // Readable while the same f clouds stay down, and after they return.
  EXPECT_EQ(*client.ReadLatest("f"), data);
  for (unsigned i = 0; i < f(); ++i) {
    clouds_[i]->faults().SetUnavailable(false);
  }
  EXPECT_EQ(*client.ReadLatest("f"), data);
}

TEST_P(DepSkyFaultMarginTest, ReadsSurviveExactlyFCorruptClouds) {
  auto client = MakeClient();
  Bytes data(9000, 7);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  for (unsigned i = 0; i < f(); ++i) {
    clouds_[i]->faults().SetCorruptAllReads(true);
  }
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

// The stored value object carries the erasure shard AND a key share; the
// metadata hash must cover both. A fault that flips only the share bytes
// (leaving the shard intact) used to pass the shard-only hash check and
// poison key reconstruction — the read then failed the final content hash
// instead of routing around the bad object.
TEST_P(DepSkyFaultMarginTest, ReadsSurvivePoisonedKeyShareAtFClouds) {
  auto client = MakeClient();
  Bytes data(9000, 8);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const std::string value_key =
      DepSkyClient::ValueKey("f", md->versions.back(), 0);
  for (unsigned i = 0; i < f(); ++i) {
    CloudCredentials creds{clouds_[i]->provider_name() + ":alice"};
    auto object = clouds_[i]->Get(creds, value_key);
    ASSERT_TRUE(object.ok());
    object->back() ^= 0x01;  // the share rides at the tail, after the shard
    ASSERT_TRUE(clouds_[i]->Put(creds, value_key, *object).ok());
  }
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST_P(DepSkyFaultMarginTest, ReadsSurviveExactlyFByzantineClouds) {
  auto client = MakeClient();
  Bytes v1 = ToBytes("version one");
  Bytes v2 = ToBytes("version two!");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  // f clouds serve arbitrarily stale (but authentic) state; the quorum's
  // maximum authenticated version must win.
  for (unsigned i = 0; i < f(); ++i) {
    clouds_[i]->faults().SetByzantine(true);
  }
  EXPECT_EQ(*client.ReadLatest("f"), v2);
}

TEST_P(DepSkyFaultMarginTest, MixedFaultClassesAcrossFClouds) {
  if (f() < 2) {
    GTEST_SKIP() << "needs f >= 2 to mix fault classes";
  }
  auto client = MakeClient();
  Bytes data(9000, 8);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  clouds_[0]->faults().SetUnavailable(true);
  clouds_[1]->faults().SetCorruptAllReads(true);
  auto read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

INSTANTIATE_TEST_SUITE_P(FaultMargins, DepSkyFaultMarginTest,
                         ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "f" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Hedged reads and deadlines need a scaled clock (timers are inert in
// instant environments).
// ---------------------------------------------------------------------------

class DepSkyTimerTest : public ::testing::Test {
 protected:
  // 1 virtual second = 50 ms: the latency gaps below stay tens of real
  // milliseconds wide, well clear of scheduling noise on a loaded host.
  DepSkyTimerTest() : env_(Environment::Scaled(0.05)) {
    UseLatencies({0, 0, 0, 0});
  }

  // Rebuilds the four clouds with one fixed latency per cloud for every GET
  // and PUT (call before MakeClient).
  void UseLatencies(const std::vector<VirtualDuration>& latencies) {
    clouds_.clear();
    for (unsigned i = 0; i < latencies.size(); ++i) {
      CloudProfile profile;
      profile.name = "cloud" + std::to_string(i);
      profile.read_latency = LatencyModel::Fixed(latencies[i]);
      profile.write_latency = LatencyModel::Fixed(latencies[i]);
      clouds_.push_back(
          std::make_unique<SimulatedCloud>(profile, env_.get(), 40 + i));
    }
  }

  // 1 virtual second = 200 ms, for a test whose bound sits 100-200 ms
  // above the modelled wait: a fetch is charged its virtual elapsed time,
  // and at the default scale a loaded host's scheduling delays alone can
  // cross such a bound (call before UseLatencies).
  void UseSlowClock() {
    clouds_.clear();
    env_ = Environment::Scaled(0.2);
  }

  CloudCredentials Creds(unsigned cloud) const {
    return {clouds_[cloud]->provider_name() + ":alice"};
  }

  uint64_t Gets(unsigned cloud) {
    clouds_[cloud]->Quiesce();
    return clouds_[cloud]->costs().GrandTotals().gets;
  }

  // Cost order is cloud 0, 1, 2, 3, so preferred quorums place shards on
  // clouds 0..2. Latency order is 2, 3, 0, 1: the fastest cloud holds a
  // shard and the slowest holder is the second-cheapest.
  static std::vector<VirtualDuration> Spread() {
    return {600 * kMillisecond, 800 * kMillisecond, 100 * kMillisecond,
            400 * kMillisecond};
  }

  DepSkyClient MakeClient(DepSkyConfig config) {
    config.f = 1;
    config.auth_key = ToBytes("deployment-auth-key");
    std::vector<DepSkyCloud> set;
    for (auto& cloud : clouds_) {
      set.push_back(DepSkyCloud{cloud.get(),
                                {cloud->provider_name() + ":alice"}});
    }
    return DepSkyClient(env_.get(), std::move(set), config, 777);
  }

  std::unique_ptr<Environment> env_;
  std::vector<std::unique_ptr<SimulatedCloud>> clouds_;
};

TEST_F(DepSkyTimerTest, HedgedReadRoutesAroundStraggler) {
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;  // out of the way
  config.max_attempts = 1;
  Bytes data(9000, 9);
  UseLatencies(Spread());
  {
    auto client = MakeClient(config);
    ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
    // With preferred quorums the shards live on clouds 0..2; the read
    // launches the k=2 fastest holders (clouds 2 and 0). Make cloud 2 a
    // straggler (30 s brown-out): cloud 0 answers but k is not reached, and
    // nothing has *failed*, so only the hedge timer can bring in cloud 1
    // and finish the read quickly.
    clouds_[2]->faults().SetLatencyDegradation(30 * kSecond);
    const VirtualTime before = env_->Now();
    auto read = client.ReadByHash("f", ContentHash(data));
    const VirtualDuration elapsed = env_->Now() - before;
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, data);
    EXPECT_GE(client.hedged_reads(), 1u);
    // Far faster than waiting out the straggler; generous bound for CI
    // noise.
    EXPECT_LT(elapsed, 15 * kSecond);
    clouds_[2]->faults().SetLatencyDegradation(0);
    // Destruction waits for the straggler's in-flight op.
  }
}

TEST_F(DepSkyTimerTest, DeadlineExpiryCountsAndRecovers) {
  DepSkyConfig config;
  config.request_deadline = 500 * kMillisecond;
  config.max_attempts = 2;
  {
    auto client = MakeClient(config);
    Bytes data = ToBytes("deadline test");
    ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
    // One cloud stops answering within any deadline; quorum operations must
    // still complete from the other three, and the expiry must be counted.
    clouds_[3]->faults().SetLatencyDegradation(30 * kSecond);
    auto md = client.ReadMetadata("f");
    ASSERT_TRUE(md.ok()) << md.status().ToString();
    // Let the straggler's deadline fire on the timer thread.
    env_->Sleep(2 * kSecond);
    EXPECT_GE(client.deadline_expiries(), 1u);
    clouds_[3]->faults().SetLatencyDegradation(0);
  }
}

// ---------------------------------------------------------------------------
// Anchored reads: ReadByHash settles its metadata on the first authentic
// copy listing the hash and fetches shards from the fastest holders.
// ---------------------------------------------------------------------------

TEST_F(DepSkyTimerTest, AnchoredReadWaitsForFastestCopyAndFastestHolders) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes data(9000, 3);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  env_->Sleep(kSecond);  // the straggling metadata PUT lands
  const uint64_t gets_before[] = {Gets(0), Gets(1), Gets(2), Gets(3)};

  Environment::ResetThreadCharged();
  auto read = client.ReadByHash("f", ContentHash(data));
  const VirtualDuration charged = Environment::ThreadCharged();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  // Cloud 2's copy (100 ms) settles the metadata; the shards come from the
  // two fastest holders, clouds 2 and 0 (600 ms): 700 ms. The quorum read
  // waited for the third copy (cloud 0, 600 ms) and then the two cheapest
  // holders, clouds 0 and 1 (800 ms): 1400 ms. Either half alone would
  // take 900 ms or more.
  EXPECT_GE(charged, 700 * kMillisecond);
  EXPECT_LT(charged, 850 * kMillisecond);
  // One metadata GET per cloud; shard GETs only at clouds 2 and 0.
  EXPECT_EQ(Gets(0) - gets_before[0], 2u);
  EXPECT_EQ(Gets(1) - gets_before[1], 1u);
  EXPECT_EQ(Gets(2) - gets_before[2], 2u);
  EXPECT_EQ(Gets(3) - gets_before[3], 1u);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
  EXPECT_EQ(client.hedged_reads(), 0u);
}

TEST_F(DepSkyTimerTest, InauthenticFastestCopyNeverSettlesAnchoredRead) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes data(9000, 4);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  env_->Sleep(kSecond);

  // Forged: the fastest cloud serves a copy that lists the hash with an
  // emptied shard map, authenticated under the wrong key. Accepting it
  // would fail the fetch and fall back.
  auto md = client.ReadMetadata("f");
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  DepSkyMetadata forged = *md;
  forged.versions.back().stripe_units[0].cloud_shard.assign(4, -1);
  ASSERT_TRUE(clouds_[2]
                  ->Put(Creds(2), DepSkyClient::MetadataKey("f"),
                        forged.Encode(ToBytes("not-the-deployment-key")))
                  .ok());
  Environment::ResetThreadCharged();
  auto read = client.ReadByHash("f", ContentHash(data));
  const VirtualDuration charged = Environment::ThreadCharged();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
  // Settled by an authentic copy (cloud 3: 400 ms), not by cloud 2's
  // (100 ms); then the shards (600 ms).
  EXPECT_GE(charged, 1000 * kMillisecond);

  // Corrupted: every read from the fastest cloud comes back bit-flipped,
  // its metadata copy and its shard alike.
  clouds_[2]->faults().SetCorruptAllReads(true);
  read = client.ReadByHash("f", ContentHash(data));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
  clouds_[2]->faults().SetCorruptAllReads(false);
}

TEST_F(DepSkyTimerTest, ByzantineFastestCopyWithoutTheHashIsPassedOver) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes v1 = ToBytes("version one");
  Bytes v2 = ToBytes("version two!");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  env_->Sleep(kSecond);
  auto old_copy = clouds_[2]->Get(Creds(2), DepSkyClient::MetadataKey("f"));
  ASSERT_TRUE(old_copy.ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v2), v2).ok());
  env_->Sleep(kSecond);
  // The fastest cloud replays its authentic pre-v2 copy.
  ASSERT_TRUE(
      clouds_[2]->Put(Creds(2), DepSkyClient::MetadataKey("f"), *old_copy)
          .ok());

  auto read = client.ReadByHash("f", ContentHash(v2));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, v2);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
}

TEST_F(DepSkyTimerTest, EarlyCopyNamingDeletedObjectsFallsBackToQuorum) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes a = ToBytes("contents a");
  Bytes b = ToBytes("contents b");
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(a), a).ok());
  env_->Sleep(kSecond);
  // An authentic copy that lists a's hash at version 1.
  auto stale = clouds_[2]->Get(Creds(2), DepSkyClient::MetadataKey("f"));
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(b), b).ok());
  auto v3 = client.WriteVersion("f", ContentHash(a), a);
  ASSERT_TRUE(v3.ok());
  ASSERT_EQ(v3->version, 3u);
  // Drops the oldest version with a's hash: version 1.
  ASSERT_TRUE(client.DeleteVersion("f", ContentHash(a)).ok());
  env_->Sleep(kSecond);
  // The fastest cloud replays it, and a brown-out on the others keeps its
  // copy first: the early accept picks version 1, whose objects are gone;
  // the quorum re-read finds version 3.
  ASSERT_TRUE(
      clouds_[2]->Put(Creds(2), DepSkyClient::MetadataKey("f"), *stale).ok());
  for (unsigned cloud : {0u, 1u, 3u}) {
    clouds_[cloud]->faults().SetLatencyDegradation(2 * kSecond);
  }

  auto read = client.ReadByHash("f", ContentHash(a));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, a);
  EXPECT_EQ(client.anchored_read_fallbacks(), 1u);
  for (unsigned cloud : {0u, 1u, 3u}) {
    clouds_[cloud]->faults().SetLatencyDegradation(0);
  }
}

TEST_F(DepSkyTimerTest, AnchoredReadOfInvisibleVersionIsNotFoundAtQuorum) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  config.max_attempts = 1;
  {
    auto client = MakeClient(config);
    Bytes data = ToBytes("published");
    ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
    env_->Sleep(kSecond);
    // A brown-out cloud does not hold up the answer: n-f authentic copies
    // without the hash settle the read as NOT_FOUND.
    clouds_[1]->faults().SetLatencyDegradation(10 * kSecond);
    const std::string unpublished = ContentHash(ToBytes("not yet"));
    const VirtualTime before = env_->Now();
    EXPECT_EQ(client.ReadByHash("f", unpublished).status().code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(client.ReadAt("f", unpublished, 0, 4).status().code(),
              ErrorCode::kNotFound);
    EXPECT_LT(env_->Now() - before, 5 * kSecond);
    EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
    clouds_[1]->faults().SetLatencyDegradation(0);
    // Destruction waits for the straggler's in-flight ops.
  }
}

// ---------------------------------------------------------------------------
// Record reads: with the version record WriteVersion returned, ReadVersion
// skips the metadata round and fetches the shards from the fastest holders.
// ---------------------------------------------------------------------------

TEST_F(DepSkyTimerTest, RecordReadWaitsForFastestHoldersOnly) {
  UseSlowClock();
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes data(9000, 3);
  auto record = client.WriteVersion("f", ContentHash(data), data);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  env_->Sleep(kSecond);  // the straggling metadata PUT lands
  const uint64_t gets_before[] = {Gets(0), Gets(1), Gets(2), Gets(3)};

  Environment::ResetThreadCharged();
  auto read = client.ReadVersion("f", *record);
  const VirtualDuration charged = Environment::ThreadCharged();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  // The shards come from the two fastest holders, clouds 2 (100 ms) and 0
  // (600 ms): 600 ms, where AnchoredReadWaitsForFastestCopyAndFastestHolders
  // first waits 100 ms for cloud 2's metadata copy (700 ms).
  EXPECT_GE(charged, 600 * kMillisecond);
  EXPECT_LT(charged, 700 * kMillisecond);
  // No metadata GET: one shard GET each at clouds 2 and 0, nothing else.
  EXPECT_EQ(Gets(0) - gets_before[0], 1u);
  EXPECT_EQ(Gets(1) - gets_before[1], 0u);
  EXPECT_EQ(Gets(2) - gets_before[2], 1u);
  EXPECT_EQ(Gets(3) - gets_before[3], 0u);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
  EXPECT_EQ(client.hedged_reads(), 0u);
}

TEST_F(DepSkyTimerTest, RecordNamingDeletedObjectsFallsBackOnce) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes a = ToBytes("contents a");
  Bytes b = ToBytes("contents b");
  auto v1 = client.WriteVersion("f", ContentHash(a), a);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(b), b).ok());
  auto v3 = client.WriteVersion("f", ContentHash(a), a);
  ASSERT_TRUE(v3.ok());
  ASSERT_EQ(v3->version, 3u);
  // Drops the oldest version with a's hash: version 1, the record's.
  ASSERT_TRUE(client.DeleteVersion("f", ContentHash(a)).ok());
  env_->Sleep(kSecond);

  // Version 1's objects are gone: the record cannot deliver, and the read
  // locates a's hash through the metadata instead, which lists version 3.
  auto read = client.ReadVersion("f", *v1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, a);
  EXPECT_EQ(client.anchored_read_fallbacks(), 1u);
}

TEST_F(DepSkyTimerTest, RecordReadRoutesAroundBitFlippingHolder) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes data(9000, 5);
  auto record = client.WriteVersion("f", ContentHash(data), data);
  ASSERT_TRUE(record.ok());
  env_->Sleep(kSecond);

  // The fastest holder's shard fails its recorded hash; the next holder
  // (cloud 1) replaces it within the same fetch.
  clouds_[2]->faults().SetCorruptAllReads(true);
  auto read = client.ReadVersion("f", *record);
  clouds_[2]->faults().SetCorruptAllReads(false);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
}

TEST_F(DepSkyTimerTest, DownHolderIsReplacedAfterItsFirstFailedAttempt) {
  UseSlowClock();
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  config.max_attempts = 2;
  auto client = MakeClient(config);
  Bytes data(9000, 6);
  auto record = client.WriteVersion("f", ContentHash(data), data);
  ASSERT_TRUE(record.ok());
  env_->Sleep(kSecond);

  // Cloud 0, one of the two fastest holders, is down: its GET fails after
  // its 600 ms round trip, and cloud 1 (800 ms) takes its place at once:
  // 1400 ms. Waiting for cloud 0's retry first would take one more round
  // trip plus the backoff, past 2000 ms.
  clouds_[0]->faults().SetUnavailable(true);
  Environment::ResetThreadCharged();
  auto read = client.ReadVersion("f", *record);
  const VirtualDuration charged = Environment::ThreadCharged();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_GE(charged, 1400 * kMillisecond);
  EXPECT_LT(charged, 1600 * kMillisecond);
  EXPECT_EQ(client.anchored_read_fallbacks(), 0u);
  env_->Sleep(2 * kSecond);  // cloud 0's retry settles
  clouds_[0]->faults().SetUnavailable(false);
}

// ---------------------------------------------------------------------------
// Overlapped writes: the metadata read runs alongside the shard PUT wave, so
// a write waits for the slower of the two, then the metadata PUT.
// ---------------------------------------------------------------------------

TEST_F(DepSkyTimerTest, WriteChargesSlowerOfMetadataReadAndPutWave) {
  UseSlowClock();
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes v1(9000, 1);
  Bytes v2(9000, 2);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  env_->Sleep(kSecond);  // the straggling metadata PUT lands

  Environment::ResetThreadCharged();
  const VirtualTime before = env_->Now();
  auto written = client.WriteVersion("f", ContentHash(v2), v2);
  const VirtualDuration charged = Environment::ThreadCharged();
  const VirtualDuration elapsed = env_->Now() - before;
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->version, 2u);
  // Metadata read: the third authentic copy, cloud 0 (600 ms). Shard PUT
  // wave: the preferred quorum, clouds 0-2, ends with cloud 1 (800 ms).
  // Metadata PUT: the third ack, cloud 0 (600 ms). Overlapped:
  // max(600, 800) + 600 = 1400 ms; the serial rounds would take 2000 ms.
  EXPECT_GE(charged, 1400 * kMillisecond);
  EXPECT_LT(charged, 1550 * kMillisecond);
  EXPECT_LT(elapsed, 1800 * kMillisecond);
  EXPECT_EQ(*client.ReadByHash("f", ContentHash(v2)), v2);
}

TEST_F(DepSkyTimerTest, WriteChargesMetadataReadWhenItIsTheSlowerPart) {
  UseSlowClock();
  UseLatencies({100 * kMillisecond, 200 * kMillisecond, 300 * kMillisecond,
                1000 * kMillisecond});
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  Bytes v1(9000, 1);
  Bytes v2(9000, 2);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(v1), v1).ok());
  env_->Sleep(2 * kSecond);
  // Cloud 0's metadata copy comes back corrupted, so the read needs the
  // slow cloud 3's copy as its third authentic one.
  clouds_[0]->faults().SetCorruptAllReads(true);

  Environment::ResetThreadCharged();
  const VirtualTime before = env_->Now();
  auto written = client.WriteVersion("f", ContentHash(v2), v2);
  const VirtualDuration charged = Environment::ThreadCharged();
  const VirtualDuration elapsed = env_->Now() - before;
  clouds_[0]->faults().SetCorruptAllReads(false);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->version, 2u);
  // Metadata read 1000 ms (cloud 3), shard PUT wave 300 ms (clouds 0-2),
  // metadata PUT 300 ms (third ack): max(1000, 300) + 300 = 1300 ms against
  // a serial 1600 ms.
  EXPECT_GE(charged, 1300 * kMillisecond);
  EXPECT_LT(charged, 1450 * kMillisecond);
  EXPECT_LT(elapsed, 1500 * kMillisecond);
}

// A blocking close waits for the shard quorum and one coordination round,
// the publish that also releases the lock — not for an unlock round, nor
// for DepSky's metadata PUT, which is written behind it.
TEST_F(DepSkyTimerTest, CloseIsChargedShardQuorumAndOnePublishRound) {
  UseSlowClock();
  UseLatencies(Spread());
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("deployment-auth-key");
  config.request_deadline = 60 * kSecond;
  std::vector<DepSkyCloud> set;
  std::vector<CanonicalId> ids;
  for (auto& cloud : clouds_) {
    ids.push_back(cloud->provider_name() + ":alice");
    set.push_back(DepSkyCloud{cloud.get(), {ids.back()}});
  }
  DepSkyBackend backend(
      std::make_shared<DepSkyClient>(env_.get(), std::move(set), config, 7));
  // 50 ms each way: every coordination round takes 100 ms.
  LocalCoordination coord(env_.get(), LatencyModel::Fixed(50 * kMillisecond));
  ScfsOptions options;
  options.user = "alice";
  options.user_cloud_ids = ids;
  ScfsFileSystem fs(env_.get(), &coord, &backend, options);
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.WriteFile("/f", Bytes(9000, 1)).ok());
  ASSERT_TRUE(fs.SyncBarrier().ok());
  env_->Sleep(kSecond);  // the straggling metadata PUT lands

  auto fh = fs.Open("/f", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  ASSERT_TRUE(fs.Write(*fh, 0, Bytes(9000, 2)).ok());
  Environment::ResetThreadCharged();
  Status closed = fs.Close(*fh);
  const VirtualDuration charged = Environment::ThreadCharged();
  ASSERT_TRUE(closed.ok()) << closed.ToString();
  // Disk 5 ms; metadata read (cloud 0, the third authentic copy: 600 ms)
  // overlapped with the shard wave (cloud 1: 800 ms); the publish that
  // releases the lock, 100 ms: 905 ms. The metadata PUT (600 ms) is not in
  // it, and neither is an unlock round.
  EXPECT_GE(charged, 905 * kMillisecond);
  EXPECT_LT(charged, 1050 * kMillisecond);
  EXPECT_EQ(*fs.ReadFile("/f"), Bytes(9000, 2));
  ASSERT_TRUE(fs.Unmount().ok());
}

// A create that takes its lock with a coordination round looks its parent
// directory up during that round: the open is charged max(lock, lookup)
// plus the create's placeholder publish, not the three rounds in a row.
TEST_F(DepSkyTimerTest, CreateLooksItsParentUpDuringTheLockRound) {
  UseSlowClock();
  UseLatencies(Spread());
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("deployment-auth-key");
  std::vector<DepSkyCloud> set;
  std::vector<CanonicalId> ids;
  for (auto& cloud : clouds_) {
    ids.push_back(cloud->provider_name() + ":alice");
    set.push_back(DepSkyCloud{cloud.get(), {ids.back()}});
  }
  DepSkyBackend backend(
      std::make_shared<DepSkyClient>(env_.get(), std::move(set), config, 7));
  // 50 ms each way: every coordination round takes 100 ms.
  LocalCoordination coord(env_.get(), LatencyModel::Fixed(50 * kMillisecond));
  ScfsOptions options;
  options.user = "alice";
  options.user_cloud_ids = ids;
  ScfsFileSystem fs(env_.get(), &coord, &backend, options);
  ASSERT_TRUE(fs.Mount().ok());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  env_->Sleep(kSecond);  // the directory's cached entry expires

  Environment::ResetThreadCharged();
  auto fh = fs.Open("/d/f", kOpenWrite | kOpenCreate);
  const VirtualDuration charged = Environment::ThreadCharged();
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  // The lock-and-read (100 ms) alongside the parent's read (100 ms), then
  // the placeholder publish (100 ms): 200 ms, where the rounds in a row
  // would take 300 ms.
  EXPECT_GE(charged, 200 * kMillisecond);
  EXPECT_LT(charged, 250 * kMillisecond);
  ASSERT_TRUE(fs.Close(*fh).ok());
  // A missing parent still fails the create.
  EXPECT_EQ(fs.Open("/e/f", kOpenWrite | kOpenCreate).status().code(),
            ErrorCode::kNotFound);
  ASSERT_TRUE(fs.Unmount().ok());
}

// How many clouds hold a metadata copy of `unit` listing every one of
// `hashes` (after every request in flight has landed).
unsigned CloudsListingAll(
    const std::vector<std::unique_ptr<SimulatedCloud>>& clouds,
    const std::string& unit, const std::vector<std::string>& hashes) {
  unsigned listing = 0;
  for (auto& cloud : clouds) {
    cloud->Quiesce();
    auto raw = cloud->Get({cloud->provider_name() + ":alice"},
                          DepSkyClient::MetadataKey(unit));
    if (!raw.ok()) {
      continue;
    }
    auto md = DepSkyMetadata::Decode(*raw, ToBytes("deployment-auth-key"));
    listing += md.ok() && std::all_of(hashes.begin(), hashes.end(),
                                      [&](const std::string& hash) {
                                        return md->FindByHash(hash) != nullptr;
                                      });
  }
  return listing;
}

// The chain v0 -> v1 -> v2, each written by another client. v0's writer
// crashed before its finish, so v1's finish waits out v0's request budget.
// v2's writer starts the moment v1's finish returns (as the lock handoff
// allows), while v1's metadata PUT is still in flight: v2 waits for that
// PUT, not for a budget, and all three versions end up listed on n-f
// clouds.
TEST_F(DepSkyTimerTest, HeldUpPredecessorStaysListedWithItsSuccessor) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.request_deadline = kSecond;
  auto c0 = MakeClient(config);
  auto c1 = MakeClient(config);
  auto c2 = MakeClient(config);
  const Bytes d0 = ToBytes("v0"), d1 = ToBytes("v1"), d2 = ToBytes("v2");
  auto w0 = c0.StartWrite("f", ContentHash(d0), d0);
  ASSERT_TRUE(w0.ok()) << w0.status().ToString();

  const VirtualTime started1 = env_->Now();
  auto w1 = c1.StartWrite("f", ContentHash(d1), d1, nullptr, &w0->record);
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  Future<Status> metadata1 = w1->finish(std::nullopt);
  EXPECT_GE(env_->Now(), started1 + c1.RequestBudget());
  EXPECT_EQ(c1.predecessor_budget_waits(), 1u);

  const VirtualTime started2 = env_->Now();
  auto w2 = c2.StartWrite("f", ContentHash(d2), d2, nullptr, &w1->record);
  ASSERT_TRUE(w2.ok()) << w2.status().ToString();
  Future<Status> metadata2 = w2->finish(std::nullopt);
  EXPECT_LT(env_->Now(), started2 + c2.RequestBudget());
  EXPECT_EQ(c2.predecessor_budget_waits(), 0u);
  ASSERT_TRUE(metadata1.Get().ok());
  ASSERT_TRUE(metadata2.Get().ok());

  EXPECT_GE(CloudsListingAll(clouds_, "f",
                             {ContentHash(d0), ContentHash(d1),
                              ContentHash(d2)}),
            3u);
}

// A cross-agent handoff whose next writer does not read first: it opens
// with truncate and closes at once, so its metadata read may run before the
// first close's metadata PUT has landed. That costs it at most a re-read,
// never the request budget, and both versions end up listed on n-f clouds.
TEST_F(DepSkyTimerTest, TruncatingHandoffWaitsForThePutNotTheBudget) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("deployment-auth-key");
  std::vector<DepSkyCloud> set;
  std::vector<CanonicalId> ids;
  for (auto& cloud : clouds_) {
    ids.push_back(cloud->provider_name() + ":alice");
    set.push_back(DepSkyCloud{cloud.get(), {ids.back()}});
  }
  auto first_client =
      std::make_shared<DepSkyClient>(env_.get(), set, config, 7);
  auto second_client =
      std::make_shared<DepSkyClient>(env_.get(), set, config, 8);
  DepSkyBackend first_backend(first_client);
  DepSkyBackend second_backend(second_client);
  LocalCoordination coord(env_.get(), LatencyModel::Fixed(50 * kMillisecond));
  ScfsOptions options;
  options.user = "alice";
  options.user_cloud_ids = ids;
  ScfsFileSystem first(env_.get(), &coord, &first_backend, options);
  ScfsFileSystem second(env_.get(), &coord, &second_backend, options);
  ASSERT_TRUE(first.Mount().ok());
  ASSERT_TRUE(second.Mount().ok());

  ASSERT_TRUE(first.WriteFile("/f", Bytes(9000, 1)).ok());
  auto fh = second.Open("/f", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  ASSERT_TRUE(second.Write(*fh, 0, Bytes(9000, 2)).ok());
  const VirtualTime closing = env_->Now();
  ASSERT_TRUE(second.Close(*fh).ok());
  EXPECT_LT(env_->Now(), closing + second_client->RequestBudget());
  ASSERT_TRUE(first.SyncBarrier().ok());
  ASSERT_TRUE(second.SyncBarrier().ok());
  EXPECT_LE(second_client->predecessor_rereads(), 1u);
  EXPECT_EQ(second_client->predecessor_budget_waits(), 0u);

  auto entry = coord.Read("alice", MetadataKey("/f"));
  ASSERT_TRUE(entry.ok());
  auto md = FileMetadata::Decode(entry->value);
  ASSERT_TRUE(md.ok());
  EXPECT_GE(CloudsListingAll(clouds_, md->object_id,
                             {ContentHash(Bytes(9000, 1)),
                              ContentHash(Bytes(9000, 2))}),
            3u);
  ASSERT_TRUE(first.Unmount().ok());
  ASSERT_TRUE(second.Unmount().ok());
}

// A coordination service whose replies to a publish that releases a lock
// come back `delay` late: the command's slot runs at once — the next
// writer can take the lock — but its writer hears of it only later.
class LateReleaseReplies : public CoordinationService {
 public:
  LateReleaseReplies(Environment* env, CoordinationService* inner,
                     VirtualDuration delay)
      : env_(env), inner_(inner), delay_(delay) {}

  Result<CoordReply> Submit(const CoordCommand& command) override {
    Result<CoordReply> reply = inner_->Submit(command);
    if (command.op == CoordOp::kCompareAndSwap && !command.aux.empty()) {
      released_.Set(OkStatus());
      env_->Sleep(delay_);
    }
    return reply;
  }

  // Completes once a release's slot has run.
  Future<Status> released() const { return released_.future(); }

 private:
  Environment* env_;
  CoordinationService* inner_;
  VirtualDuration delay_;
  Promise<Status> released_;
};

// The handoff bound: a writer whose publish-and-release reply arrives more
// than HandoffBound() after it was sent launches no metadata PUT, because
// its successor may already have written its own. The successor waits out
// RequestBudget() + HandoffBound() for the listing, merges the late
// writer's version itself, and every version ends up listed on n-f clouds.
// (Had the late writer launched its PUT after the reply, its older history
// would land on top of the successor's on every cloud.)
TEST_F(DepSkyTimerTest, LateHandoffReplyLeavesTheListingToTheSuccessor) {
  UseLatencies(Spread());
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("deployment-auth-key");
  config.request_deadline = kSecond;
  std::vector<DepSkyCloud> set;
  std::vector<CanonicalId> ids;
  for (auto& cloud : clouds_) {
    ids.push_back(cloud->provider_name() + ":alice");
    set.push_back(DepSkyCloud{cloud.get(), {ids.back()}});
  }
  auto late_client = std::make_shared<DepSkyClient>(env_.get(), set, config, 7);
  auto next_client = std::make_shared<DepSkyClient>(env_.get(), set, config, 8);
  DepSkyBackend late_backend(late_client);
  DepSkyBackend next_backend(next_client);
  LocalCoordination coord(env_.get(), LatencyModel::Fixed(50 * kMillisecond));
  const VirtualDuration delay = next_client->RequestBudget() +
                                2 * next_client->HandoffBound() + kSecond;
  LateReleaseReplies late_coord(env_.get(), &coord, delay);
  ScfsOptions options;
  options.user = "alice";
  options.user_cloud_ids = ids;
  ScfsFileSystem late(env_.get(), &late_coord, &late_backend, options);
  ScfsFileSystem next(env_.get(), &coord, &next_backend, options);
  ASSERT_TRUE(late.Mount().ok());
  ASSERT_TRUE(next.Mount().ok());

  const Bytes v1(9000, 1), v2(9000, 2), v3(9000, 3);
  ASSERT_TRUE(next.WriteFile("/f", v1).ok());
  ASSERT_TRUE(next.SyncBarrier().ok());
  env_->Sleep(kSecond);  // the straggling metadata PUT lands

  auto fh = late.Open("/f", kOpenWrite | kOpenTruncate);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  ASSERT_TRUE(late.Write(*fh, 0, v2).ok());
  Status late_closed;
  std::thread closer([&] { late_closed = late.Close(*fh); });
  const auto patience =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!late_coord.released().ready() &&
         std::chrono::steady_clock::now() < patience) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!late_coord.released().ready()) {
    closer.join();
    FAIL() << "the close sent no publish that releases the lock";
  }

  // The successor takes the lock at once and writes v3 on top of v2.
  auto next_fh = next.Open("/f", kOpenWrite);
  ASSERT_TRUE(next_fh.ok()) << next_fh.status().ToString();
  EXPECT_EQ(*next.Read(*next_fh, 0, v2.size()), v2);
  ASSERT_TRUE(next.Write(*next_fh, 0, v3).ok());
  const VirtualTime closing = env_->Now();
  ASSERT_TRUE(next.Close(*next_fh).ok());
  const VirtualDuration bound =
      next_client->RequestBudget() + next_client->HandoffBound();
  EXPECT_GE(env_->Now(), closing + bound);
  EXPECT_LT(env_->Now(), closing + bound + 1500 * kMillisecond);
  EXPECT_EQ(next_client->predecessor_budget_waits(), 1u);

  closer.join();
  EXPECT_TRUE(late_closed.ok()) << late_closed.ToString();
  EXPECT_EQ(late_client->late_handoffs(), 1u);
  ASSERT_TRUE(late.SyncBarrier().ok());
  ASSERT_TRUE(next.SyncBarrier().ok());
  auto entry = coord.Read("alice", MetadataKey("/f"));
  ASSERT_TRUE(entry.ok());
  auto md = FileMetadata::Decode(entry->value);
  ASSERT_TRUE(md.ok());
  EXPECT_GE(CloudsListingAll(clouds_, md->object_id,
                             {ContentHash(v1), ContentHash(v2),
                              ContentHash(v3)}),
            3u);
  ASSERT_TRUE(late.Unmount().ok());
  ASSERT_TRUE(next.Unmount().ok());
}

// DeleteUnit waits for this client's own PUTs under the unit that are still
// in flight: a write returns at its quorum, and the slow cloud's metadata
// PUT would otherwise land after the listing and outlive the delete.
TEST_F(DepSkyTimerTest, DeleteUnitWaitsForItsOwnStragglingPuts) {
  UseLatencies({0, 0, 0, 2 * kSecond});
  DepSkyConfig config;
  config.request_deadline = 60 * kSecond;
  auto client = MakeClient(config);
  const Bytes data(9000, 4);
  ASSERT_TRUE(client.WriteVersion("f", ContentHash(data), data).ok());
  ASSERT_TRUE(client.DeleteUnit("f").ok());
  for (auto& cloud : clouds_) {
    cloud->Quiesce();
    auto listed = cloud->List({cloud->provider_name() + ":alice"}, "du/f/");
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    EXPECT_TRUE(listed->empty()) << cloud->provider_name() << " keeps "
                                 << listed->size() << " objects";
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker, driven by a fake clock.
// ---------------------------------------------------------------------------

TEST(CloudHealthTrackerTest, TripsAfterThresholdAndDemotes) {
  HealthOptions options;
  options.failure_threshold = 3;
  options.open_duration = FromMillis(1000);
  CloudHealthTracker tracker(4, options);
  VirtualTime now = 1000;

  EXPECT_FALSE(tracker.Demoted(1, now));
  tracker.RecordFailure(1, now);
  tracker.RecordFailure(1, now);
  EXPECT_FALSE(tracker.Demoted(1, now));  // below threshold
  tracker.RecordFailure(1, now);
  EXPECT_TRUE(tracker.Demoted(1, now));  // tripped
  EXPECT_EQ(tracker.breaker_trips(), 1u);
  EXPECT_EQ(tracker.snapshot(1, now).state, BreakerState::kOpen);

  // Still demoted just before the cooldown elapses; half-open after.
  now += FromMillis(999);
  EXPECT_TRUE(tracker.Demoted(1, now));
  now += FromMillis(2);
  EXPECT_FALSE(tracker.Demoted(1, now));
  EXPECT_EQ(tracker.snapshot(1, now).state, BreakerState::kHalfOpen);
}

TEST(CloudHealthTrackerTest, ProbeSuccessClosesProbeFailureReopens) {
  HealthOptions options;
  options.failure_threshold = 2;
  options.open_duration = FromMillis(1000);
  CloudHealthTracker tracker(2, options);
  VirtualTime now = 0;

  tracker.RecordFailure(0, now);
  tracker.RecordFailure(0, now);
  EXPECT_TRUE(tracker.Demoted(0, now));
  now += FromMillis(1500);  // cooldown elapsed: next op is the probe

  // Failed probe: re-opens for a fresh cooldown and counts a new trip.
  tracker.RecordFailure(0, now);
  EXPECT_TRUE(tracker.Demoted(0, now));
  EXPECT_EQ(tracker.breaker_trips(), 2u);
  now += FromMillis(1500);

  // Successful probe: closes.
  tracker.RecordSuccess(0, now, FromMillis(20));
  EXPECT_FALSE(tracker.Demoted(0, now));
  EXPECT_EQ(tracker.snapshot(0, now).state, BreakerState::kClosed);
  EXPECT_EQ(tracker.snapshot(0, now).consecutive_failures, 0);
}

TEST(CloudHealthTrackerTest, ReorderMovesDemotedToBackKeepingCostOrder) {
  HealthOptions options;
  options.failure_threshold = 1;
  options.open_duration = FromMillis(1000);
  CloudHealthTracker tracker(4, options);
  VirtualTime now = 0;
  tracker.RecordFailure(1, now);  // trips immediately (threshold 1)

  std::vector<unsigned> base(4);
  std::iota(base.begin(), base.end(), 0u);
  EXPECT_EQ(tracker.Reorder(base, now),
            (std::vector<unsigned>{0, 2, 3, 1}));

  // After the cooldown the cloud re-enters at its cost rank.
  now += FromMillis(1500);
  EXPECT_EQ(tracker.Reorder(base, now),
            (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(CloudHealthTrackerTest, ReorderByLatencySortsHealthyCloudsByEwma) {
  HealthOptions options;
  options.failure_threshold = 1;
  CloudHealthTracker tracker(5, options);
  const VirtualTime now = 0;
  tracker.RecordSuccess(0, now, 300 * kMillisecond);
  tracker.RecordSuccess(1, now, 100 * kMillisecond);
  tracker.RecordSuccess(3, now, 200 * kMillisecond);
  // Cloud 2 has no sample; cloud 4 has none either.
  const std::vector<unsigned> base = {0, 1, 2, 3, 4};
  EXPECT_EQ(tracker.ReorderByLatency(base, now),
            (std::vector<unsigned>{1, 3, 0, 2, 4}));
  // A demoted cloud goes last however fast it was.
  tracker.RecordFailure(1, now);
  EXPECT_EQ(tracker.ReorderByLatency(base, now),
            (std::vector<unsigned>{3, 0, 2, 4, 1}));
  // Reorder keeps cost order among the healthy.
  EXPECT_EQ(tracker.Reorder(base, now),
            (std::vector<unsigned>{0, 2, 3, 4, 1}));
}

TEST(CloudHealthTrackerTest, HedgeDelayTracksMedianHealthyLatency) {
  HealthOptions options;
  options.hedge_floor = FromMillis(50);
  options.hedge_multiplier = 2.0;
  options.ewma_alpha = 1.0;  // last sample wins: easy arithmetic
  CloudHealthTracker tracker(3, options);

  // No samples yet: the floor.
  EXPECT_EQ(tracker.HedgeDelay(), FromMillis(50));

  VirtualTime now = 0;
  tracker.RecordSuccess(0, now, FromMillis(40));
  tracker.RecordSuccess(1, now, FromMillis(100));
  tracker.RecordSuccess(2, now, FromMillis(400));
  // Median 100 ms * 2.0 = 200 ms.
  EXPECT_EQ(tracker.HedgeDelay(), FromMillis(200));
}

// ---------------------------------------------------------------------------
// BackoffPolicy.
// ---------------------------------------------------------------------------

TEST(BackoffPolicyTest, GrowsAndCapsWithJitterBounds) {
  BackoffPolicy policy{FromMillis(100), FromMillis(800), 2.0, 0.5};
  Rng rng(1);
  for (int attempt = 0; attempt < 10; ++attempt) {
    // Expected full (pre-jitter) delay: 100ms * 2^attempt, capped at 800ms.
    double full = 100.0 * kMillisecond;
    for (int i = 0; i < attempt && full < 800.0 * kMillisecond; ++i) {
      full *= 2;
    }
    full = std::min(full, 800.0 * kMillisecond);
    const VirtualDuration delay = policy.Delay(attempt, rng);
    EXPECT_LE(delay, static_cast<VirtualDuration>(full)) << attempt;
    EXPECT_GE(delay, static_cast<VirtualDuration>(full * 0.5) - 1) << attempt;
  }
}

TEST(BackoffPolicyTest, FixedIsDeterministic) {
  BackoffPolicy policy = BackoffPolicy::Fixed(FromMillis(30));
  Rng rng(2);
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_EQ(policy.Delay(attempt, rng), FromMillis(30));
  }
}

TEST(BackoffPolicyTest, ZeroJitterIsExact) {
  BackoffPolicy policy{FromMillis(10), FromMillis(40), 2.0, 0.0};
  Rng rng(3);
  EXPECT_EQ(policy.Delay(0, rng), FromMillis(10));
  EXPECT_EQ(policy.Delay(1, rng), FromMillis(20));
  EXPECT_EQ(policy.Delay(2, rng), FromMillis(40));
  EXPECT_EQ(policy.Delay(3, rng), FromMillis(40));  // capped
}

// ---------------------------------------------------------------------------
// Chaos campaign + background scrubber: outage with data loss, repair after.
// ---------------------------------------------------------------------------

TEST(StripedRepairChaosTest, OutageWithDataLossScrubRestoresRedundancy) {
  auto env = Environment::Instant();
  std::vector<std::unique_ptr<SimulatedCloud>> clouds;
  for (unsigned i = 0; i < 4; ++i) {
    CloudProfile profile;
    profile.name = "cloud" + std::to_string(i);
    clouds.push_back(
        std::make_unique<SimulatedCloud>(profile, env.get(), 60 + i));
  }
  DepSkyConfig config;
  config.f = 1;
  config.auth_key = ToBytes("deployment-auth-key");
  config.stripe_unit_size = 1024;
  config.stripe_inflight = 4;
  std::vector<DepSkyCloud> set;
  for (auto& cloud : clouds) {
    set.push_back(DepSkyCloud{cloud.get(),
                              {cloud->provider_name() + ":alice"}});
  }
  auto client =
      std::make_shared<DepSkyClient>(env.get(), std::move(set), config, 777);
  DepSkyBackend backend(client);
  // The scrubber rides a serialized background lane, like every other
  // non-blocking stage.
  BackgroundUploaderOptions lane_options;
  lane_options.serialize = true;
  BackgroundUploader lane(lane_options);
  BackgroundScrubber scrubber(&backend, &lane);
  scrubber.Track("f");

  Bytes data = Rng(31).RandomBytes(8 * 1024);
  const std::string hash = HexEncode(Sha1::Hash(data));
  auto locator = backend.WriteVersion("f", hash, data, {});
  ASSERT_TRUE(locator.ok());

  auto md = client->ReadMetadata("f");
  ASSERT_TRUE(md.ok());
  const DepSkyVersion version = md->versions.back();
  ASSERT_EQ(version.stripe_units.size(), 8u);

  // Pick a cloud that holds a shard of every unit, fail it with a chaos
  // campaign, and model permanent data loss: its stored objects for this
  // file are gone when the provider comes back.
  unsigned victim = 0;
  for (unsigned c = 0; c < clouds.size(); ++c) {
    bool holds_all = true;
    for (const auto& su : version.stripe_units) {
      holds_all = holds_all && su.cloud_shard[c] >= 0;
    }
    if (holds_all) {
      victim = c;
      break;
    }
  }
  for (size_t u = 0; u < version.stripe_units.size(); ++u) {
    ASSERT_TRUE(
        clouds[victim]
            ->Delete({clouds[victim]->provider_name() + ":alice"},
                     DepSkyClient::ValueKey("f", version, u))
            .ok());
  }
  auto schedule = ParseFaultSchedule(
      "kind=outage cloud=" + std::to_string(victim) + " at=0ms for=200ms\n");
  ASSERT_TRUE(schedule.ok());
  ChaosTargets targets;
  for (auto& cloud : clouds) {
    targets.clouds.push_back(cloud.get());
  }
  ChaosRunner runner(env.get(), *schedule, std::move(targets));
  ASSERT_TRUE(runner.Start().ok());

  // Clients read throughout the outage, both record-less (metadata round
  // first) and through the written record: the quorum protocol masks the
  // lost cloud, so not a single client operation may fail on either path.
  int client_errors = 0;
  int record_errors = 0;
  while (env->Now() < runner.origin() + schedule->horizon()) {
    auto read = backend.ReadByHash("f", hash, Bytes{});
    if (!read.ok() || *read != data) {
      ++client_errors;
    }
    auto record_read = backend.ReadByHash("f", hash, *locator);
    if (!record_read.ok() || *record_read != data) {
      ++record_errors;
    }
    env->Sleep(20 * kMillisecond);
  }
  runner.Join();
  EXPECT_EQ(client_errors, 0);
  EXPECT_EQ(record_errors, 0);

  // The outage is over but redundancy is still degraded (objects lost). One
  // background scrub pass restores it — in place where the provider accepts
  // the re-upload, relocated to the spare cloud where it does not.
  ASSERT_TRUE(scrubber.SchedulePass().Get().ok());
  lane.Drain();
  BackgroundScrubber::Stats stats = scrubber.stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.units_scrubbed, 1u);
  EXPECT_EQ(stats.objects_missing, version.stripe_units.size());
  EXPECT_EQ(stats.objects_repaired + stats.objects_relocated,
            version.stripe_units.size());
  EXPECT_EQ(stats.repair_failures, 0u);

  // A verification pass finds every recorded holder hash-valid again.
  auto verify = scrubber.RunPassNow();
  ASSERT_TRUE(verify.ok());
  EXPECT_EQ(verify->objects_missing, 0u);
  EXPECT_TRUE(verify->fully_redundant);
  EXPECT_EQ(*backend.ReadByHash("f", hash, Bytes{}), data);
  // The record taken before the scrub still reads, relocations or not.
  EXPECT_EQ(*backend.ReadByHash("f", hash, *locator), data);
}

// ---------------------------------------------------------------------------
// Lease-delegated caching under the "replica" builtin campaign: a replica
// restart, a cloud outage and a lease-expiry window overlap. Clients must
// fall back to the anchored read path (no new grants while suspended), never
// serve a read older than the last acked write, and keep the error rate
// bounded while the coordination plane is degraded underneath.
// ---------------------------------------------------------------------------

TEST(LeaseChaosTest, ReplicaCampaignFallsBackWithZeroStaleReads) {
  // Real SMR timers (view change, resend) need time to flow: Instant() would
  // fire every client timeout at once. 100x compression keeps the 8 s
  // campaign at ~80 ms of wall clock, and a host stall of a few real ms
  // costs phase 1 a few hundred virtual ms, not its whole 4 s margin.
  auto env = Environment::Scaled(1e-2);
  DeploymentOptions dopts;
  dopts.backend = ScfsBackendKind::kCoc;
  dopts.lease_ttl = 10 * kSecond;  // outlives the campaign horizon
  auto deployment = Deployment::Create(env.get(), dopts);

  ScfsOptions wopts;
  auto writer_or = deployment->Mount("alice", wopts);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  auto writer = std::move(*writer_or);
  ScfsOptions ropts;
  // Disable the short-term metadata cache on the reader so every stat is
  // answered by the lease (or, while grants are suspended, the anchored
  // path) — the staleness check below must not be blurred by the TTL cache.
  ropts.metadata_cache_ttl = 0;
  auto reader_or = deployment->Mount("alice", ropts);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  auto reader = std::move(*reader_or);

  ASSERT_TRUE(writer->Mkdir("/chaos").ok());
  size_t acked = 1;
  ASSERT_TRUE(writer->WriteFile("/chaos/f", Bytes(acked, 'v')).ok());
  env->Sleep(kSecond);
  // Prime the reader's delegation before the faults start.
  ASSERT_TRUE(reader->Stat("/chaos/f").ok());
  EXPECT_GE(reader->metadata_service().lease_grants(), 1u);

  auto schedule = BuiltinCampaign("replica");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ChaosRunner runner(env.get(), *schedule, TargetsFor(deployment.get()));
  ASSERT_TRUE(runner.Start().ok());

  // The lease_expiry fault window of the builtin campaign spans [5 s, 8 s)
  // after the runner's origin. Blocking writes under the concurrent cloud
  // outage can span seconds of virtual time, so instead of relying on op
  // pacing to land reads inside the window, phase 1 mixes writes and reads
  // until the window approaches, then phase 2 jumps the clock to mid-window
  // for a read-only burst (the grants-frozen assertion only applies to
  // reads that start AND finish inside the window).
  const auto window_open = runner.origin() + 5 * kSecond;
  const auto window_close = runner.origin() + 8 * kSecond;
  int write_ops = 0, read_ops = 0, errors = 0, stale_reads = 0;

  // Phase 1: writes racing reads, ending before the lease window opens.
  // Sizes grow monotonically, so once a write of `acked` bytes has been
  // acknowledged, any read returning fewer bytes is a stale read.
  while (env->Now() < runner.origin() + 4 * kSecond) {
    if (writer->WriteFile("/chaos/f", Bytes(acked + 1, 'v')).ok()) {
      ++acked;
    } else {
      ++errors;
    }
    ++write_ops;
    for (int i = 0; i < 4; ++i) {
      auto stat = reader->Stat("/chaos/f");
      ++read_ops;
      if (!stat.ok()) {
        ++errors;
      } else if (stat->size < acked) {
        ++stale_reads;
      }
      env->Sleep(50 * kMillisecond);
    }
  }

  // Phase 2: jump to mid-window. The chaos plane has suspended grants and
  // invalidated every delegation; reads must keep succeeding through the
  // anchored path without installing a single new grant.
  if (env->Now() < window_open + 600 * kMillisecond) {
    env->Sleep(window_open + 600 * kMillisecond - env->Now());
  }
  ASSERT_LT(env->Now(), window_close) << "phase 1 overran the lease window";
  EXPECT_FALSE(deployment->lease_manager()->AllowsGrants());
  const uint64_t grants_at_suspension =
      reader->metadata_service().lease_grants();
  int suspension_reads_ok = 0;
  for (int i = 0; i < 5; ++i) {
    const auto started = env->Now();
    auto stat = reader->Stat("/chaos/f");
    ++read_ops;
    if (!stat.ok()) {
      ++errors;
    } else if (stat->size < acked) {
      ++stale_reads;
    }
    if (started >= window_open && env->Now() < window_close) {
      if (stat.ok()) {
        ++suspension_reads_ok;
      }
      EXPECT_EQ(reader->metadata_service().lease_grants(),
                grants_at_suspension);
    }
    env->Sleep(50 * kMillisecond);
  }
  EXPECT_GT(suspension_reads_ok, 0);

  while (env->Now() < runner.origin() + schedule->horizon()) {
    env->Sleep(100 * kMillisecond);
  }
  runner.Join();

  // No read ever observed metadata older than the last acked write, and the
  // fault windows (all within the f = 1 margins) cost at most a bounded
  // sliver of operations.
  // Phase 1 always completes at least one write+read batch and phase 2
  // always issues 5 reads; under a sanitized (2-3x slower) build the real
  // slowdown feeds through the scaled clock into longer virtual ops, so
  // the floor is the guaranteed minimum, not a throughput expectation.
  EXPECT_EQ(stale_reads, 0);
  EXPECT_GE(read_ops, 9);
  EXPECT_LE(errors, (write_ops + read_ops) / 10 + 1);

  // Once the window closes, delegation resumes: the next read re-grants.
  EXPECT_TRUE(deployment->lease_manager()->AllowsGrants());
  env->Sleep(200 * kMillisecond);
  ASSERT_TRUE(reader->Stat("/chaos/f").ok());
  EXPECT_GT(reader->metadata_service().lease_grants(), grants_at_suspension);
}

}  // namespace
}  // namespace scfs
