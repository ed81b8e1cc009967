// Tests for the simulated cloud object stores: CRUD, eventual consistency
// windows, ACL enforcement, fault injection and cost metering.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cloud/cost_meter.h"
#include "src/cloud/providers.h"
#include "src/cloud/simulated_cloud.h"
#include "src/common/bytes.h"
#include "src/common/executor.h"
#include "src/common/future.h"

namespace scfs {
namespace {

CloudProfile FastProfile() {
  CloudProfile p;
  p.name = "test-cloud";
  p.prices = PriceBook::AmazonS3();
  return p;  // zero latency, zero consistency window
}

CloudCredentials Alice() { return {"alice"}; }
CloudCredentials Bob() { return {"bob"}; }

class SimulatedCloudTest : public ::testing::Test {
 protected:
  SimulatedCloudTest()
      : env_(Environment::Instant()),
        cloud_(FastProfile(), env_.get(), 1) {}

  std::unique_ptr<Environment> env_;
  SimulatedCloud cloud_;
};

TEST_F(SimulatedCloudTest, PutGetRoundTrip) {
  ASSERT_TRUE(cloud_.Put(Alice(), "k1", ToBytes("v1")).ok());
  auto got = cloud_.Get(Alice(), "k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v1");
}

TEST_F(SimulatedCloudTest, GetMissingIsNotFound) {
  EXPECT_EQ(cloud_.Get(Alice(), "nope").status().code(), ErrorCode::kNotFound);
}

TEST_F(SimulatedCloudTest, DeleteRemoves) {
  ASSERT_TRUE(cloud_.Put(Alice(), "k1", ToBytes("v1")).ok());
  ASSERT_TRUE(cloud_.Delete(Alice(), "k1").ok());
  EXPECT_FALSE(cloud_.Get(Alice(), "k1").ok());
  EXPECT_EQ(cloud_.Delete(Alice(), "k1").code(), ErrorCode::kNotFound);
}

TEST_F(SimulatedCloudTest, ListByPrefix) {
  cloud_.Put(Alice(), "a/1", ToBytes("x"));
  cloud_.Put(Alice(), "a/2", ToBytes("xy"));
  cloud_.Put(Alice(), "b/1", ToBytes("z"));
  auto listed = cloud_.List(Alice(), "a/");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].key, "a/1");
  EXPECT_EQ((*listed)[1].key, "a/2");
  EXPECT_EQ((*listed)[1].size, 2u);
}

TEST_F(SimulatedCloudTest, NewObjectsImmediatelyVisible) {
  // Read-after-write consistency for new keys (S3 semantics).
  CloudProfile p = FastProfile();
  p.consistency_window_base = 10 * kSecond;
  SimulatedCloud cloud(p, env_.get(), 2);
  ASSERT_TRUE(cloud.Put(Alice(), "new", ToBytes("v")).ok());
  EXPECT_TRUE(cloud.Get(Alice(), "new").ok());
}

TEST_F(SimulatedCloudTest, OverwritesAreEventuallyConsistent) {
  CloudProfile p = FastProfile();
  p.consistency_window_base = 10 * kSecond;
  SimulatedCloud cloud(p, env_.get(), 2);
  ASSERT_TRUE(cloud.Put(Alice(), "k", ToBytes("old")).ok());
  ASSERT_TRUE(cloud.Put(Alice(), "k", ToBytes("new")).ok());
  // Inside the window: stale read.
  auto stale = cloud.Get(Alice(), "k");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(ToString(*stale), "old");
  // After the window: fresh read.
  env_->Sleep(11 * kSecond);
  auto fresh = cloud.Get(Alice(), "k");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ToString(*fresh), "new");
}

TEST_F(SimulatedCloudTest, AclOwnerFullAccess) {
  ASSERT_TRUE(cloud_.Put(Alice(), "mine", ToBytes("v")).ok());
  EXPECT_TRUE(cloud_.Get(Alice(), "mine").ok());
  EXPECT_TRUE(cloud_.Put(Alice(), "mine", ToBytes("v2")).ok());
}

TEST_F(SimulatedCloudTest, AclStrangerDenied) {
  ASSERT_TRUE(cloud_.Put(Alice(), "mine", ToBytes("v")).ok());
  EXPECT_EQ(cloud_.Get(Bob(), "mine").status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(cloud_.Put(Bob(), "mine", ToBytes("evil")).code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(cloud_.Delete(Bob(), "mine").code(),
            ErrorCode::kPermissionDenied);
}

TEST_F(SimulatedCloudTest, AclGrantReadThenRevoke) {
  ASSERT_TRUE(cloud_.Put(Alice(), "shared", ToBytes("v")).ok());
  ASSERT_TRUE(
      cloud_.SetAcl(Alice(), "shared", "bob", ObjectPermissions::ReadOnly())
          .ok());
  EXPECT_TRUE(cloud_.Get(Bob(), "shared").ok());
  EXPECT_EQ(cloud_.Put(Bob(), "shared", ToBytes("w")).code(),
            ErrorCode::kPermissionDenied);
  // Revoke.
  ASSERT_TRUE(
      cloud_.SetAcl(Alice(), "shared", "bob", ObjectPermissions::None()).ok());
  EXPECT_FALSE(cloud_.Get(Bob(), "shared").ok());
}

TEST_F(SimulatedCloudTest, AclGrantWrite) {
  ASSERT_TRUE(cloud_.Put(Alice(), "shared", ToBytes("v")).ok());
  ASSERT_TRUE(
      cloud_.SetAcl(Alice(), "shared", "bob", ObjectPermissions::ReadWrite())
          .ok());
  EXPECT_TRUE(cloud_.Put(Bob(), "shared", ToBytes("w")).ok());
  // Ownership does not transfer: bob cannot change ACLs.
  EXPECT_EQ(
      cloud_.SetAcl(Bob(), "shared", "carol", ObjectPermissions::ReadOnly())
          .code(),
      ErrorCode::kPermissionDenied);
}

TEST_F(SimulatedCloudTest, ListHidesUnreadableObjects) {
  cloud_.Put(Alice(), "p/a", ToBytes("1"));
  cloud_.Put(Bob(), "p/b", ToBytes("2"));
  auto listed = cloud_.List(Bob(), "p/");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].key, "p/b");
}

TEST_F(SimulatedCloudTest, OutageFailsOperations) {
  cloud_.Put(Alice(), "k", ToBytes("v"));
  cloud_.faults().SetUnavailable(true);
  EXPECT_EQ(cloud_.Get(Alice(), "k").status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(cloud_.Put(Alice(), "k2", ToBytes("v")).code(),
            ErrorCode::kUnavailable);
  cloud_.faults().SetUnavailable(false);
  EXPECT_TRUE(cloud_.Get(Alice(), "k").ok());
}

TEST_F(SimulatedCloudTest, CorruptionFlipsBytes) {
  Bytes data = ToBytes("some object payload");
  cloud_.Put(Alice(), "k", data);
  cloud_.faults().CorruptNextReads(1);
  auto corrupted = cloud_.Get(Alice(), "k");
  ASSERT_TRUE(corrupted.ok());
  EXPECT_NE(*corrupted, data);
  auto clean = cloud_.Get(Alice(), "k");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(*clean, data);
}

TEST_F(SimulatedCloudTest, ByzantineServesStaleVersion) {
  CloudProfile p = FastProfile();
  p.consistency_window_base = 10 * kSecond;
  SimulatedCloud cloud(p, env_.get(), 3);
  cloud.Put(Alice(), "k", ToBytes("v1"));
  cloud.Put(Alice(), "k", ToBytes("v2"));
  env_->Sleep(20 * kSecond);
  // An honest read now sees v2...
  auto honest = cloud.Get(Alice(), "k");
  ASSERT_TRUE(honest.ok());
  EXPECT_EQ(ToString(*honest), "v2");
  // ...but a byzantine provider may roll back to the oldest retained version.
  cloud.faults().SetByzantine(true);
  auto got = cloud.Get(Alice(), "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v1");
}

TEST_F(SimulatedCloudTest, CostMeterCountsRequestsAndTraffic) {
  Bytes data(1024 * 1024, 7);  // 1 MB
  cloud_.Put(Alice(), "k", data);
  cloud_.Get(Alice(), "k");
  cloud_.List(Alice(), "");
  auto totals = cloud_.costs().Totals("alice");
  EXPECT_EQ(totals.puts, 1u);
  EXPECT_EQ(totals.gets, 1u);
  EXPECT_EQ(totals.lists, 1u);
  EXPECT_EQ(totals.bytes_in, data.size());
  EXPECT_EQ(totals.bytes_out, data.size());
  // Inbound free, outbound ~ 1/1024 GB * $0.12.
  EXPECT_DOUBLE_EQ(totals.inbound_cost, 0.0);
  EXPECT_NEAR(totals.outbound_cost, 0.12 / 1024.0, 1e-9);
}

TEST_F(SimulatedCloudTest, StorageFootprintTracksOwner) {
  Bytes data(1000, 1);
  cloud_.Put(Alice(), "k", data);
  EXPECT_EQ(cloud_.costs().StoredBytes("alice"), 1000u);
  cloud_.Put(Alice(), "k", Bytes(500, 2));
  env_->Sleep(kSecond);
  EXPECT_EQ(cloud_.costs().StoredBytes("alice"), 500u);
  cloud_.Delete(Alice(), "k");
  EXPECT_EQ(cloud_.costs().StoredBytes("alice"), 0u);
}

TEST_F(SimulatedCloudTest, StorageCostPerDayMatchesPriceBook) {
  Bytes data(1024 * 1024 * 30, 1);  // 30 MB
  cloud_.Put(Alice(), "k", data);
  double per_day = cloud_.costs().StorageCostPerDay("alice");
  // 30 MB * $0.09/GB-month / 30 days.
  double expected = 30.0 / 1024.0 * 0.09 / 30.0;
  EXPECT_NEAR(per_day, expected, expected * 0.01);
}

TEST(CloudLatencyTest, ScaledEnvironmentChargesLatency) {
  auto env = Environment::Scaled(1e-5);
  CloudProfile p = FastProfile();
  p.write_latency = LatencyModel::Fixed(200 * kMillisecond);
  SimulatedCloud cloud(p, env.get(), 4);
  VirtualTime t0 = env->Now();
  cloud.Put(Alice(), "k", ToBytes("v"));
  EXPECT_GE(env->Now() - t0, 200 * kMillisecond);
}

// An asynchronous request is charged exactly the modelled time a blocking
// call would sleep: round trip, degradation delay and, for a GET, the
// payload's transfer time.
TEST(CloudLatencyTest, AsyncRequestsChargeTheirModelledLatency) {
  auto env = Environment::Scaled(1e-4);
  CloudProfile p = FastProfile();
  p.write_latency = LatencyModel::Fixed(200 * kMillisecond);
  p.read_latency = LatencyModel::WideArea(100 * kMillisecond, 0, 1.0);
  p.control_latency = LatencyModel::Fixed(30 * kMillisecond);
  SimulatedCloud cloud(p, env.get(), 4);
  cloud.faults().SetLatencyDegradation(50 * kMillisecond);
  const Bytes data(128 * 1024, 9);  // 125 ms at 1 MB/s

  VirtualTime t0 = env->Now();
  Future<Status> put = cloud.PutAsync(Alice(), "k", data);
  ASSERT_TRUE(put.Get().ok());
  EXPECT_EQ(put.charge(), 250 * kMillisecond);
  EXPECT_GE(env->Now() - t0, 250 * kMillisecond);

  Future<Result<Bytes>> get = cloud.GetAsync(Alice(), "k");
  ASSERT_TRUE(get.Get().ok());
  EXPECT_EQ(*get.Get(), data);
  EXPECT_EQ(get.charge(), 275 * kMillisecond);

  Future<Result<std::vector<ObjectInfo>>> list = cloud.ListAsync(Alice(), "");
  ASSERT_TRUE(list.Get().ok());
  EXPECT_EQ(list.Get()->size(), 1u);
  EXPECT_EQ(list.charge(), 80 * kMillisecond);
  Future<Status> acl =
      cloud.SetAclAsync(Alice(), "k", "bob", ObjectPermissions::ReadOnly());
  ASSERT_TRUE(acl.Get().ok());
  EXPECT_EQ(acl.charge(), 80 * kMillisecond);

  // A request that fails still paid the round trip and the degradation.
  cloud.faults().SetUnavailable(true);
  Future<Status> del = cloud.DeleteAsync(Alice(), "k");
  EXPECT_EQ(del.Get().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(del.charge(), 80 * kMillisecond);
  cloud.Quiesce();
}

// In a scaled environment an in-flight request holds no executor thread: it
// waits on the cloud's timer queue, and a worker runs only its store step.
// One sleeping worker per request would spawn a thread for each of these.
TEST(CloudLatencyTest, AsyncRequestsHoldNoThreadWhileInFlight) {
  auto env = Environment::Scaled(1e-2);
  CloudProfile p = FastProfile();
  p.write_latency = LatencyModel{5 * kSecond, kSecond, 0.0};
  SimulatedCloud cloud(p, env.get(), 5);
  const size_t threads_before = DefaultExecutor().thread_count();
  constexpr int kRequests = 64;
  std::vector<Future<Status>> puts;
  for (int i = 0; i < kRequests; ++i) {
    puts.push_back(cloud.PutAsync(Alice(), "k" + std::to_string(i),
                                  ToBytes("v")));
  }
  env->Sleep(kSecond);  // every request is still in flight
  EXPECT_LT(DefaultExecutor().thread_count() - threads_before, 4u);
  for (const auto& status : WhenAll<Status>(puts).Get()) {
    EXPECT_TRUE(status.ok());
  }
  cloud.Quiesce();
}

TEST(ProvidersTest, AllProfilesDistinctAndPriced) {
  auto profiles = CocStorageProfiles();
  ASSERT_EQ(profiles.size(), 4u);
  std::set<std::string> names;
  for (const auto& p : profiles) {
    names.insert(p.name);
    EXPECT_GT(p.read_latency.base, 0);
    EXPECT_GT(p.write_latency.base, 0);
    EXPECT_GT(p.read_latency.bytes_per_second, 0.0);
    EXPECT_GT(p.prices.outbound_per_gb, 0.0);
    EXPECT_DOUBLE_EQ(p.prices.inbound_per_gb, 0.0);  // free uploads
    EXPECT_GT(p.consistency_window_jitter, 0);
  }
  EXPECT_EQ(names.size(), 4u);
}

TEST(ProvidersTest, CocStorageProfilesAreCheapestFirst) {
  // DepSky's preferred quorum is the first n-f clouds of this list.
  auto profiles = CocStorageProfiles();
  ASSERT_EQ(profiles.size(), 4u);
  for (size_t i = 1; i < profiles.size(); ++i) {
    const PriceBook& prev = profiles[i - 1].prices;
    const PriceBook& next = profiles[i].prices;
    EXPECT_TRUE(prev.put_per_10k < next.put_per_10k ||
                (prev.put_per_10k == next.put_per_10k &&
                 prev.get_per_10k <= next.get_per_10k))
        << profiles[i - 1].name << " listed before " << profiles[i].name;
  }
}

TEST(ProvidersTest, CoordinationVmPricing) {
  // Figure 11a: 1 EC2 Large = $6.24/day; CoC Large ~= $39.6/day.
  EXPECT_DOUBLE_EQ(CoordinationVmPricePerDay(0, false), 6.24);
  double coc = 0.0;
  double coc_xl = 0.0;
  for (unsigned i = 0; i < 4; ++i) {
    coc += CoordinationVmPricePerDay(i, false);
    coc_xl += CoordinationVmPricePerDay(i, true);
  }
  EXPECT_NEAR(coc, 39.60, 0.01);
  EXPECT_NEAR(coc_xl, 77.04, 0.01);
  EXPECT_EQ(CoordinationCapacityTuples(false), 7u * 1000 * 1000);
  EXPECT_EQ(CoordinationCapacityTuples(true), 15u * 1000 * 1000);
}

TEST(ProvidersTest, MakeCloudWorks) {
  auto env = Environment::Instant();
  auto cloud = MakeCloud(ProviderId::kAzureBlob, env.get(), 5);
  EXPECT_EQ(cloud->provider_name(), "azure-blob");
  EXPECT_TRUE(cloud->Put({"u"}, "k", ToBytes("v")).ok());
}

}  // namespace
}  // namespace scfs
