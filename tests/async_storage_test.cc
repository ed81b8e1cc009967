// Tests for the asynchronous storage pipeline across the stack:
// SimulatedCloud's overlapping ObjectStore API, the rebuilt
// BackgroundUploader pipeline, fsapi CloseAsync/SyncBarrier, and a
// concurrency stress test asserting that DrainBackground() preserves the
// upload -> metadata -> unlock order of the non-blocking mode under many
// in-flight closes.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cloud/simulated_cloud.h"
#include "src/common/executor.h"
#include "src/common/future.h"
#include "src/scfs/background.h"
#include "src/scfs/deployment.h"

namespace scfs {
namespace {

CloudCredentials User() { return {"u"}; }

// ---------------------------------------------------------------------------
// ObjectStore async API
// ---------------------------------------------------------------------------

TEST(ObjectStoreAsyncTest, SimulatedCloudOverlapChargesMaxNotSum) {
  auto env = Environment::Scaled(0.001);
  CloudProfile profile;
  profile.name = "fixed-cloud";
  profile.write_latency = LatencyModel::Fixed(50 * kMillisecond);
  SimulatedCloud cloud(profile, env.get(), 7);

  Environment::ResetThreadCharged();
  std::vector<Future<Status>> puts;
  for (int i = 0; i < 4; ++i) {
    puts.push_back(
        cloud.PutAsync(User(), "k" + std::to_string(i), ToBytes("v")));
  }
  // Dispatch is free; the wait is charged at max-of-children by WhenAll.
  EXPECT_EQ(Environment::ThreadCharged(), 0);
  std::vector<Status> statuses = WhenAll<Status>(std::move(puts)).Get();
  for (const auto& s : statuses) {
    EXPECT_TRUE(s.ok());
  }
  EXPECT_EQ(Environment::ThreadCharged(), 50 * kMillisecond);

  for (int i = 0; i < 4; ++i) {
    auto got = cloud.Get(User(), "k" + std::to_string(i));
    ASSERT_TRUE(got.ok());
  }
}

TEST(ObjectStoreAsyncTest, DefaultAdaptersRunInlineWithZeroFutureCharge) {
  // A store that does not override the async API still works: the blocking
  // call runs inline (charging the caller directly) and the future is ready
  // with zero charge, so nothing is double-counted.
  auto env = Environment::Scaled(0.001);
  CloudProfile profile;
  profile.write_latency = LatencyModel::Fixed(20 * kMillisecond);
  SimulatedCloud cloud(profile, env.get(), 7);
  ObjectStore& base = cloud;

  Environment::ResetThreadCharged();
  Future<Status> put = base.ObjectStore::PutAsync(
      User(), "k", std::make_shared<const Bytes>(ToBytes("v")));
  ASSERT_TRUE(put.ready());
  EXPECT_EQ(Environment::ThreadCharged(), 20 * kMillisecond);
  EXPECT_EQ(put.charge(), 0);
  EXPECT_TRUE(put.Get().ok());

  Future<Result<Bytes>> get = base.ObjectStore::GetAsync(User(), "k");
  ASSERT_TRUE(get.ready());
  auto result = get.Get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToString(*result), "v");
}

TEST(ObjectStoreAsyncTest, ListAndDeleteAsyncOverlapControlRoundTrips) {
  auto env = Environment::Scaled(0.001);
  CloudProfile profile;
  profile.name = "fixed-cloud";
  profile.control_latency = LatencyModel::Fixed(40 * kMillisecond);
  SimulatedCloud cloud(profile, env.get(), 7);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        cloud.Put(User(), "p/k" + std::to_string(i), ToBytes("v")).ok());
  }

  // Concurrent LISTs overlap: the waiter pays one control round trip, not
  // four.
  Environment::ResetThreadCharged();
  std::vector<Future<Result<std::vector<ObjectInfo>>>> lists;
  for (int i = 0; i < 4; ++i) {
    lists.push_back(cloud.ListAsync(User(), "p/"));
  }
  auto listed =
      WhenAll<Result<std::vector<ObjectInfo>>>(std::move(lists)).Get();
  EXPECT_EQ(Environment::ThreadCharged(), 40 * kMillisecond);
  for (const auto& result : listed) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 4u);
  }

  // Async DELETEs fan out the same way, and a subsequent listing sees them.
  std::vector<Future<Status>> deletes;
  for (int i = 0; i < 4; ++i) {
    deletes.push_back(cloud.DeleteAsync(User(), "p/k" + std::to_string(i)));
  }
  for (const auto& s : WhenAll<Status>(std::move(deletes)).Get()) {
    EXPECT_TRUE(s.ok());
  }
  auto after = cloud.ListAsync(User(), "p/").Get();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

// ---------------------------------------------------------------------------
// BackgroundUploader pipeline
// ---------------------------------------------------------------------------

TEST(BackgroundUploaderTest, SerializedUploaderRunsFifo) {
  BackgroundUploaderOptions options;
  options.serialize = true;
  BackgroundUploader uploader(options);
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    uploader.Enqueue([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      return OkStatus();
    });
  }
  uploader.Drain();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(BackgroundUploaderTest, ChainsPreserveStageOrderAcrossConcurrency) {
  // 40 concurrent 3-stage chains (the shape of a non-blocking close: flush,
  // upload, publish+unlock). Stages of one chain must run in order; chains
  // may interleave freely.
  BackgroundUploader uploader;
  constexpr int kChains = 40;
  std::mutex mu;
  std::vector<std::pair<int, int>> log;  // (chain, stage)
  for (int c = 0; c < kChains; ++c) {
    auto record = [&, c](int stage) {
      std::lock_guard<std::mutex> lock(mu);
      log.emplace_back(c, stage);
      return OkStatus();
    };
    Future<Status> s0 = uploader.Enqueue([record] { return record(0); });
    Future<Status> s1 =
        uploader.EnqueueAfter(s0, [record] { return record(1); });
    uploader.EnqueueAfter(s1, [record] { return record(2); });
  }
  uploader.Drain();
  ASSERT_EQ(log.size(), kChains * 3u);
  std::vector<int> next_stage(kChains, 0);
  for (const auto& [chain, stage] : log) {
    EXPECT_EQ(stage, next_stage[chain]) << "chain " << chain;
    next_stage[chain] = stage + 1;
  }
}

TEST(BackgroundUploaderTest, BoundedDepthAppliesBackpressure) {
  BackgroundUploaderOptions options;
  options.max_depth = 2;
  BackgroundUploader uploader(options);

  Promise<int> gate;
  Future<int> gate_future = gate.future();
  for (int i = 0; i < 2; ++i) {
    uploader.Enqueue([gate_future] {
      gate_future.Wait();
      return OkStatus();
    });
  }
  std::atomic<bool> third_enqueued{false};
  std::thread producer([&] {
    uploader.Enqueue([] { return OkStatus(); });
    third_enqueued.store(true);
  });
  // The third stage must block while two are pending.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_enqueued.load());
  gate.Set(1);
  producer.join();
  EXPECT_TRUE(third_enqueued.load());
  uploader.Drain();
}

TEST(BackgroundUploaderTest, ReservedChainsNeverDeadlockUnderBackpressure) {
  // The close-pipeline shape: stage 2 is registered before its own stage 1
  // exists. With per-stage backpressure this deadlocks once max_depth
  // producers hold a stage-2 slot while blocking on stage 1; Reserve(2)
  // admits the whole chain atomically.
  BackgroundUploaderOptions options;
  options.max_depth = 2;  // one chain's worth: maximum contention
  BackgroundUploader uploader(options);
  constexpr int kThreads = 8;
  std::atomic<int> completed{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        uploader.Reserve(2);
        Promise<Status> gate;
        Future<Status> stage2 = uploader.EnqueueAfterReserved(
            gate.future(), [&] {
              completed.fetch_add(1);
              return OkStatus();
            });
        Future<Status> stage1 = uploader.EnqueueReserved([&] {
          completed.fetch_add(1);
          return OkStatus();
        });
        stage1.OnReady([gate](const Status& s, VirtualDuration c) {
          gate.Set(s, c);
        });
        (void)stage2;
      }
    });
  }
  for (auto& p : producers) {
    p.join();
  }
  uploader.Drain();
  EXPECT_EQ(completed.load(), kThreads * 4 * 2);
}

// ---------------------------------------------------------------------------
// fsapi CloseAsync / SyncBarrier and the non-blocking close pipeline
// ---------------------------------------------------------------------------

class AsyncCloseTest : public ::testing::TestWithParam<ScfsBackendKind> {
 protected:
  AsyncCloseTest() : env_(Environment::Instant()) {
    DeploymentOptions options;
    options.backend = GetParam();
    options.zero_latency = true;
    deployment_ = Deployment::Create(env_.get(), options);
  }

  std::unique_ptr<ScfsFileSystem> MountAgent(
      const std::string& user, ScfsMode mode = ScfsMode::kNonBlocking) {
    ScfsOptions options;
    options.mode = mode;
    auto fs = deployment_->Mount(user, options);
    EXPECT_TRUE(fs.ok()) << fs.status().ToString();
    return std::move(*fs);
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<Deployment> deployment_;
};

TEST_P(AsyncCloseTest, CloseAsyncCompletesAndPublishes) {
  auto alice = MountAgent("alice");
  auto fh = alice->Open("/f", kOpenWrite | kOpenCreate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(alice->Write(*fh, 0, ToBytes("async close")).ok());
  Future<Status> closed = alice->CloseAsync(*fh);
  // Level-1 future: the handle is already retired.
  EXPECT_EQ(alice->Read(*fh, 0, 4).status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(closed.Get().ok());
  // The writer reads its own close immediately, before any barrier.
  auto own = alice->ReadFile("/f");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(ToString(*own), "async close");

  ASSERT_TRUE(alice->SyncBarrier().ok());
  // A second machine logged in as the same user sees the published close.
  auto bob = MountAgent("alice");
  auto stat = bob->Stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 11u);
}

TEST_P(AsyncCloseTest, BlockingModeCloseAsyncIsFullyDurable) {
  auto alice = MountAgent("alice", ScfsMode::kBlocking);
  auto fh = alice->Open("/f", kOpenWrite | kOpenCreate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(alice->Write(*fh, 0, ToBytes("blocking")).ok());
  ASSERT_TRUE(alice->CloseAsync(*fh).Get().ok());
  // Durability 2/3 reached: a second agent sees the file with no barrier.
  auto bob = MountAgent("alice", ScfsMode::kBlocking);
  auto read = bob->ReadFile("/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "blocking");
}

TEST_P(AsyncCloseTest, FailedWriteDoesNotLeaveLockHeld) {
  auto alice = MountAgent("alice", ScfsMode::kBlocking);
  // Make the cloud backend unavailable so the close-time push fails.
  for (unsigned i = 0; i < deployment_->cloud_count(); ++i) {
    deployment_->cloud(i)->faults().SetUnavailable(true);
  }
  auto fh = alice->Open("/f", kOpenWrite | kOpenCreate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(alice->Write(*fh, 0, ToBytes("doomed")).ok());
  EXPECT_FALSE(alice->Close(*fh).ok());
  for (unsigned i = 0; i < deployment_->cloud_count(); ++i) {
    deployment_->cloud(i)->faults().SetUnavailable(false);
  }
  // The lock must have been released by the failed close.
  auto retry = alice->Open("/f", kOpenWrite);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ASSERT_TRUE(alice->Write(*retry, 0, ToBytes("recovered")).ok());
  ASSERT_TRUE(alice->Close(*retry).ok());
}

TEST_P(AsyncCloseTest, ReopenWhileUploadingPublishesClosesInOrder) {
  // The lock service is re-entrant, so a file may be reopened while the
  // previous close's chain is still in flight; the two closes must publish
  // in order or the stale metadata would win.
  auto alice = MountAgent("alice", ScfsMode::kNonBlocking);
  for (int round = 0; round < 10; ++round) {
    const std::string path = "/doc" + std::to_string(round);
    auto fh1 = alice->Open(path, kOpenWrite | kOpenCreate);
    ASSERT_TRUE(fh1.ok());
    ASSERT_TRUE(alice->Write(*fh1, 0, ToBytes("v1")).ok());
    Future<Status> close1 = alice->CloseAsync(*fh1);
    auto fh2 = alice->Open(path, kOpenWrite);
    ASSERT_TRUE(fh2.ok()) << "re-entrant lock must allow the reopen";
    ASSERT_TRUE(alice->Write(*fh2, 0, ToBytes("v2-final")).ok());
    Future<Status> close2 = alice->CloseAsync(*fh2);
    EXPECT_TRUE(close1.Get().ok());
    EXPECT_TRUE(close2.Get().ok());
  }
  alice->DrainBackground();
  auto reader = MountAgent("alice");
  for (int round = 0; round < 10; ++round) {
    auto read = reader->ReadFile("/doc" + std::to_string(round));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(ToString(*read), "v2-final") << "stale close overwrote newer";
  }
}

TEST_P(AsyncCloseTest, BlockingCloseAsyncThenUnlinkDoesNotResurrect) {
  auto alice = MountAgent("alice", ScfsMode::kBlocking);
  auto fh = alice->Open("/gone", kOpenWrite | kOpenCreate);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(alice->Write(*fh, 0, ToBytes("short-lived")).ok());
  Future<Status> closed = alice->CloseAsync(*fh);
  // Unlink races the in-flight close publication; it must serialize behind
  // it, not be resurrected by it.
  ASSERT_TRUE(alice->Unlink("/gone").ok());
  EXPECT_TRUE(closed.Get().ok());
  alice->DrainBackground();
  EXPECT_EQ(alice->Stat("/gone").status().code(), ErrorCode::kNotFound);
}

// The stress test of the satellite: many in-flight asynchronous closes, then
// DrainBackground(); every file must have completed its full
// upload -> metadata -> unlock chain, in that order.
TEST_P(AsyncCloseTest, DrainBackgroundPreservesChainOrderUnderManyCloses) {
  constexpr int kFiles = 32;
  auto alice = MountAgent("alice", ScfsMode::kNonBlocking);

  std::vector<Future<Status>> level1;
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/f" + std::to_string(i);
    auto fh = alice->Open(path, kOpenWrite | kOpenCreate);
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(
        alice->Write(*fh, 0, ToBytes("content-" + std::to_string(i))).ok());
    level1.push_back(alice->CloseAsync(*fh));
  }
  // All closes dispatched; every level-1 future completes successfully.
  for (auto& f : level1) {
    EXPECT_TRUE(f.Get().ok());
  }

  alice->DrainBackground();
  EXPECT_EQ(alice->uploader().pending(), 0u);

  // After the barrier the full chain has run for every file:
  //  - upload happened (a second agent can fetch the bytes from the cloud),
  //  - metadata was published (the second agent's stat sees the version),
  //  - the lock was released (the second agent can open for writing) —
  // and because the chain is ordered, metadata was never visible before the
  // upload nor the lock released before the metadata.
  auto bob = MountAgent("alice", ScfsMode::kNonBlocking);
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/f" + std::to_string(i);
    auto read = bob->ReadFile(path);
    ASSERT_TRUE(read.ok()) << path << ": " << read.status().ToString();
    EXPECT_EQ(ToString(*read), "content-" + std::to_string(i));
    auto fh = bob->Open(path, kOpenWrite);
    ASSERT_TRUE(fh.ok()) << path << ": lock not released";
    ASSERT_TRUE(bob->Close(*fh).ok());
  }
  bob->DrainBackground();
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncCloseTest,
                         ::testing::Values(ScfsBackendKind::kAws,
                                           ScfsBackendKind::kCoc));

}  // namespace
}  // namespace scfs
