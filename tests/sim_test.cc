// Unit tests for the simulation kernel: environments, latency models, fault
// injection and the delayed-delivery queue.

#include <gtest/gtest.h>

#include <thread>

#include "src/sim/environment.h"
#include "src/sim/fault.h"
#include "src/sim/latency.h"
#include "src/sim/queue.h"

namespace scfs {
namespace {

TEST(EnvironmentTest, InstantModeAdvancesOnSleep) {
  auto env = Environment::Instant();
  VirtualTime t0 = env->Now();
  env->Sleep(5 * kSecond);
  EXPECT_GE(env->Now() - t0, 5 * kSecond);
}

TEST(EnvironmentTest, InstantSleepDoesNotBlock) {
  auto env = Environment::Instant();
  auto start = std::chrono::steady_clock::now();
  env->Sleep(3600 * kSecond);  // one virtual hour
  auto real = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(real).count(),
            100);
}

TEST(EnvironmentTest, ScaledModeTracksRealTime) {
  // 1 virtual second = 10 real ms => sleeping 100 virtual ms costs ~1 real
  // ms, and the upper bound below is 50 real ms: wide enough for a loaded
  // host's wake-up latency, narrow enough to catch a clock that stalls.
  auto env = Environment::Scaled(1e-2);
  VirtualTime t0 = env->Now();
  env->Sleep(100 * kMillisecond);
  VirtualTime elapsed = env->Now() - t0;
  EXPECT_GE(elapsed, 90 * kMillisecond);
  EXPECT_LT(elapsed, 5000 * kMillisecond);  // generous upper bound
}

TEST(EnvironmentTest, NegativeSleepIsNoop) {
  auto env = Environment::Instant();
  VirtualTime t0 = env->Now();
  env->Sleep(-100);
  EXPECT_EQ(env->Now(), t0);
}

TEST(LatencyModelTest, NoneIsZero) {
  Rng rng(1);
  EXPECT_EQ(LatencyModel::None().Sample(rng, 1000000), 0);
}

TEST(LatencyModelTest, FixedBase) {
  Rng rng(1);
  auto model = LatencyModel::Fixed(50 * kMillisecond);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.Sample(rng, 0), 50 * kMillisecond);
  }
}

TEST(LatencyModelTest, JitterWithinBounds) {
  Rng rng(1);
  LatencyModel model{10 * kMillisecond, 5 * kMillisecond, 0.0};
  for (int i = 0; i < 200; ++i) {
    auto d = model.Sample(rng, 0);
    EXPECT_GE(d, 10 * kMillisecond);
    EXPECT_LE(d, 15 * kMillisecond);
  }
}

TEST(LatencyModelTest, BandwidthScalesWithSize) {
  Rng rng(1);
  auto model = LatencyModel::WideArea(0, 0, 1.0);  // 1 MB/s
  auto one_mb = model.Sample(rng, 1024 * 1024);
  EXPECT_NEAR(static_cast<double>(one_mb), kSecond, kSecond * 0.01);
  auto two_mb = model.Sample(rng, 2 * 1024 * 1024);
  EXPECT_NEAR(static_cast<double>(two_mb), 2.0 * kSecond, kSecond * 0.02);
}

TEST(FaultInjectorTest, UnavailableFailsEverything) {
  FaultInjector faults;
  EXPECT_FALSE(faults.ShouldFailOperation());
  faults.SetUnavailable(true);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(faults.ShouldFailOperation());
  }
  faults.SetUnavailable(false);
  EXPECT_FALSE(faults.ShouldFailOperation());
}

TEST(FaultInjectorTest, TransientFailureProbability) {
  FaultInjector faults;
  faults.SetTransientFailureProbability(0.5);
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    if (faults.ShouldFailOperation()) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 350);
  EXPECT_LT(failures, 650);
}

TEST(FaultInjectorTest, CorruptNextReadsCountsDown) {
  FaultInjector faults;
  EXPECT_FALSE(faults.ShouldCorruptRead());
  faults.CorruptNextReads(2);
  EXPECT_TRUE(faults.ShouldCorruptRead());
  EXPECT_TRUE(faults.ShouldCorruptRead());
  EXPECT_FALSE(faults.ShouldCorruptRead());
}

TEST(FaultInjectorTest, CorruptAllReads) {
  FaultInjector faults;
  faults.SetCorruptAllReads(true);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(faults.ShouldCorruptRead());
  }
  faults.SetCorruptAllReads(false);
  EXPECT_FALSE(faults.ShouldCorruptRead());
}

TEST(DelayedQueueTest, FifoForEqualDeliveryTimes) {
  auto env = Environment::Instant();
  DelayedQueue<int> queue(env.get());
  queue.PushNow(1);
  queue.PushNow(2);
  queue.PushNow(3);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_EQ(queue.Pop().value(), 3);
}

TEST(DelayedQueueTest, DeliveryOrderFollowsDeadlines) {
  auto env = Environment::Instant();
  DelayedQueue<int> queue(env.get());
  VirtualTime now = env->Now();
  queue.Push(2, now + 20 * kMillisecond);
  queue.Push(1, now + 10 * kMillisecond);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
}

TEST(DelayedQueueTest, TryPopRespectsDeliveryTime) {
  auto env = Environment::Instant();
  DelayedQueue<int> queue(env.get());
  queue.Push(1, env->Now() + kSecond);
  EXPECT_FALSE(queue.TryPop().has_value());
  env->Sleep(2 * kSecond);
  EXPECT_TRUE(queue.TryPop().has_value());
}

TEST(DelayedQueueTest, PopForTimesOut) {
  auto env = Environment::Instant();
  DelayedQueue<int> queue(env.get());
  EXPECT_FALSE(queue.PopFor(10 * kMillisecond).has_value());
}

TEST(DelayedQueueTest, CloseUnblocksPop) {
  auto env = Environment::Scaled(1e-5);
  DelayedQueue<int> queue(env.get());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.Close();
  });
  EXPECT_FALSE(queue.Pop().has_value());
  closer.join();
}

TEST(DelayedQueueTest, ScaledModeDelaysDelivery) {
  auto env = Environment::Scaled(1e-5);
  DelayedQueue<int> queue(env.get());
  queue.Push(42, env->Now() + 100 * kMillisecond);
  auto v = queue.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_GE(env->Now(), 100 * kMillisecond);
}

TEST(DelayedQueueTest, ManyProducersOneConsumer) {
  auto env = Environment::Scaled(1e-6);
  DelayedQueue<int> queue(env.get());
  constexpr int kPerProducer = 50;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&queue, &env, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.Push(p * kPerProducer + i, env->Now() + i * kMillisecond);
      }
    });
  }
  std::set<int> seen;
  for (int i = 0; i < 4 * kPerProducer; ++i) {
    auto v = queue.Pop();
    ASSERT_TRUE(v.has_value());
    seen.insert(*v);
  }
  EXPECT_EQ(seen.size(), 4u * kPerProducer);
  for (auto& t : producers) {
    t.join();
  }
}

}  // namespace
}  // namespace scfs
