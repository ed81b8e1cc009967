// Unit tests for the SCFS storage service: two-level content-addressed
// caching, disk spill-over, the always-write/avoid-reading discipline and the
// consistency-anchor read loop.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/cloud/simulated_cloud.h"
#include "src/crypto/sha1.h"
#include "src/scfs/blob_backend.h"
#include "src/scfs/storage_service.h"

namespace scfs {
namespace {

std::string HashOf(const Bytes& data) { return HexEncode(Sha1::Hash(data)); }

class StorageServiceTest : public ::testing::Test {
 protected:
  StorageServiceTest()
      : env_(Environment::Instant()),
        cloud_(CloudProfile{}, env_.get(), 1),
        backend_(&cloud_, CloudCredentials{"u"}) {}

  StorageService MakeService(size_t memory_bytes, size_t disk_bytes) {
    StorageServiceOptions options;
    options.memory_cache_bytes = memory_bytes;
    options.disk_cache_bytes = disk_bytes;
    options.read_backoff = BackoffPolicy::Fixed(kMillisecond);
    options.max_read_retries = 20;
    return StorageService(env_.get(), &backend_, options);
  }

  std::unique_ptr<Environment> env_;
  SimulatedCloud cloud_;
  SingleCloudBackend backend_;
};

TEST_F(StorageServiceTest, PushThenFetchIsMemoryHit) {
  auto service = MakeService(1 << 20, 10 << 20);
  Bytes data = ToBytes("cached content");
  ASSERT_TRUE(service.Push("obj", HashOf(data), data, {}).ok());
  auto fetched = service.Fetch("obj", HashOf(data));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, data);
  EXPECT_EQ(service.memory_hits(), 1u);
  EXPECT_EQ(service.cloud_reads(), 0u);
}

TEST_F(StorageServiceTest, PushIsDurableInCloud) {
  auto service = MakeService(1 << 20, 10 << 20);
  Bytes data = ToBytes("durable");
  ASSERT_TRUE(service.Push("obj", HashOf(data), data, {}).ok());
  // A different service instance (fresh caches) reads it from the cloud.
  auto other = MakeService(1 << 20, 10 << 20);
  auto fetched = other.Fetch("obj", HashOf(data));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, data);
  EXPECT_EQ(other.cloud_reads(), 1u);
}

TEST_F(StorageServiceTest, MemoryEvictionSpillsToDisk) {
  // Budget for ~2 x 1KB objects; the third insert evicts the LRU to disk.
  auto service = MakeService(2048, 1 << 20);
  Bytes a(1000, 'a');
  Bytes b(1000, 'b');
  Bytes c(1000, 'c');
  service.PutMemory("A", HashOf(a), a);
  service.PutMemory("B", HashOf(b), b);
  service.PutMemory("C", HashOf(c), c);  // evicts A to disk
  EXPECT_TRUE(service.HasLocal("A", HashOf(a)));
  auto fetched = service.Fetch("A", HashOf(a));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, a);
  EXPECT_GE(service.disk_hits(), 1u);
  EXPECT_EQ(service.cloud_reads(), 0u);
}

size_t FilesIn(const std::filesystem::path& dir) {
  size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    count += entry.is_regular_file() ? 1 : 0;
  }
  return count;
}

TEST_F(StorageServiceTest, DiskCacheBudgetCountsBytes) {
  // 2500 bytes hold two 1000-byte files; the third evicts the oldest, and
  // its file goes with it.
  auto service = MakeService(1 << 20, 2500);
  Bytes a(1000, 'a');
  Bytes b(1000, 'b');
  Bytes c(1000, 'c');
  ASSERT_TRUE(service.FlushToDisk("A", HashOf(a), a).ok());
  ASSERT_TRUE(service.FlushToDisk("B", HashOf(b), b).ok());
  ASSERT_TRUE(service.FlushToDisk("C", HashOf(c), c).ok());
  EXPECT_FALSE(service.HasLocal("A", HashOf(a)));
  EXPECT_TRUE(service.HasLocal("B", HashOf(b)));
  EXPECT_TRUE(service.HasLocal("C", HashOf(c)));
  EXPECT_EQ(FilesIn(service.disk_dir()), 2u);
}

TEST_F(StorageServiceTest, EntryLargerThanDiskBudgetLeavesNoFile) {
  auto service = MakeService(1 << 20, 500);
  Bytes big(1000, 'x');
  ASSERT_TRUE(service.FlushToDisk("big", HashOf(big), big).ok());
  EXPECT_FALSE(service.HasLocal("big", HashOf(big)));
  EXPECT_EQ(FilesIn(service.disk_dir()), 0u);
}

TEST_F(StorageServiceTest, ContentAddressingDistinguishesVersions) {
  auto service = MakeService(1 << 20, 10 << 20);
  Bytes v1 = ToBytes("version 1");
  Bytes v2 = ToBytes("version 2!");
  ASSERT_TRUE(service.Push("obj", HashOf(v1), v1, {}).ok());
  ASSERT_TRUE(service.Push("obj", HashOf(v2), v2, {}).ok());
  EXPECT_EQ(*service.Fetch("obj", HashOf(v1)), v1);
  EXPECT_EQ(*service.Fetch("obj", HashOf(v2)), v2);
  // A hash we never stored is not served from any cache.
  EXPECT_FALSE(service.HasLocal("obj", HashOf(ToBytes("version 3"))));
}

TEST_F(StorageServiceTest, EmptyHashMeansEmptyFile) {
  auto service = MakeService(1 << 20, 10 << 20);
  auto fetched = service.Fetch("whatever", "");
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched->empty());
}

TEST_F(StorageServiceTest, ReadLoopWaitsOutConsistencyWindow) {
  // The backend sees the version only after its visibility window; Fetch must
  // retry (Figure 3 r2) instead of failing.
  CloudProfile windowed;
  windowed.consistency_window_base = 5 * kMillisecond;
  SimulatedCloud cloud(windowed, env_.get(), 2);
  SingleCloudBackend backend(&cloud, CloudCredentials{"u"});
  StorageServiceOptions options;
  options.read_backoff = BackoffPolicy::Fixed(kMillisecond);
  options.max_read_retries = 50;
  StorageService service(env_.get(), &backend, options);

  // Simulate "another client wrote v2": the value object key id|hash is new
  // (instantly visible in S3 semantics), so instead exercise the loop with a
  // key that only appears later.
  Bytes data = ToBytes("late");
  std::string hash = HashOf(data);
  // Write directly after a delay marker: first Fetch attempts will miss.
  auto miss = service.Fetch("obj", hash);
  EXPECT_FALSE(miss.ok());  // never written: exhausts retries
  EXPECT_EQ(miss.status().code(), ErrorCode::kTimeout);
  EXPECT_GE(service.read_retries(), 1u);

  ASSERT_TRUE(backend.WriteVersion("obj", hash, data, {}).ok());
  auto hit = service.Fetch("obj", hash);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, data);
}

TEST_F(StorageServiceTest, FlushToDiskGivesLevel1Durability) {
  auto service = MakeService(1 << 20, 10 << 20);
  Bytes data = ToBytes("fsynced");
  ASSERT_TRUE(service.FlushToDisk("obj", HashOf(data), data).ok());
  EXPECT_TRUE(service.HasLocal("obj", HashOf(data)));
  // Not pushed to the cloud by fsync.
  EXPECT_EQ(backend_.ReadByHash("obj", HashOf(data)).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(StorageServiceTest, CorruptCloudReadSurfacesAsError) {
  auto service = MakeService(1 << 20, 10 << 20);
  Bytes data(4096, 7);
  ASSERT_TRUE(backend_.WriteVersion("obj", HashOf(data), data, {}).ok());
  cloud_.faults().SetCorruptAllReads(true);
  auto fetched = service.Fetch("obj", HashOf(data));
  // The single-cloud backend has no redundancy: the fetch returns corrupted
  // bytes; SCFS's open path detects this via the anchor-hash check. Verify
  // the bytes indeed mismatch the hash so that check would fire.
  if (fetched.ok()) {
    EXPECT_NE(HashOf(*fetched), HashOf(data));
  }
  cloud_.faults().SetCorruptAllReads(false);
}

TEST_F(StorageServiceTest, CountersTrackHitClasses) {
  auto service = MakeService(1 << 20, 10 << 20);
  Bytes data = ToBytes("counted");
  ASSERT_TRUE(backend_.WriteVersion("obj", HashOf(data), data, {}).ok());
  ASSERT_TRUE(service.Fetch("obj", HashOf(data)).ok());  // cloud
  ASSERT_TRUE(service.Fetch("obj", HashOf(data)).ok());  // memory
  EXPECT_EQ(service.cloud_reads(), 1u);
  EXPECT_EQ(service.memory_hits(), 1u);
}

}  // namespace
}  // namespace scfs
