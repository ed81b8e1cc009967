// Tests for the Table 3 / Figure 9 baselines: LocalFS, S3FS-like, S3QL-like
// and the Dropbox synchronization model.

#include <gtest/gtest.h>

#include "src/baselines/dropbox_sim.h"
#include "src/baselines/local_fs.h"
#include "src/baselines/s3_baselines.h"
#include "src/cloud/simulated_cloud.h"

namespace scfs {
namespace {

CloudProfile TestCloud() {
  CloudProfile p;
  p.name = "test";
  return p;
}

TEST(LocalFsTest, RoundTripAndNamespace) {
  auto env = Environment::Instant();
  LocalFs fs(env.get());
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.WriteFile("/d/f", ToBytes("hello")).ok());
  EXPECT_EQ(ToString(*fs.ReadFile("/d/f")), "hello");
  EXPECT_EQ(fs.Stat("/d/f")->size, 5u);
  EXPECT_EQ(fs.ReadDir("/d")->size(), 1u);
  ASSERT_TRUE(fs.Rename("/d/f", "/d/g").ok());
  EXPECT_EQ(ToString(*fs.ReadFile("/d/g")), "hello");
  ASSERT_TRUE(fs.Unlink("/d/g").ok());
  ASSERT_TRUE(fs.Rmdir("/d").ok());
}

// A file system whose path Stat describes another version than the one an
// open handle holds: a newer, shorter one (as after the agent's own publishing
// close, or once a cached stat is stale), or none at all (a concurrent
// unlink after the open succeeded).
class DisagreeingStatFs : public LocalFs {
 public:
  using LocalFs::LocalFs;
  Result<FileStat> Stat(const std::string& path) override {
    if (stat_not_found) {
      return NotFoundError(path);
    }
    auto stat = LocalFs::Stat(path);
    if (stat.ok()) {
      stat->size /= 2;
    }
    return stat;
  }
  bool stat_not_found = false;
};

TEST(FileSystemTest, ReadFileReadsTheOpenedHandleToEof) {
  auto env = Environment::Instant();
  DisagreeingStatFs fs(env.get());
  ASSERT_TRUE(fs.WriteFile("/f", ToBytes("hello world")).ok());
  auto read = fs.ReadFile("/f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(ToString(*read), "hello world");

  fs.stat_not_found = true;
  read = fs.ReadFile("/f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(ToString(*read), "hello world");
}

TEST(LocalFsTest, ChargesDiskOnDirtyCloseOnly) {
  auto env = Environment::Instant();
  LocalFs fs(env.get());
  ASSERT_TRUE(fs.WriteFile("/f", ToBytes("x")).ok());
  Environment::ResetThreadCharged();
  auto fh = fs.Open("/f", kOpenRead);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs.Close(*fh).ok());
  EXPECT_EQ(Environment::ThreadCharged(), 0);  // clean close is free
}

TEST(S3fsTest, BlockingCloseWritesToCloud) {
  auto env = Environment::Instant();
  SimulatedCloud cloud(TestCloud(), env.get(), 1);
  S3fsLike fs(env.get(), &cloud, {"u"});
  ASSERT_TRUE(fs.WriteFile("/f", ToBytes("data")).ok());
  // Object durable in the cloud immediately after close returns.
  auto obj = cloud.Get({"u"}, "s3fs:/f");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(ToString(*obj), "data");
}

TEST(S3fsTest, EveryOpenFetchesFromCloud) {
  auto env = Environment::Instant();
  SimulatedCloud cloud(TestCloud(), env.get(), 1);
  S3fsLike fs(env.get(), &cloud, {"u"});
  ASSERT_TRUE(fs.WriteFile("/f", ToBytes("data")).ok());
  uint64_t gets_before = cloud.costs().Totals("u").gets;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fs.ReadFile("/f").ok());
  }
  EXPECT_GE(cloud.costs().Totals("u").gets, gets_before + 3);
}

TEST(S3qlTest, WriteBackIsAsync) {
  auto env = Environment::Instant();
  SimulatedCloud cloud(TestCloud(), env.get(), 1);
  {
    S3qlLike fs(env.get(), &cloud, {"u"});
    ASSERT_TRUE(fs.WriteFile("/f", ToBytes("lazy")).ok());
    fs.DrainBackground();
    auto obj = cloud.Get({"u"}, "s3ql:/f");
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(ToString(*obj), "lazy");
    // Reads come from the local cache, not the cloud.
    uint64_t gets = cloud.costs().Totals("u").gets;
    ASSERT_TRUE(fs.ReadFile("/f").ok());
    EXPECT_EQ(cloud.costs().Totals("u").gets, gets);
  }
}

TEST(S3qlTest, SmallWritePenaltyCharged) {
  auto env = Environment::Instant();
  SimulatedCloud cloud(TestCloud(), env.get(), 1);
  S3qlLike fs(env.get(), &cloud, {"u"});
  auto fh = fs.Open("/f", kOpenWrite | kOpenCreate);
  ASSERT_TRUE(fh.ok());
  Environment::ResetThreadCharged();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fs.Write(*fh, i * 4096, Bytes(4096, 1)).ok());
  }
  // 100 small writes at ~0.45 ms each.
  EXPECT_GE(Environment::ThreadCharged(), 100 * FromMillis(0.4));
  ASSERT_TRUE(fs.Close(*fh).ok());
  fs.DrainBackground();
}

TEST(S3BaselinesTest, NoSharingSupport) {
  auto env = Environment::Instant();
  SimulatedCloud cloud(TestCloud(), env.get(), 1);
  S3fsLike s3fs(env.get(), &cloud, {"u"});
  S3qlLike s3ql(env.get(), &cloud, {"u"});
  EXPECT_EQ(s3fs.SetFacl("/f", "bob", true, false).code(),
            ErrorCode::kNotSupported);
  EXPECT_EQ(s3ql.SetFacl("/f", "bob", true, false).code(),
            ErrorCode::kNotSupported);
}

TEST(DropboxSimTest, LatencyGrowsWithSize) {
  auto env = Environment::Instant();
  DropboxSim dropbox(env.get());
  // Average over a few trials to smooth the jitter.
  auto average = [&](size_t size) {
    VirtualDuration total = 0;
    for (int i = 0; i < 10; ++i) {
      total += dropbox.ShareFile(size);
    }
    return total / 10;
  };
  VirtualDuration small = average(256 * 1024);
  VirtualDuration large = average(16 * 1024 * 1024);
  EXPECT_GT(large, small + 10 * kSecond);  // 16 MB uploads dominate
  EXPECT_GT(small, 5 * kSecond);           // floor: monitor + poll cycles
}

TEST(DropboxSimTest, FloorEvenForTinyFiles) {
  auto env = Environment::Instant();
  DropboxSim dropbox(env.get());
  // The monitor + polling floor is what SCFS's blocking mode beats.
  EXPECT_GT(dropbox.ShareFile(1), 5 * kSecond);
}

}  // namespace
}  // namespace scfs
