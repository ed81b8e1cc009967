// Tests for the coordination service: command serialization, tuple-space
// semantics (entries, versions, ACLs, ephemeral locks, the rename trigger)
// and the replicated SMR cluster under crash and byzantine faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/coord/command.h"
#include "src/coord/lease.h"
#include "src/coord/local_coordination.h"
#include "src/coord/partitioned_coordination.h"
#include "src/coord/smr.h"
#include "src/coord/tuple_space.h"

namespace scfs {
namespace {

TEST(CommandTest, EncodeDecodeRoundTrip) {
  CoordCommand cmd;
  cmd.op = CoordOp::kCompareAndSwap;
  cmd.client = "alice";
  cmd.key = "/meta/file";
  cmd.value = ToBytes("payload");
  cmd.aux = "extra";
  cmd.a = 42;
  cmd.b = 7;
  cmd.route_epoch = 9;
  auto decoded = CoordCommand::Decode(cmd.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, CoordOp::kCompareAndSwap);
  EXPECT_EQ(decoded->client, "alice");
  EXPECT_EQ(decoded->key, "/meta/file");
  EXPECT_EQ(ToString(decoded->value), "payload");
  EXPECT_EQ(decoded->aux, "extra");
  EXPECT_EQ(decoded->a, 42u);
  EXPECT_EQ(decoded->b, 7u);
  EXPECT_EQ(decoded->route_epoch, 9u);
}

TEST(CommandTest, ReplyRoundTripWithEntries) {
  CoordReply reply;
  reply.code = ErrorCode::kOk;
  reply.value = ToBytes("v");
  reply.a = 3;
  reply.entries.push_back({"k1", ToBytes("e1"), 1});
  reply.entries.push_back({"k2", ToBytes("e2"), 2});
  auto decoded = CoordReply::Decode(reply.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->a, 3u);
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_EQ(decoded->entries[1].key, "k2");
  EXPECT_EQ(decoded->entries[1].version, 2u);
}

TEST(CommandTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(CoordCommand::Decode({}).ok());
  EXPECT_FALSE(CoordCommand::Decode({1, 2, 3}).ok());
  EXPECT_FALSE(CoordReply::Decode({}).ok());
}

CoordCommand Cmd(CoordOp op, const std::string& client, const std::string& key,
                 const Bytes& value = {}, uint64_t a = 0, uint64_t b = 0,
                 const std::string& aux = "") {
  CoordCommand cmd;
  cmd.op = op;
  cmd.client = client;
  cmd.key = key;
  cmd.value = value;
  cmd.a = a;
  cmd.b = b;
  cmd.aux = aux;
  return cmd;
}

TEST(TupleSpaceTest, WriteReadVersionBump) {
  TupleSpace space;
  auto r1 = space.Apply(0, Cmd(CoordOp::kWrite, "alice", "k", ToBytes("v1")));
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.a, 1u);
  auto r2 = space.Apply(0, Cmd(CoordOp::kWrite, "alice", "k", ToBytes("v2")));
  EXPECT_EQ(r2.a, 2u);
  auto read = space.Apply(0, Cmd(CoordOp::kRead, "alice", "k"));
  EXPECT_EQ(ToString(read.value), "v2");
  EXPECT_EQ(read.a, 2u);
}

TEST(TupleSpaceTest, ConditionalCreate) {
  TupleSpace space;
  EXPECT_TRUE(
      space.Apply(0, Cmd(CoordOp::kConditionalCreate, "a", "k", ToBytes("v")))
          .ok());
  EXPECT_EQ(
      space.Apply(0, Cmd(CoordOp::kConditionalCreate, "a", "k", ToBytes("w")))
          .code,
      ErrorCode::kAlreadyExists);
}

TEST(TupleSpaceTest, CompareAndSwap) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "k", ToBytes("v1")));
  // Wrong version.
  EXPECT_EQ(
      space.Apply(0, Cmd(CoordOp::kCompareAndSwap, "a", "k", ToBytes("x"), 9))
          .code,
      ErrorCode::kConflict);
  // Right version.
  auto r = space.Apply(0, Cmd(CoordOp::kCompareAndSwap, "a", "k",
                              ToBytes("v2"), 1));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.a, 2u);
  EXPECT_EQ(ToString(space.Apply(0, Cmd(CoordOp::kRead, "a", "k")).value),
            "v2");
}

TEST(TupleSpaceTest, RemoveAndNotFound) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "k", ToBytes("v")));
  EXPECT_TRUE(space.Apply(0, Cmd(CoordOp::kRemove, "a", "k")).ok());
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kRead, "a", "k")).code,
            ErrorCode::kNotFound);
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kRemove, "a", "k")).code,
            ErrorCode::kNotFound);
}

// A remove guarded by the version its caller read: a mismatch removes
// nothing; the reply of a removal carries the removed entry.
TEST(TupleSpaceTest, GuardedRemoveConflictsOnAnotherVersion) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v1")));
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v2")));
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kRemove, "alice", "m:/f/", {}, 1)).code,
            ErrorCode::kConflict);
  EXPECT_EQ(
      ToString(space.Apply(0, Cmd(CoordOp::kRead, "alice", "m:/f/")).value),
      "v2");
  auto removed = space.Apply(0, Cmd(CoordOp::kRemove, "alice", "m:/f/", {}, 2));
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(ToString(removed.value), "v2");
  EXPECT_EQ(removed.a, 2u);
  EXPECT_EQ(space.entry_count(), 0u);
}

// The lock guard: the file lock `aux` names may be held by no principal but
// the one in `value` (the remover's session), checked in the remove's slot.
TEST(TupleSpaceTest, GuardedRemoveIsBusyWhileAnotherSessionHoldsTheLock) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v")));
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kTryLock, "alice@s2", "lk:/f", {}, kSecond))
          .ok());
  CoordCommand remove = Cmd(CoordOp::kRemove, "alice", "m:/f/", {}, 1, 0,
                            "lk:/f");
  remove.value = ToBytes("alice@s1");
  EXPECT_EQ(space.Apply(10, remove).code, ErrorCode::kBusy);
  EXPECT_EQ(space.entry_count(), 1u);
  // The lock holder's own session removes.
  remove.value = ToBytes("alice@s2");
  auto removed = space.Apply(20, remove);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(ToString(removed.value), "v");
  EXPECT_EQ(space.lock_count(), 1u);  // the remove leaves the lock alone

  // An expired lock guards nothing.
  auto written =
      space.Apply(30, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("w")));
  remove.a = written.a;
  remove.value = ToBytes("alice@s1");
  EXPECT_TRUE(space.Apply(2 * kSecond, remove).ok());
  EXPECT_EQ(space.entry_count(), 0u);
}

TEST(TupleSpaceTest, UnguardedRemoveIgnoresVersionsAndLocks) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v1")));
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v2")));
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kTryLock, "alice@s2", "lk:/f", {}, kSecond))
          .ok());
  auto removed = space.Apply(10, Cmd(CoordOp::kRemove, "alice", "m:/f/"));
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(ToString(removed.value), "v2");
  // The guards do not widen access: a principal that may not write the
  // entry is refused before either guard is looked at.
  space.Apply(20, Cmd(CoordOp::kWrite, "alice", "m:/g/", ToBytes("x")));
  EXPECT_EQ(space.Apply(30, Cmd(CoordOp::kRemove, "bob", "m:/g/", {}, 1)).code,
            ErrorCode::kPermissionDenied);
}

TEST(TupleSpaceTest, GuardedRemoveRevokesCoveringLeasesInItsSlot) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/d/f/", ToBytes("v")));
  ASSERT_TRUE(space
                  .Apply(0, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {},
                                kSecond, 0, "s3"))
                  .ok());
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kTryLock, "alice@s2", "lk:/d/f", {}, 100))
          .ok());
  CoordCommand remove = Cmd(CoordOp::kRemove, "alice", "m:/d/f/", {}, 1, 0,
                            "lk:/d/f");
  remove.value = ToBytes("alice@s1");
  // A refused remove changes nothing, so it revokes nothing.
  auto busy = space.Apply(10, remove);
  EXPECT_EQ(busy.code, ErrorCode::kBusy);
  EXPECT_TRUE(busy.revoked.empty());
  EXPECT_EQ(space.lease_count(), 1u);
  auto removed = space.Apply(200, remove);  // the lock has expired
  ASSERT_TRUE(removed.ok());
  ASSERT_EQ(removed.revoked.size(), 1u);
  EXPECT_EQ(removed.revoked[0].prefix, "m:/d/");
  EXPECT_EQ(space.lease_count(), 0u);
}

TEST(TupleSpaceTest, ReadPrefix) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "/m/a", ToBytes("1")));
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "/m/b", ToBytes("2")));
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "/x/c", ToBytes("3")));
  auto r = space.Apply(0, Cmd(CoordOp::kReadPrefix, "a", "/m/"));
  ASSERT_EQ(r.entries.size(), 2u);
  EXPECT_EQ(r.entries[0].key, "/m/a");
  EXPECT_EQ(r.entries[1].key, "/m/b");
}

TEST(TupleSpaceTest, EntryAclEnforced) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "k", ToBytes("v")));
  // Bob cannot read or write.
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kRead, "bob", "k")).code,
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kWrite, "bob", "k", ToBytes("w"))).code,
            ErrorCode::kPermissionDenied);
  // Grant read.
  EXPECT_TRUE(space
                  .Apply(0, Cmd(CoordOp::kSetEntryAcl, "alice", "k", {},
                                kCoordPermRead, 0, "bob"))
                  .ok());
  EXPECT_TRUE(space.Apply(0, Cmd(CoordOp::kRead, "bob", "k")).ok());
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kWrite, "bob", "k", ToBytes("w"))).code,
            ErrorCode::kPermissionDenied);
  // Only the owner can change ACLs.
  EXPECT_EQ(space
                .Apply(0, Cmd(CoordOp::kSetEntryAcl, "bob", "k", {},
                              kCoordPermRead | kCoordPermWrite, 0, "bob"))
                .code,
            ErrorCode::kPermissionDenied);
  // ReadPrefix filters unreadable entries.
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "k2", ToBytes("v2")));
  auto r = space.Apply(0, Cmd(CoordOp::kReadPrefix, "bob", "k"));
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].key, "k");
}

TEST(TupleSpaceTest, LockExclusionAndToken) {
  TupleSpace space;
  auto l1 = space.Apply(0, Cmd(CoordOp::kTryLock, "alice", "L", {}, kSecond));
  ASSERT_TRUE(l1.ok());
  EXPECT_GT(l1.a, 0u);
  // Another client is rejected.
  EXPECT_EQ(space.Apply(10, Cmd(CoordOp::kTryLock, "bob", "L", {}, kSecond)).code,
            ErrorCode::kBusy);
  // Same client re-acquires (re-entrant) with the same token.
  auto l2 = space.Apply(10, Cmd(CoordOp::kTryLock, "alice", "L", {}, kSecond));
  EXPECT_TRUE(l2.ok());
  EXPECT_EQ(l2.a, l1.a);
  // Unlock with wrong token fails; right token succeeds.
  EXPECT_EQ(space.Apply(20, Cmd(CoordOp::kUnlock, "alice", "L", {}, 0, 999)).code,
            ErrorCode::kNotFound);
  EXPECT_TRUE(space.Apply(20, Cmd(CoordOp::kUnlock, "alice", "L", {}, 0, l1.a))
                  .ok());
  EXPECT_TRUE(space.Apply(30, Cmd(CoordOp::kTryLock, "bob", "L", {}, kSecond))
                  .ok());
}

TEST(TupleSpaceTest, LockAndReadReturnsTheEntryOfItsSlot) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v1")));
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v2")));
  CoordCommand lock = Cmd(CoordOp::kTryLock, "alice@s1", "lk:/f", {}, kSecond);
  lock.aux = "m:/f/";
  lock.value = ToBytes("alice");  // read as the user, lock as the session
  auto taken = space.Apply(10, lock);
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken.entries.size(), 1u);
  EXPECT_EQ(ToString(taken.entries[0].value), "v2");
  EXPECT_EQ(taken.entries[0].version, 2u);
  // An absent entry reads as none; the lock is still taken.
  lock.key = "lk:/g";
  lock.aux = "m:/g/";
  taken = space.Apply(10, lock);
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken.entries.empty());
  // A reader the entry's ACL refuses gets neither the entry nor the lock.
  lock = Cmd(CoordOp::kTryLock, "bob@s2", "lk:/h", {}, kSecond);
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/h/", ToBytes("x")));
  lock.aux = "m:/h/";
  lock.value = ToBytes("bob");
  EXPECT_EQ(space.Apply(20, lock).code, ErrorCode::kPermissionDenied);
  EXPECT_TRUE(space.Apply(30, Cmd(CoordOp::kTryLock, "carol", "lk:/h", {},
                                  kSecond))
                  .ok());
}

TEST(TupleSpaceTest, CompareAndSwapOnVersionZeroCreatesIffAbsent) {
  TupleSpace space;
  auto created =
      space.Apply(0, Cmd(CoordOp::kCompareAndSwap, "a", "k", ToBytes("v"), 0));
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.a, 1u);
  EXPECT_EQ(
      space.Apply(0, Cmd(CoordOp::kCompareAndSwap, "a", "k", ToBytes("w"), 0))
          .code,
      ErrorCode::kConflict);
  EXPECT_EQ(ToString(space.Apply(0, Cmd(CoordOp::kRead, "a", "k")).value),
            "v");
}

// Publish-and-release: a compare-and-swap naming a lock (`aux`) and its
// token (`b`) releases it in the swap's own slot, whatever the swap's
// outcome, so a contender's lock ordered right after it succeeds.
TEST(TupleSpaceTest, CompareAndSwapReleasesTheLockInItsSlot) {
  TupleSpace space;
  auto written =
      space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v1")));
  auto lock = space.Apply(0, Cmd(CoordOp::kTryLock, "alice@s1", "lk:/f", {},
                                 kSecond));
  ASSERT_TRUE(lock.ok());
  CoordCommand publish = Cmd(CoordOp::kCompareAndSwap, "alice", "m:/f/",
                             ToBytes("v2"), written.a, lock.a, "lk:/f");
  auto published = space.Apply(10, publish);
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.a, written.a + 1);
  EXPECT_EQ(space.lock_count(), 0u);
  EXPECT_TRUE(space
                  .Apply(20, Cmd(CoordOp::kTryLock, "alice@s2", "lk:/f", {},
                                 kSecond))
                  .ok());
  EXPECT_EQ(ToString(space.Apply(20, Cmd(CoordOp::kRead, "alice", "m:/f/"))
                         .value),
            "v2");
}

TEST(TupleSpaceTest, FailedCompareAndSwapStillReleasesTheLock) {
  TupleSpace space;
  auto written =
      space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v1")));
  // kConflict: the entry moved past the version read under the lock.
  auto lock = space.Apply(0, Cmd(CoordOp::kTryLock, "alice@s1", "lk:/f", {},
                                 kSecond));
  ASSERT_TRUE(lock.ok());
  EXPECT_EQ(space
                .Apply(10, Cmd(CoordOp::kCompareAndSwap, "alice", "m:/f/",
                               ToBytes("stale"), written.a + 1, lock.a,
                               "lk:/f"))
                .code,
            ErrorCode::kConflict);
  EXPECT_EQ(space.lock_count(), 0u);
  // kNotFound: the entry is gone.
  lock = space.Apply(20, Cmd(CoordOp::kTryLock, "alice@s1", "lk:/f", {},
                             kSecond));
  ASSERT_TRUE(lock.ok());
  ASSERT_TRUE(space.Apply(20, Cmd(CoordOp::kRemove, "alice", "m:/f/")).ok());
  EXPECT_EQ(space
                .Apply(30, Cmd(CoordOp::kCompareAndSwap, "alice", "m:/f/",
                               ToBytes("late"), written.a, lock.a, "lk:/f"))
                .code,
            ErrorCode::kNotFound);
  EXPECT_EQ(space.lock_count(), 0u);
  EXPECT_EQ(space.entry_count(), 0u);
  // Neither outcome keeps a contender out.
  EXPECT_TRUE(space
                  .Apply(40, Cmd(CoordOp::kTryLock, "alice@s2", "lk:/f", {},
                                 kSecond))
                  .ok());
}

TEST(TupleSpaceTest, CompareAndSwapLeavesARetakenLockAlone) {
  TupleSpace space;
  auto written =
      space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/f/", ToBytes("v1")));
  auto expired = space.Apply(0, Cmd(CoordOp::kTryLock, "alice@s1", "lk:/f",
                                    {}, 100));
  ASSERT_TRUE(expired.ok());
  // The lease ran out and another session took the lock: the late writer's
  // token no longer matches, so its publish cannot release it.
  auto retaken = space.Apply(200, Cmd(CoordOp::kTryLock, "alice@s2", "lk:/f",
                                      {}, kSecond));
  ASSERT_TRUE(retaken.ok());
  ASSERT_NE(retaken.a, expired.a);
  EXPECT_TRUE(space
                  .Apply(300, Cmd(CoordOp::kCompareAndSwap, "alice", "m:/f/",
                                  ToBytes("late"), written.a, expired.a,
                                  "lk:/f"))
                  .ok());
  EXPECT_EQ(space.lock_count(), 1u);
  EXPECT_EQ(space
                .Apply(400, Cmd(CoordOp::kTryLock, "alice@s3", "lk:/f", {},
                                kSecond))
                .code,
            ErrorCode::kBusy);
  EXPECT_TRUE(
      space.Apply(500, Cmd(CoordOp::kUnlock, "alice@s2", "lk:/f", {}, 0,
                           retaken.a))
          .ok());
}

TEST(TupleSpaceTest, PublishAndReleaseRevokesCoveringLeasesInItsSlot) {
  TupleSpace space;
  auto written =
      space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/d/f/", ToBytes("v1")));
  ASSERT_TRUE(space
                  .Apply(0, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {},
                                kSecond, 0, "s3"))
                  .ok());
  auto lock = space.Apply(0, Cmd(CoordOp::kTryLock, "alice@s1", "lk:/d/f", {},
                                 kSecond));
  ASSERT_TRUE(lock.ok());
  // A failed swap changes no entry, so it revokes nothing — but it still
  // releases the lock.
  auto conflict = space.Apply(10, Cmd(CoordOp::kCompareAndSwap, "alice",
                                      "m:/d/f/", ToBytes("x"), written.a + 5,
                                      lock.a, "lk:/d/f"));
  EXPECT_EQ(conflict.code, ErrorCode::kConflict);
  EXPECT_TRUE(conflict.revoked.empty());
  EXPECT_EQ(space.lease_count(), 1u);
  EXPECT_EQ(space.lock_count(), 0u);
  lock = space.Apply(20, Cmd(CoordOp::kTryLock, "alice@s1", "lk:/d/f", {},
                             kSecond));
  ASSERT_TRUE(lock.ok());
  auto published = space.Apply(30, Cmd(CoordOp::kCompareAndSwap, "alice",
                                       "m:/d/f/", ToBytes("v2"), written.a,
                                       lock.a, "lk:/d/f"));
  ASSERT_TRUE(published.ok());
  ASSERT_EQ(published.revoked.size(), 1u);
  EXPECT_EQ(published.revoked[0].prefix, "m:/d/");
  EXPECT_EQ(space.lease_count(), 0u);
  EXPECT_EQ(space.lock_count(), 0u);
}

// A writer holding version 2 of "k" must not overwrite a "k" that was
// removed and created again, however often the new one was written.
TEST(TupleSpaceTest, RecreatedEntryNeverRepeatsARemovedVersion) {
  TupleSpace space;
  ASSERT_TRUE(space.Apply(0, Cmd(CoordOp::kWrite, "a", "k", ToBytes("v1"))).ok());
  ASSERT_TRUE(space.Apply(0, Cmd(CoordOp::kWrite, "a", "k", ToBytes("v2"))).ok());
  ASSERT_TRUE(space.Apply(0, Cmd(CoordOp::kRemove, "a", "k")).ok());
  auto recreated = space.Apply(0, Cmd(CoordOp::kWrite, "a", "k", ToBytes("n1")));
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(recreated.a, 3u);
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kCompareAndSwap, "a", "k",
                               ToBytes("stale"), 2))
                .code,
            ErrorCode::kConflict);
  EXPECT_EQ(ToString(space.Apply(0, Cmd(CoordOp::kRead, "a", "k")).value),
            "n1");
  // The floor survives a snapshot: a restored replica numbers alike.
  ASSERT_TRUE(space.Apply(0, Cmd(CoordOp::kRemove, "a", "k")).ok());
  TupleSpace restored;
  ASSERT_TRUE(restored.Restore(space.Snapshot()));
  EXPECT_EQ(restored.Apply(0, Cmd(CoordOp::kWrite, "a", "k", ToBytes("x"))).a,
            space.Apply(0, Cmd(CoordOp::kWrite, "a", "k", ToBytes("x"))).a);
  EXPECT_EQ(restored.StateDigest(), space.StateDigest());
}

// The same for an entry renamed onto a key that had a removed entry: a
// copy of the removed entry must not match the renamed-in one.
TEST(TupleSpaceTest, RenamedInEntryNeverRepeatsARemovedVersion) {
  TupleSpace space;
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kWrite, "a", "m:/q/", ToBytes("q"))).ok());
  for (const char* value : {"p1", "p2", "p3"}) {
    ASSERT_TRUE(space.Apply(0, Cmd(CoordOp::kWrite, "a", "m:/p/",
                                   ToBytes(value)))
                    .ok());
  }
  ASSERT_TRUE(space.Apply(0, Cmd(CoordOp::kRemove, "a", "m:/p/")).ok());
  ASSERT_TRUE(space
                  .Apply(0, Cmd(CoordOp::kRenamePrefix, "a", "m:/q/", {}, 0, 0,
                                "m:/p/"))
                  .ok());
  auto renamed = space.Apply(0, Cmd(CoordOp::kRead, "a", "m:/p/"));
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(ToString(renamed.value), "q");
  EXPECT_GT(renamed.a, 3u);
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kRemove, "a", "m:/p/", {}, 2)).code,
            ErrorCode::kConflict);
}

TEST(TupleSpaceTest, LockLeaseExpiresEphemeral) {
  // Paper §2.5.1: lock entries are ephemeral so a crashed client's lock
  // disappears automatically.
  TupleSpace space;
  auto l1 = space.Apply(0, Cmd(CoordOp::kTryLock, "alice", "L", {}, kSecond));
  ASSERT_TRUE(l1.ok());
  // Before expiry bob fails; after expiry bob succeeds.
  EXPECT_EQ(space.Apply(kSecond - 1, Cmd(CoordOp::kTryLock, "bob", "L", {}, kSecond))
                .code,
            ErrorCode::kBusy);
  EXPECT_TRUE(
      space.Apply(kSecond + 1, Cmd(CoordOp::kTryLock, "bob", "L", {}, kSecond))
          .ok());
}

TEST(TupleSpaceTest, RenewExtendsLease) {
  TupleSpace space;
  auto l1 = space.Apply(0, Cmd(CoordOp::kTryLock, "alice", "L", {}, kSecond));
  ASSERT_TRUE(l1.ok());
  EXPECT_TRUE(space
                  .Apply(kSecond / 2, Cmd(CoordOp::kRenewLock, "alice", "L", {},
                                          2 * kSecond, l1.a))
                  .ok());
  EXPECT_EQ(space
                .Apply(2 * kSecond, Cmd(CoordOp::kTryLock, "bob", "L", {},
                                        kSecond))
                .code,
            ErrorCode::kBusy);
}

TEST(TupleSpaceTest, RenamePrefixMovesSubtree) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "/m/dir/f1", ToBytes("1")));
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "/m/dir/sub/f2", ToBytes("2")));
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "/m/other", ToBytes("3")));
  auto r = space.Apply(
      0, Cmd(CoordOp::kRenamePrefix, "a", "/m/dir", {}, 0, 0, "/m/renamed"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.a, 2u);
  EXPECT_EQ(space.Apply(0, Cmd(CoordOp::kRead, "a", "/m/dir/f1")).code,
            ErrorCode::kNotFound);
  EXPECT_EQ(ToString(space.Apply(0, Cmd(CoordOp::kRead, "a", "/m/renamed/f1"))
                         .value),
            "1");
  EXPECT_EQ(
      ToString(space.Apply(0, Cmd(CoordOp::kRead, "a", "/m/renamed/sub/f2"))
                   .value),
      "2");
  EXPECT_TRUE(space.Apply(0, Cmd(CoordOp::kRead, "a", "/m/other")).ok());
}

TEST(TupleSpaceTest, SnapshotRestoreRoundTrip) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "/m/a", ToBytes("v1")));
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "/m/a", ToBytes("v2")));
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "/m/b", ToBytes("w")));
  space.Apply(0, Cmd(CoordOp::kSetEntryAcl, "alice", "/m/a", {},
                     kCoordPermRead, 0, "bob"));
  auto lock = space.Apply(10, Cmd(CoordOp::kTryLock, "carol", "L", {}, kSecond));
  ASSERT_TRUE(lock.ok());

  Bytes snapshot = space.Snapshot();
  TupleSpace restored;
  ASSERT_TRUE(restored.Restore(snapshot));

  // Entries, versions, ACLs and stored-bytes accounting survive.
  EXPECT_EQ(restored.entry_count(), space.entry_count());
  EXPECT_EQ(restored.stored_bytes(), space.stored_bytes());
  auto read = restored.Apply(10, Cmd(CoordOp::kRead, "bob", "/m/a"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(read.value), "v2");
  EXPECT_EQ(read.a, 2u);
  // Locks survive with their leases and tokens: carol's lock still excludes
  // bob before expiry, and unlocking needs the original token.
  EXPECT_EQ(restored.Apply(20, Cmd(CoordOp::kTryLock, "bob", "L", {}, kSecond))
                .code,
            ErrorCode::kBusy);
  EXPECT_TRUE(
      restored.Apply(20, Cmd(CoordOp::kUnlock, "carol", "L", {}, 0, lock.a))
          .ok());
  // The token counter is part of the state: a fresh lock on the restored
  // space gets a token the original space would also have issued next.
  auto next = restored.Apply(30, Cmd(CoordOp::kTryLock, "dave", "M", {},
                                     kSecond));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next.a, lock.a);
}

TEST(TupleSpaceTest, SnapshotDigestDeterministicAndStateSensitive) {
  TupleSpace a;
  TupleSpace b;
  // Same logical state reached through different histories (b overwrites).
  a.Apply(0, Cmd(CoordOp::kWrite, "alice", "k", ToBytes("v")));
  b.Apply(0, Cmd(CoordOp::kWrite, "alice", "k", ToBytes("x")));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Apply(0, Cmd(CoordOp::kWrite, "alice", "k", ToBytes("v")));
  // Versions now differ (1 vs 2), so digests still differ...
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  // ...but a restored snapshot reproduces the digest exactly.
  TupleSpace c;
  ASSERT_TRUE(c.Restore(b.Snapshot()));
  EXPECT_EQ(c.StateDigest(), b.StateDigest());
}

TEST(TupleSpaceTest, RestoreRejectsGarbageAndKeepsState) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "k", ToBytes("v")));
  Bytes before = space.StateDigest();
  EXPECT_FALSE(space.Restore(ToBytes("garbage")));
  Bytes truncated = space.Snapshot();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(space.Restore(truncated));
  EXPECT_EQ(space.StateDigest(), before);
  EXPECT_TRUE(space.Apply(0, Cmd(CoordOp::kRead, "alice", "k")).ok());
}

TEST(TupleSpaceTest, StoredBytesAccounting) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "key", ToBytes("12345")));
  EXPECT_EQ(space.stored_bytes(), 3u + 5u);
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "key", ToBytes("1")));
  EXPECT_EQ(space.stored_bytes(), 3u + 1u);
  space.Apply(0, Cmd(CoordOp::kRemove, "a", "key"));
  EXPECT_EQ(space.stored_bytes(), 0u);
}

TEST(TupleSpaceTest, LeaseGrantSnapshotsPrefixAndRevokesOnMutation) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/d/a", ToBytes("1")));
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/d/b", ToBytes("2")));
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/e/c", ToBytes("3")));

  // Grant: key = prefix, a = TTL, aux = holder session. The reply doubles as
  // the snapshot read and carries the lease epoch + expiry.
  CoordReply grant = space.Apply(
      10, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 100, 0, "s1"));
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant.entries.size(), 2u);
  EXPECT_EQ(grant.a, 110u);  // now + TTL on the ordered clock
  EXPECT_EQ(space.lease_count(), 1u);

  // A mutation outside the prefix revokes nothing.
  CoordReply other =
      space.Apply(20, Cmd(CoordOp::kWrite, "alice", "m:/e/c", ToBytes("x")));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other.revoked.empty());
  EXPECT_EQ(space.lease_count(), 1u);

  // A mutation under the prefix revokes in its own ordered slot and reports
  // prefix + epoch in its reply, so the submitter invalidates holders before
  // the ack.
  CoordReply write =
      space.Apply(30, Cmd(CoordOp::kWrite, "alice", "m:/d/a", ToBytes("y")));
  ASSERT_TRUE(write.ok());
  ASSERT_EQ(write.revoked.size(), 1u);
  EXPECT_EQ(write.revoked[0].prefix, "m:/d/");
  EXPECT_GT(write.revoked[0].epoch, 0u);
  EXPECT_EQ(space.lease_count(), 0u);
}

TEST(TupleSpaceTest, LeaseRenewalIsExtendOnly) {
  TupleSpace space;
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 100, 0,
                         "s1"))
          .ok());
  // A second holder with a shorter TTL shares the record; the expiry a
  // holder was already promised must never shrink.
  CoordReply renew = space.Apply(
      10, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 20, 0, "s2"));
  ASSERT_TRUE(renew.ok());
  EXPECT_EQ(renew.a, 100u);  // still the first grant's horizon
  EXPECT_EQ(space.lease_count(), 1u);
  // A later renewal that reaches further extends it.
  CoordReply extend = space.Apply(
      50, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 100, 0, "s1"));
  EXPECT_EQ(extend.a, 150u);
}

TEST(TupleSpaceTest, LeaseExpiresAtOrderedTimeNotWallClock) {
  TupleSpace space;
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 100, 0,
                         "s1"))
          .ok());
  // Expiry happens at command-execution time (part of the deterministic
  // state machine): the first command ordered past the horizon drops the
  // lease, and a mutation then has nothing to revoke — the holder stopped
  // serving on its own at the same virtual instant.
  CoordReply write =
      space.Apply(200, Cmd(CoordOp::kWrite, "alice", "m:/d/a", ToBytes("v")));
  ASSERT_TRUE(write.ok());
  EXPECT_TRUE(write.revoked.empty());
  EXPECT_EQ(space.lease_count(), 0u);
}

TEST(TupleSpaceTest, LeaseReleaseDropsOnlyLastHolder) {
  TupleSpace space;
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 100, 0,
                         "s1"))
          .ok());
  ASSERT_TRUE(
      space.Apply(0, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 100, 0,
                         "s2"))
          .ok());
  EXPECT_EQ(space.lease_count(), 1u);  // shared record
  ASSERT_TRUE(
      space.Apply(10, Cmd(CoordOp::kLeaseRelease, "alice", "m:/d/", {}, 0, 0,
                          "s1"))
          .ok());
  EXPECT_EQ(space.lease_count(), 1u);  // s2 still holds
  ASSERT_TRUE(
      space.Apply(10, Cmd(CoordOp::kLeaseRelease, "alice", "m:/d/", {}, 0, 0,
                          "s2"))
          .ok());
  EXPECT_EQ(space.lease_count(), 0u);
}

TEST(TupleSpaceTest, RenameRevokesLeasesOnBothSubtrees) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "a", "m:/src/f", ToBytes("1")));
  ASSERT_TRUE(space
                  .Apply(0, Cmd(CoordOp::kLeaseAcquire, "a", "m:/src/", {},
                                100, 0, "s1"))
                  .ok());
  ASSERT_TRUE(space
                  .Apply(0, Cmd(CoordOp::kLeaseAcquire, "a", "m:/dst/", {},
                                100, 0, "s2"))
                  .ok());
  // The rename mutates both subtrees: a holder serving either the source
  // (now gone) or the destination (now populated) must be revoked.
  CoordReply rename = space.Apply(
      10, Cmd(CoordOp::kRenamePrefix, "a", "m:/src/", {}, 0, 0, "m:/dst/"));
  ASSERT_TRUE(rename.ok());
  EXPECT_EQ(rename.revoked.size(), 2u);
  EXPECT_EQ(space.lease_count(), 0u);
}

TEST(TupleSpaceTest, LeaseStateRidesSnapshot) {
  TupleSpace space;
  space.Apply(0, Cmd(CoordOp::kWrite, "alice", "m:/d/a", ToBytes("1")));
  CoordReply grant = space.Apply(
      0, Cmd(CoordOp::kLeaseAcquire, "alice", "m:/d/", {}, 100, 0, "s1"));
  ASSERT_TRUE(grant.ok());

  // A rejoining replica (or a view change's state transfer) restores the
  // outstanding grants with the snapshot: the restored space still knows the
  // lease and still revokes it — with the same epoch — on the next mutation.
  TupleSpace restored;
  ASSERT_TRUE(restored.Restore(space.Snapshot()));
  EXPECT_EQ(restored.lease_count(), 1u);
  CoordReply write = restored.Apply(
      10, Cmd(CoordOp::kWrite, "alice", "m:/d/a", ToBytes("2")));
  ASSERT_TRUE(write.ok());
  ASSERT_EQ(write.revoked.size(), 1u);
  EXPECT_EQ(write.revoked[0].prefix, "m:/d/");
  ByteReader epoch_reader(grant.value);
  uint64_t granted_epoch = 0;
  ASSERT_TRUE(epoch_reader.ReadU64(&granted_epoch));
  EXPECT_EQ(write.revoked[0].epoch, granted_epoch);
}

TEST(LocalCoordinationTest, TypedWrappers) {
  auto env = Environment::Instant();
  LocalCoordination coord(env.get(), LatencyModel::None());
  ASSERT_TRUE(coord.Write("alice", "k", ToBytes("v")).ok());
  auto entry = coord.Read("alice", "k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(ToString(entry->value), "v");
  EXPECT_EQ(entry->version, 1u);

  auto cas = coord.CompareAndSwap("alice", "k", ToBytes("v2"), 1);
  ASSERT_TRUE(cas.ok());
  EXPECT_EQ(*cas, 2u);

  auto lock = coord.TryLock("alice", "L", kSecond);
  ASSERT_TRUE(lock.ok());
  EXPECT_EQ(coord.TryLock("bob", "L", kSecond).status().code(),
            ErrorCode::kBusy);
  ASSERT_TRUE(coord.Unlock("alice", "L", lock->token).ok());

  ASSERT_TRUE(coord.GrantEntryAccess("alice", "k", "bob", true, false).ok());
  EXPECT_TRUE(coord.Read("bob", "k").ok());

  ASSERT_TRUE(coord.Remove("alice", "k").ok());
  EXPECT_EQ(coord.Read("alice", "k").status().code(), ErrorCode::kNotFound);
}

TEST(LocalCoordinationTest, LatencyCharged) {
  auto env = Environment::Scaled(1e-5);
  LocalCoordination coord(env.get(), LatencyModel::Fixed(40 * kMillisecond));
  VirtualTime t0 = env->Now();
  coord.Write("a", "k", ToBytes("v"));
  // One op = request + reply = 2 x 40 ms.
  EXPECT_GE(env->Now() - t0, 80 * kMillisecond);
}

TEST(LocalCoordinationTest, StateDigestTracksState) {
  auto env = Environment::Instant();
  LocalCoordination coord(env.get(), LatencyModel::None());
  Bytes empty_digest = coord.StateDigest();
  EXPECT_FALSE(empty_digest.empty());
  ASSERT_TRUE(coord.Write("alice", "k", ToBytes("v")).ok());
  Bytes after_write = coord.StateDigest();
  EXPECT_NE(after_write, empty_digest);
  ASSERT_TRUE(coord.Remove("alice", "k").ok());
  // The space remembers the removed entry's version (a "k" created again
  // starts above it), so it is back to neither earlier state.
  Bytes after_remove = coord.StateDigest();
  EXPECT_NE(after_remove, empty_digest);
  EXPECT_NE(after_remove, after_write);
}

TEST(LocalCoordinationTest, UnavailabilityInjected) {
  auto env = Environment::Instant();
  LocalCoordination coord(env.get(), LatencyModel::None());
  coord.faults().SetUnavailable(true);
  EXPECT_EQ(coord.Write("a", "k", ToBytes("v")).code(),
            ErrorCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// SMR cluster tests. These run with a scaled environment so virtual
// timeouts map to microseconds of real time.
// ---------------------------------------------------------------------------

SmrConfig FastSmrConfig(bool byzantine) {
  SmrConfig config;
  config.f = 1;
  config.byzantine = byzantine;
  config.client_link = LatencyModel::Fixed(2 * kMillisecond);
  config.replica_link = LatencyModel::Fixed(kMillisecond);
  // Generous against *real* scheduling noise: most suites run at
  // Environment::Scaled(1e-3), where a virtual second is one real
  // millisecond — a TSan/ASan-instrumented consensus round can eat
  // hundreds of real microseconds, and sub-second virtual timeouts then
  // fire spurious view changes. Failure-detection latency is virtual and
  // costs nothing real, so err high; tests that need tight timeouts
  // (e.g. the retransmission storm) override these explicitly.
  config.client_timeout = 30 * kSecond;
  config.order_timeout = 5 * kSecond;
  return config;
}

TEST(SmrClusterTest, BasicExecute) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), FastSmrConfig(true));
  ASSERT_TRUE(coord.Write("alice", "k", ToBytes("v")).ok());
  auto entry = coord.Read("alice", "k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(ToString(entry->value), "v");
}

TEST(SmrClusterTest, AllReplicasConverge) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), FastSmrConfig(true));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        coord.Write("alice", "k" + std::to_string(i), ToBytes("v")).ok());
  }
  // Stragglers converge *eventually*: the client returns at the reply
  // quorum, so the slowest replica may still be executing. Poll with a
  // generous deadline instead of one fixed sleep (which is sensitive to
  // real-thread scheduling), then assert.
  auto& cluster = coord.cluster();
  auto converged = [&] {
    for (unsigned r = 0; r < cluster.replica_count(); ++r) {
      if (cluster.executed_count(r) != 20u) {
        return false;
      }
    }
    return true;
  };
  for (int spin = 0; spin < 100 && !converged(); ++spin) {
    env->Sleep(200 * kMillisecond);
  }
  for (unsigned r = 0; r < cluster.replica_count(); ++r) {
    EXPECT_EQ(cluster.executed_count(r), 20u) << "replica " << r;
  }
}

TEST(SmrClusterTest, ConcurrentClientsAllSucceed) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), FastSmrConfig(true));
  constexpr int kThreads = 4;
  constexpr int kOps = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = "t" + std::to_string(t) + "i" + std::to_string(i);
        if (!coord.Write("client" + std::to_string(t), key, ToBytes("v")).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  auto listed = coord.ReadPrefix("client0", "t0");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), static_cast<size_t>(kOps));
}

TEST(SmrClusterTest, ByzantineReplyOutvoted) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), FastSmrConfig(true));
  coord.cluster().SetReplicaByzantine(2, true);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(coord.Write("a", "k" + std::to_string(i), ToBytes("v")).ok());
    auto entry = coord.Read("a", "k" + std::to_string(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(ToString(entry->value), "v");
  }
}

TEST(SmrClusterTest, NonLeaderCrashTolerated) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), FastSmrConfig(true));
  ASSERT_TRUE(coord.Write("a", "k0", ToBytes("v")).ok());
  coord.cluster().CrashReplica(3);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(coord.Write("a", "k" + std::to_string(i), ToBytes("v")).ok());
  }
}

TEST(SmrClusterTest, LeaderCrashTriggersViewChange) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), FastSmrConfig(true));
  ASSERT_TRUE(coord.Write("a", "before", ToBytes("v")).ok());
  EXPECT_EQ(coord.cluster().current_view(), 0u);
  coord.cluster().CrashReplica(0);  // view 0's leader
  ASSERT_TRUE(coord.Write("a", "after", ToBytes("v")).ok());
  EXPECT_GE(coord.cluster().current_view(), 1u);
  auto entry = coord.Read("a", "before");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(ToString(entry->value), "v");
}

TEST(SmrClusterTest, CrashModeUsesFewerReplicas) {
  auto env = Environment::Scaled(1e-3);
  SmrConfig config = FastSmrConfig(false);
  ReplicatedCoordination coord(env.get(), config);
  EXPECT_EQ(coord.cluster().replica_count(), 3u);  // 2f+1
  ASSERT_TRUE(coord.Write("a", "k", ToBytes("v")).ok());
  auto entry = coord.Read("a", "k");
  ASSERT_TRUE(entry.ok());
}

TEST(SmrClusterTest, LockSemanticsThroughReplication) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), FastSmrConfig(true));
  auto lock = coord.TryLock("alice", "L", 120 * kSecond);
  ASSERT_TRUE(lock.ok());
  EXPECT_EQ(coord.TryLock("bob", "L", 120 * kSecond).status().code(),
            ErrorCode::kBusy);
  ASSERT_TRUE(coord.Unlock("alice", "L", lock->token).ok());
  EXPECT_TRUE(coord.TryLock("bob", "L", 120 * kSecond).ok());
}

// ---------------------------------------------------------------------------
// Batched ordering, read-only fast path and view-change certificates.
// ---------------------------------------------------------------------------

TEST(SmrClusterTest, FastPathServesReadsWithoutOrdering) {
  auto env = Environment::Scaled(1e-3);
  SmrConfig config = FastSmrConfig(true);
  // Generous: at this scale the default timeout is well under a real
  // millisecond, and host scheduling noise must not fail the fast round.
  config.fast_read_timeout = 5000 * kMillisecond;
  ReplicatedCoordination coord(env.get(), config);
  ASSERT_TRUE(coord.Write("alice", "k", ToBytes("v")).ok());
  // Wait for every replica to execute the write: a fast read served while a
  // straggler lags would (correctly) fall back, which is not this test.
  auto& cluster = coord.cluster();
  auto converged = [&] {
    for (unsigned r = 0; r < cluster.replica_count(); ++r) {
      if (cluster.executed_count(r) != 1u) {
        return false;
      }
    }
    return true;
  };
  for (int spin = 0; spin < 100 && !converged(); ++spin) {
    env->Sleep(50 * kMillisecond);
  }
  auto entry = coord.Read("alice", "k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(ToString(entry->value), "v");
  SmrCounters counters = coord.cluster().counters();
  EXPECT_EQ(counters.fast_path_reads, 1u);
  // Only the write went through ordering.
  EXPECT_EQ(counters.ordered_commands, 1u);
}

TEST(SmrClusterTest, BatchingOrdersConcurrentClientsInOneInstance) {
  auto env = Environment::Scaled(1e-3);
  SmrConfig config = FastSmrConfig(true);
  config.max_batch = 16;
  // One instance at a time: requests arriving while it is in flight must
  // accumulate and ride the next PROPOSE together.
  config.max_inflight_instances = 1;
  ReplicatedCoordination coord(env.get(), config);
  constexpr int kThreads = 8;
  constexpr int kOps = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = "b" + std::to_string(t) + "i" + std::to_string(i);
        if (!coord.Write("c" + std::to_string(t), key, ToBytes("v")).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  SmrCounters counters = coord.cluster().counters();
  EXPECT_EQ(counters.ordered_commands, kThreads * kOps);
  // Batching must have amortized instances: strictly fewer instances than
  // requests (40 concurrent requests cannot all have ridden alone).
  EXPECT_LT(counters.proposed_instances, counters.proposed_requests);
}

TEST(SmrClusterTest, BatchedOrderingSurvivesLeaderCrashMidBatch) {
  auto env = Environment::Scaled(1e-3);
  SmrConfig config = FastSmrConfig(true);
  config.max_batch = 8;
  ReplicatedCoordination coord(env.get(), config);
  constexpr int kThreads = 4;
  constexpr int kOps = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = "v" + std::to_string(t) + "i" + std::to_string(i);
        if (!coord.Write("c" + std::to_string(t), key, ToBytes("x")).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Crash the view-0 leader while batches are in flight. The view-change
  // votes carry the followers' accepted proposals; the new leader adopts
  // them, so in-flight batches commit under the new view without
  // reordering or re-execution.
  env->Sleep(20 * kMillisecond);
  coord.cluster().CrashReplica(0);
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(coord.cluster().current_view(), 1u);
  // Surviving replicas converge to exactly one execution per request —
  // checked BEFORE the verification reads, whose ordered fallbacks would
  // themselves add executed commands. A lagging replica catching up relies
  // on the new leader re-broadcasting below-frontier certificates.
  auto& cluster = coord.cluster();
  auto converged = [&] {
    for (unsigned r = 1; r < cluster.replica_count(); ++r) {
      if (cluster.executed_count(r) != kThreads * kOps) {
        return false;
      }
    }
    return true;
  };
  for (int spin = 0; spin < 100 && !converged(); ++spin) {
    env->Sleep(200 * kMillisecond);
  }
  for (unsigned r = 1; r < cluster.replica_count(); ++r) {
    EXPECT_EQ(cluster.executed_count(r), kThreads * kOps) << "replica " << r;
  }
  // Every write is present with version 1: executed exactly once despite
  // the crash, retransmissions and re-proposals.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOps; ++i) {
      std::string key = "v" + std::to_string(t) + "i" + std::to_string(i);
      auto entry = coord.Read("c" + std::to_string(t), key);
      ASSERT_TRUE(entry.ok()) << key;
      EXPECT_EQ(ToString(entry->value), "x") << key;
      EXPECT_EQ(entry->version, 1u) << key;
    }
  }
}

TEST(SmrClusterTest, FastReadFallsBackOnByzantineDivergence) {
  auto env = Environment::Scaled(1e-3);
  SmrConfig config = FastSmrConfig(true);
  config.fast_read_timeout = 200 * kMillisecond;
  // Every read must try (and fail) its own fast round: no cooldown.
  config.fast_read_fallback_cooldown = 0;
  ReplicatedCoordination coord(env.get(), config);
  ASSERT_TRUE(coord.Write("alice", "k", ToBytes("v")).ok());
  // One replica silent, one lying: the fast path can never assemble 2f+1
  // matching replies, so reads must fall back to the ordered path — and
  // still return the correct value (f+1 matching there).
  coord.cluster().CrashReplica(3);
  coord.cluster().SetReplicaByzantine(2, true);
  for (int i = 0; i < 3; ++i) {
    auto entry = coord.Read("alice", "k");
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(ToString(entry->value), "v");
  }
  SmrCounters counters = coord.cluster().counters();
  EXPECT_EQ(counters.fast_path_fallbacks, 3u);
  EXPECT_EQ(counters.fast_path_reads, 0u);
}

TEST(SmrClusterTest, AsyncSubmitStormExecutesExactlyOnce) {
  // Coarser time scale than the other SMR tests: the storm runs ~50
  // executor threads on however few cores the host has, and the client
  // timeout must stay large against real scheduling noise once mapped to
  // real time.
  auto env = Environment::Scaled(1e-2);
  SmrConfig config = FastSmrConfig(true);
  // Throttle the pipeline and shorten the client timeout so the storm
  // queues behind the inflight cap and retransmissions exercise the
  // per-client reply tables.
  config.max_batch = 2;
  config.max_inflight_instances = 1;
  config.client_timeout = 500 * kMillisecond;
  config.order_timeout = 4000 * kMillisecond;
  ReplicatedCoordination coord(env.get(), config);

  constexpr int kWrites = 40;
  constexpr int kCreates = 10;
  std::vector<Future<Result<CoordReply>>> futures;
  for (int i = 0; i < kWrites; ++i) {
    CoordCommand cmd;
    cmd.op = CoordOp::kWrite;
    cmd.client = "w" + std::to_string(i % 4);
    cmd.key = "s" + std::to_string(i);
    cmd.value = ToBytes("v");
    futures.push_back(coord.SubmitAsync(cmd));
  }
  // Concurrent conditional creates on one key: exactly one may win.
  for (int i = 0; i < kCreates; ++i) {
    CoordCommand cmd;
    cmd.op = CoordOp::kConditionalCreate;
    cmd.client = "creator";
    cmd.key = "the-one";
    cmd.value = ToBytes("c" + std::to_string(i));
    futures.push_back(coord.SubmitAsync(cmd));
  }

  int create_wins = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<CoordReply> reply = futures[i].Get();
    ASSERT_TRUE(reply.ok()) << "submission " << i;
    if (i < kWrites) {
      EXPECT_EQ(reply->code, ErrorCode::kOk) << "write " << i;
    } else if (reply->code == ErrorCode::kOk) {
      ++create_wins;
    } else {
      EXPECT_EQ(reply->code, ErrorCode::kAlreadyExists);
    }
  }
  EXPECT_EQ(create_wins, 1);
  // Version 1 everywhere: despite retransmissions under the short client
  // timeout, no write was applied twice.
  for (int i = 0; i < kWrites; ++i) {
    auto entry = coord.Read("w" + std::to_string(i % 4),
                            "s" + std::to_string(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->version, 1u) << "key s" << i;
  }
}

// ---------------------------------------------------------------------------
// Snapshot-based state transfer.
// ---------------------------------------------------------------------------

// Shrunken state-transfer geometry: a tiny certificate window so a short lag
// already exceeds it, and a tight checkpoint cadence so fresh snapshots
// exist to ship. interval * retained-checkpoints stays below the window
// (the soundness requirement documented in smr.h).
SmrConfig SnapshotSmrConfig() {
  SmrConfig config = FastSmrConfig(true);
  config.executed_batch_window = 8;
  config.checkpoint_interval = 4;
  return config;
}

// Drives sequential writes; each rides its own consensus instance (the
// client is closed-loop), so `count` writes advance the frontier by ~count.
void AdvanceFrontier(ReplicatedCoordination* coord, const std::string& prefix,
                     int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(
        coord->Write("alice", prefix + std::to_string(i), ToBytes("v")).ok());
  }
}

TEST(SmrClusterTest, LaggardBeyondWindowRejoinsViaSnapshot) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), SnapshotSmrConfig());
  auto& cluster = coord.cluster();
  cluster.CrashReplica(3);
  // Lag replica 3 far beyond the executed-batch window (8): before snapshot
  // state transfer this wedged it permanently.
  AdvanceFrontier(&coord, "k", 40);
  const uint64_t target = cluster.exec_frontier(0);
  EXPECT_GT(target, 8u);
  cluster.RestartReplica(3);
  // Fresh traffic gives the restarted replica evidence of the live
  // frontier; the wedge detector then requests state from the peers.
  AdvanceFrontier(&coord, "post", 5);
  bool caught_up = false;
  for (int spin = 0; spin < 300 && !caught_up; ++spin) {
    env->Sleep(200 * kMillisecond);
    caught_up = cluster.exec_frontier(3) >= target &&
                cluster.state_digest(3) == cluster.state_digest(0);
  }
  EXPECT_TRUE(caught_up) << "laggard frontier " << cluster.exec_frontier(3)
                         << " vs target " << target;
  SmrCounters counters = cluster.counters();
  EXPECT_GE(counters.state_requests, 1u);
  EXPECT_GE(counters.snapshots_installed, 1u);
  EXPECT_GE(counters.checkpoints_taken, 1u);
  // With all four replicas converged, the operations surface reports the
  // quorum-vouched fingerprint (poll: replies ack at order-quorum, so the
  // fourth replica may still be executing the tail).
  Bytes quorum_digest;
  for (int spin = 0; spin < 100 && quorum_digest.empty(); ++spin) {
    quorum_digest = coord.StateDigest();
    if (quorum_digest.empty()) {
      env->Sleep(100 * kMillisecond);
    }
  }
  EXPECT_EQ(quorum_digest, cluster.state_digest(3));
  // Subsequent execution is identical to the quorum: exactly-once held
  // across the install (every key at version 1), and new writes commit.
  ASSERT_TRUE(coord.Write("alice", "final", ToBytes("z")).ok());
  for (int i = 0; i < 40; ++i) {
    auto entry = coord.Read("alice", "k" + std::to_string(i));
    ASSERT_TRUE(entry.ok()) << "k" << i;
    EXPECT_EQ(entry->version, 1u) << "k" << i;
  }
}

TEST(SmrClusterTest, LaggardRejoinsAcrossViewChange) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), SnapshotSmrConfig());
  auto& cluster = coord.cluster();
  cluster.CrashReplica(3);
  AdvanceFrontier(&coord, "k", 40);
  const uint64_t target = cluster.exec_frontier(0);
  cluster.RestartReplica(3);
  // Crash the view-0 leader: the remaining quorum is {1, 2, 3}, so every
  // further write's order-quorum ack REQUIRES the laggard to rejoin. The
  // new leader's vote quorum carries checkpoints ~seq 40; its collective
  // checkpoint stops it from re-proposing the below-window history (which
  // the 8-seq window could not cover anyway) and replica 3 recovers via
  // snapshot instead — including adopting the new view from ordering
  // evidence, since it never saw the view-change votes complete.
  cluster.CrashReplica(0);
  AdvanceFrontier(&coord, "post", 3);
  EXPECT_GE(cluster.current_view(), 1u);
  bool caught_up = false;
  for (int spin = 0; spin < 300 && !caught_up; ++spin) {
    env->Sleep(200 * kMillisecond);
    caught_up = cluster.exec_frontier(3) >= target &&
                cluster.state_digest(3) == cluster.state_digest(1);
  }
  EXPECT_TRUE(caught_up) << "laggard frontier " << cluster.exec_frontier(3)
                         << " vs target " << target;
  EXPECT_GE(cluster.counters().snapshots_installed, 1u);
  for (int i = 0; i < 3; ++i) {
    auto entry = coord.Read("alice", "post" + std::to_string(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->version, 1u);
  }
}

TEST(SmrClusterTest, ByzantineSnapshotOfferRejected) {
  auto env = Environment::Scaled(1e-3);
  ReplicatedCoordination coord(env.get(), SnapshotSmrConfig());
  auto& cluster = coord.cluster();
  cluster.CrashReplica(3);
  AdvanceFrontier(&coord, "k", 40);
  const uint64_t target = cluster.exec_frontier(0);
  // Replica 2 now lies: its state replies carry a forged snapshot (payload
  // no longer hashing to the vouched digest) and skewed tail certificates.
  cluster.SetReplicaByzantine(2, true);
  cluster.RestartReplica(3);
  AdvanceFrontier(&coord, "post", 5);
  bool caught_up = false;
  for (int spin = 0; spin < 300 && !caught_up; ++spin) {
    env->Sleep(200 * kMillisecond);
    caught_up = cluster.exec_frontier(3) >= target &&
                cluster.state_digest(3) == cluster.state_digest(0);
  }
  // The laggard still rejoins — the f+1 vouch quorum is satisfiable from
  // the two honest peers — and lands on the honest state, not the forgery.
  EXPECT_TRUE(caught_up) << "laggard frontier " << cluster.exec_frontier(3)
                         << " vs target " << target;
  SmrCounters counters = cluster.counters();
  EXPECT_GE(counters.snapshots_installed, 1u);
  // The forged payload was detected and dropped at receipt.
  EXPECT_GE(counters.snapshot_payload_rejects, 1u);
  for (int i = 0; i < 40; ++i) {
    auto entry = coord.Read("alice", "k" + std::to_string(i));
    ASSERT_TRUE(entry.ok()) << "k" << i;
    EXPECT_EQ(ToString(entry->value), "v") << "k" << i;
  }
}

// ---------------------------------------------------------------------------
// Fast-path fallback cooldown and frontier-tagged replies.
// ---------------------------------------------------------------------------

TEST(SmrClusterTest, FallbackCooldownBypassesDoomedFastRounds) {
  auto env = Environment::Scaled(1e-3);
  SmrConfig config = FastSmrConfig(true);
  config.fast_read_timeout = 200 * kMillisecond;
  config.fast_read_fallback_cooldown = 60 * kSecond;
  ReplicatedCoordination coord(env.get(), config);
  ASSERT_TRUE(coord.Write("alice", "k", ToBytes("v")).ok());
  // One silent + one lying replica: no fast round can assemble 2f+1
  // matching replies, so the first read pays the fast_read_timeout and
  // arms the cooldown; the remaining reads skip the doomed round and go
  // straight to the ordered path (where f+1 honest matches suffice).
  coord.cluster().CrashReplica(3);
  coord.cluster().SetReplicaByzantine(2, true);
  for (int i = 0; i < 5; ++i) {
    auto entry = coord.Read("alice", "k");
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(ToString(entry->value), "v");
  }
  SmrCounters counters = coord.cluster().counters();
  EXPECT_EQ(counters.fast_path_reads, 0u);
  EXPECT_EQ(counters.fast_path_fallbacks, 5u);
  EXPECT_EQ(counters.fast_path_cooldown_bypasses, 4u);
}

TEST(SmrClusterTest, FastReadRejectsStaleQuorumAgainstWatermark) {
  auto env = Environment::Scaled(1e-3);
  SmrConfig config = FastSmrConfig(true);
  config.fast_read_timeout = 5000 * kMillisecond;
  ReplicatedCoordination coord(env.get(), config);
  ASSERT_TRUE(coord.Write("alice", "k", ToBytes("v")).ok());
  auto& cluster = coord.cluster();
  // Let every replica execute the write so the first read rides the fast
  // path and establishes a vouched frontier watermark.
  auto converged = [&] {
    for (unsigned r = 0; r < cluster.replica_count(); ++r) {
      if (cluster.executed_count(r) != 1u) {
        return false;
      }
    }
    return true;
  };
  for (int spin = 0; spin < 100 && !converged(); ++spin) {
    env->Sleep(50 * kMillisecond);
  }
  auto entry = coord.Read("alice", "k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(coord.cluster().counters().fast_path_reads, 1u);
  EXPECT_GE(cluster.client_observed_frontier(), 1u);
  // Force the watermark beyond every replica's committed frontier — the
  // state a client is in right after an ordered read exposed a write the
  // replicas it is about to hear from have not executed. The fast round
  // assembles a matching quorum, but a stale one: it must be rejected and
  // the read served through the ordered path instead of inverting.
  cluster.set_client_observed_frontier(1u << 20);
  auto guarded = coord.Read("alice", "k");
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(ToString(guarded->value), "v");
  SmrCounters counters = cluster.counters();
  EXPECT_EQ(counters.fast_path_reads, 1u);  // only the pre-inflation read
  EXPECT_GE(counters.fast_path_stale_quorums, 1u);
  EXPECT_GE(counters.fast_path_fallbacks, 1u);
}

// ---------------------------------------------------------------------------
// Partitioned coordination: routing, scatter-gather, combined digests.
// ---------------------------------------------------------------------------

PartitionedCoordinationConfig FastPartitionedConfig(unsigned partitions) {
  PartitionedCoordinationConfig config;
  config.partitions = partitions;
  config.smr = FastSmrConfig(true);
  return config;
}

// ---------------------------------------------------------------------------
// Linearizability of lease-served reads. A writer commits acked writes of a
// monotonically increasing counter; readers serve the key from a delegated
// lease snapshot when they hold one (exactly the metadata service's serving
// discipline: install the grant, drop it on a revocation notice or expiry)
// and re-acquire through the ordered path otherwise. Every event is recorded
// as an (invocation, response, value) interval; the checker asserts no read
// returns a value older than a write whose ack completed before the read
// began — the no-stale-read-after-ack rule — including across a leader crash
// and the resulting view change while revocations are in flight.
// ---------------------------------------------------------------------------

class LeaseHistoryClient {
 public:
  LeaseHistoryClient(Environment* env, CoordinationService* coord,
                     LeaseManager* manager, std::string session)
      : env_(env), coord_(coord), manager_(manager),
        session_(std::move(session)) {
    holder_id_ = manager_->RegisterHolder([this](const std::string& prefix) {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t n = std::min(prefix.size(), kPrefix_.size());
      if (prefix.empty() || prefix.compare(0, n, kPrefix_, 0, n) == 0) {
        valid_ = false;
        ++revocation_gen_;
      }
    });
  }
  ~LeaseHistoryClient() { manager_->UnregisterHolder(holder_id_); }

  // Returns the value read (parsed counter) or -1 on failure, and whether it
  // was served locally.
  int64_t Read(bool* local) {
    uint64_t gen_at_start = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (valid_ && env_->Now() < expires_at_) {
        *local = true;
        return snapshot_value_;
      }
      gen_at_start = revocation_gen_;
    }
    *local = false;
    // The TTL is generous on purpose: invalidation in this history comes
    // from revocations, not expiry, and a sanitized (ASan/TSan) build can
    // burn whole virtual seconds of work between two polls — an expiring
    // lease would then never serve a read locally.
    auto grant = coord_->AcquireLease("alice", session_, kPrefix_,
                                      30 * kSecond);
    if (!grant.ok()) {
      return -1;
    }
    int64_t value = -1;
    for (const auto& entry : grant->entries) {
      if (entry.key == kKey_) {
        value = ParseCounter(entry.value);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    // A revocation notice delivered while the grant round was in flight
    // wins (the revoking mutation was ordered after the grant executed):
    // serve this read from the grant — it was current when ordered — but
    // discard the snapshot instead of caching stale state. Same race check
    // as MetadataService::AcquireLeaseFor.
    if (revocation_gen_ == gen_at_start) {
      valid_ = true;
      expires_at_ = grant->expires_at;
      snapshot_value_ = value;
    }
    return value;
  }

  static int64_t ParseCounter(const Bytes& bytes) {
    return bytes.empty() ? -1 : std::stoll(ToString(bytes));
  }

 private:
  const std::string kPrefix_ = "m:/lin/";
  const std::string kKey_ = "m:/lin/k";

  Environment* env_;
  CoordinationService* coord_;
  LeaseManager* manager_;
  std::string session_;
  uint64_t holder_id_ = 0;

  std::mutex mu_;
  bool valid_ = false;
  uint64_t revocation_gen_ = 0;
  VirtualTime expires_at_ = 0;
  int64_t snapshot_value_ = -1;
};

TEST(LeaseLinearizabilityTest, NoReadOlderThanAckedWriteAcrossViewChange) {
  auto env = Environment::Scaled(1e-3);
  LeaseManager manager;
  auto inner =
      std::make_unique<ReplicatedCoordination>(env.get(), FastSmrConfig(true));
  ReplicatedCoordination* cluster_handle = inner.get();
  LeasedCoordination coord(std::move(inner), &manager);

  const std::string key = "m:/lin/k";
  ASSERT_TRUE(coord.Write("alice", key, ToBytes("0")).ok());

  struct Event {
    VirtualTime invoked = 0;
    VirtualTime responded = 0;
    int64_t value = 0;
    bool is_write = false;
  };
  std::mutex history_mu;
  std::vector<Event> history;
  auto record = [&](const Event& event) {
    std::lock_guard<std::mutex> lock(history_mu);
    history.push_back(event);
  };

  constexpr int kWrites = 30;
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> local_reads{0};

  std::thread writer([&] {
    for (int i = 1; i <= kWrites; ++i) {
      Event event;
      event.is_write = true;
      event.value = i;
      event.invoked = env->Now();
      ASSERT_TRUE(
          coord.Write("alice", key, ToBytes(std::to_string(i))).ok());
      event.responded = env->Now();
      record(event);
      env->Sleep(20 * kMillisecond);
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      LeaseHistoryClient client(env.get(), &coord, &manager,
                                "reader" + std::to_string(r));
      // The quiet tail after the writer finishes makes local serving
      // deterministic: a slow (e.g. sanitized) build can land a write —
      // and so a revocation — inside every poll gap of the racing phase,
      // but once writes stop, the first tail read (re-)grants and the
      // following ones must be served from the delegation.
      int tail = 3;
      while (!writer_done.load() || tail-- > 0) {
        Event event;
        event.invoked = env->Now();
        bool local = false;
        const int64_t value = client.Read(&local);
        event.responded = env->Now();
        if (value >= 0) {
          event.value = value;
          record(event);
        }
        if (local) {
          local_reads.fetch_add(1);
        }
        env->Sleep(5 * kMillisecond);
      }
    });
  }

  // Crash the leader mid-run: revocations committed around the crash must
  // survive the view change (lease state rides the checkpoint/vote state the
  // new leader adopts), and reads during the re-election keep linearizing.
  env->Sleep(250 * kMillisecond);
  cluster_handle->cluster().CrashReplica(0);

  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }

  // The checker: for every read, no acked-before-invocation write may be
  // newer than the value returned. Values are monotone, so the latest such
  // write is the max over complete-before intervals.
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(history_mu);
    events = history;
  }
  uint64_t checked = 0;
  for (const Event& read : events) {
    if (read.is_write) {
      continue;
    }
    int64_t floor_value = 0;
    for (const Event& write : events) {
      if (write.is_write && write.responded < read.invoked) {
        floor_value = std::max(floor_value, write.value);
      }
    }
    EXPECT_GE(read.value, floor_value)
        << "stale lease read: returned " << read.value << " after write "
        << floor_value << " acked";
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  // The lease plane actually served reads locally (the history exercised
  // the delegated path, not just the anchored one).
  EXPECT_GT(local_reads.load(), 0u);
  EXPECT_GT(manager.counters().revocations, 0u);
}

TEST(PartitionedCoordinationTest, RoutesKeysAcrossIndependentPartitions) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), FastPartitionedConfig(4));
  EXPECT_EQ(coord.partition_count(), 4u);
  std::set<unsigned> used;
  for (int i = 0; i < 16; ++i) {
    std::string key = "spread:" + std::to_string(i);
    ASSERT_LT(coord.PartitionOf(key), 4u);
    used.insert(coord.PartitionOf(key));
    ASSERT_TRUE(
        coord.Write("alice", key, ToBytes("v" + std::to_string(i))).ok());
  }
  EXPECT_GT(used.size(), 1u);  // the hash actually spreads keys
  for (int i = 0; i < 16; ++i) {
    auto entry = coord.Read("alice", "spread:" + std::to_string(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(ToString(entry->value), "v" + std::to_string(i));
    EXPECT_EQ(entry->version, 1u);
  }
  // Scatter-gather prefix read: every key, globally sorted, regardless of
  // which partition holds which.
  auto listed = coord.ReadPrefix("alice", "spread:");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 16u);
  EXPECT_TRUE(std::is_sorted(
      listed->begin(), listed->end(),
      [](const CoordEntryView& a, const CoordEntryView& b) {
        return a.key < b.key;
      }));
  // The lock recipe keeps per-key linearizability: a lock name lives on
  // exactly one partition, so exclusion is exactly the unsharded one.
  auto lock = coord.TryLock("alice", "L", 120 * kSecond);
  ASSERT_TRUE(lock.ok());
  EXPECT_EQ(coord.TryLock("bob", "L", 120 * kSecond).status().code(),
            ErrorCode::kBusy);
  ASSERT_TRUE(coord.Unlock("alice", "L", lock->token).ok());
}

TEST(PartitionedCoordinationTest, RenamePrefixRejectedAcrossPartitions) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), FastPartitionedConfig(2));
  ASSERT_TRUE(coord.Write("alice", "m:/d/x", ToBytes("v")).ok());
  EXPECT_EQ(coord.RenamePrefix("alice", "m:/d", "m:/e").code(),
            ErrorCode::kNotSupported);
}

TEST(PartitionedCoordinationTest, CoLocationPrefixesRouteWithTheirSuffix) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), FastPartitionedConfig(8));
  for (const std::string key : {"m:/a/dir/", "m:/b/other/"}) {
    EXPECT_EQ(coord.PartitionOf("ri:" + key), coord.PartitionOf(key));
    EXPECT_EQ(coord.PartitionOf("rc:" + key), coord.PartitionOf(key));
  }
}

TEST(PartitionedCoordinationTest, StateDigestCombinesDeterministically) {
  auto env = Environment::Scaled(1e-3);
  auto drive = [&](PartitionedCoordination& coord) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          coord.Write("alice", "sd:" + std::to_string(i), ToBytes("v")).ok());
    }
  };
  auto quorum_digest = [&](PartitionedCoordination& coord) {
    Bytes digest;
    for (int spin = 0; spin < 200 && digest.empty(); ++spin) {
      digest = coord.StateDigest();
      if (digest.empty()) {
        env->Sleep(50 * kMillisecond);
      }
    }
    return digest;
  };
  PartitionedCoordination a(env.get(), FastPartitionedConfig(4), 7);
  PartitionedCoordination b(env.get(), FastPartitionedConfig(4), 7);
  drive(a);
  drive(b);
  // Same per-key history -> same combined fingerprint: the per-partition
  // quorum digests are concatenated sorted by partition index, so the
  // combination is stable across deployments and restarts.
  Bytes da = quorum_digest(a);
  Bytes db = quorum_digest(b);
  ASSERT_FALSE(da.empty());
  EXPECT_EQ(da, db);
  ASSERT_TRUE(a.Write("alice", "sd:extra", ToBytes("w")).ok());
  Bytes da2 = quorum_digest(a);
  ASSERT_FALSE(da2.empty());
  EXPECT_NE(da2, da);  // and state-sensitive
}

// ---------------------------------------------------------------------------
// Elastic repartitioning: versioned route map, lazy client updates, live
// range migration with crash-recovery replay, scatter-gather dedupe, and
// the load-aware split controller.
// ---------------------------------------------------------------------------

PartitionedCoordinationConfig ElasticConfig(unsigned active, unsigned spares) {
  PartitionedCoordinationConfig config;
  config.partitions = active;
  config.spare_partitions = spares;
  config.smr = FastSmrConfig(true);
  return config;
}

// With two active partitions the uniform map is [0, 2^63) -> 0 and
// [2^63, 2^64) -> 1, and SplitPartition(0) moves [2^62, 2^63) to the spare.
bool InFirstSplitRange(const std::string& key) {
  return PartitionRoutingHash(key) >= (1ull << 62) &&
         PartitionRoutingHash(key) < (1ull << 63);
}

std::vector<std::string> SeedElasticKeys(PartitionedCoordination* coord,
                                         int count) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) {
    keys.push_back("ek:" + std::to_string(i));
    EXPECT_TRUE(
        coord->Write("alice", keys.back(), ToBytes("v" + std::to_string(i)))
            .ok());
  }
  return keys;
}

// No durable migration record may survive a completed (or replayed)
// migration. Read as the admin principal: the records are invisible to
// ordinary clients by ACL.
void ExpectNoMigrationRecords(PartitionedCoordination* coord) {
  CoordCommand scan;
  scan.op = CoordOp::kReadPrefix;
  scan.client = kCoordAdminPrincipal;
  scan.key = "__elastic:";
  auto records = coord->Submit(scan);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->entries.empty());
}

TEST(ElasticPartitionTest, ManualSplitMovesRangeExactlyOnce) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), ElasticConfig(2, 1));
  EXPECT_EQ(coord.partition_count(), 3u);
  EXPECT_EQ(coord.active_partition_count(), 2u);
  EXPECT_EQ(coord.route_epoch(), 1u);
  const std::vector<std::string> keys = SeedElasticKeys(&coord, 32);

  ASSERT_TRUE(coord.SplitPartition(0).ok());
  EXPECT_EQ(coord.route_epoch(), 2u);
  EXPECT_EQ(coord.active_partition_count(), 3u);
  ElasticCounters counters = coord.elastic_counters();
  EXPECT_EQ(counters.splits, 1u);
  EXPECT_GT(counters.keys_migrated, 0u);
  EXPECT_GT(counters.last_migration_us, 0u);

  // Every key still readable with its value; migrated entries carry exactly
  // one extra version bump (the import), never two.
  size_t moved = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto entry = coord.Read("alice", keys[i]);
    ASSERT_TRUE(entry.ok()) << keys[i];
    EXPECT_EQ(ToString(entry->value), "v" + std::to_string(i));
    if (coord.PartitionOf(keys[i]) == 2u) {
      ++moved;
      EXPECT_EQ(entry->version, 2u) << keys[i];
    } else {
      EXPECT_EQ(entry->version, 1u) << keys[i];
    }
  }
  EXPECT_EQ(moved, counters.keys_migrated);
  EXPECT_GT(moved, 0u);

  // The merged prefix view is complete, sorted and duplicate-free.
  auto listed = coord.ReadPrefix("alice", "ek:");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), keys.size());
  for (size_t i = 1; i < listed->size(); ++i) {
    EXPECT_LT((*listed)[i - 1].key, (*listed)[i].key);
  }
  ExpectNoMigrationRecords(&coord);
}

TEST(PartitionedCoordinationTest, FileLockRoutesWithItsMetadataEntry) {
  EXPECT_EQ(PartitionRoutingKey("lk:/a/b"), "m:/a/b/");
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), ElasticConfig(2, 1));
  std::vector<std::string> paths;
  std::set<unsigned> used;
  for (int i = 0; i < 1000; ++i) {
    paths.push_back("/dir" + std::to_string(i % 7) + "/f" + std::to_string(i));
    const std::string& path = paths.back();
    EXPECT_EQ(coord.PartitionOf("lk:" + path),
              coord.PartitionOf("m:" + path + "/"))
        << path;
    used.insert(coord.PartitionOf("lk:" + path));
  }
  EXPECT_EQ(used.size(), 2u);  // the pairs still spread over the partitions
  // One split moves whole hash ranges, so every pair moves together: the
  // lock-and-read of a migrated path still finds its entry.
  const std::string migrated = *std::find_if(
      paths.begin(), paths.end(),
      [](const std::string& path) { return InFirstSplitRange("lk:" + path); });
  ASSERT_TRUE(coord.Write("alice", "m:" + migrated + "/", ToBytes("v")).ok());
  ASSERT_TRUE(coord.SplitPartition(0).ok());
  for (const std::string& path : paths) {
    EXPECT_EQ(coord.PartitionOf("lk:" + path),
              coord.PartitionOf("m:" + path + "/"))
        << path;
  }
  EXPECT_EQ(coord.PartitionOf("lk:" + migrated), 2u);
  auto lock = coord.TryLock("alice", "lk:" + migrated, 120 * kSecond,
                            "m:" + migrated + "/");
  ASSERT_TRUE(lock.ok()) << lock.status().ToString();
  ASSERT_TRUE(lock->entry.has_value());
  EXPECT_EQ(ToString(lock->entry->value), "v");
}

// Publish-and-release over the partitioned plane: the compare-and-swap is
// routed by its entry, and PartitionRoutingKey puts the lock it releases on
// the same partition, so the release lands there — a contender takes the
// lock at once, and the entry holds the published value.
TEST(PartitionedCoordinationTest, PublishAndReleaseLandsOnTheEntrysPartition) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), FastPartitionedConfig(4));
  std::set<unsigned> used;
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/d/f" + std::to_string(i);
    const std::string key = "m:" + path + "/";
    const std::string lock_name = "lk:" + path;
    ASSERT_EQ(coord.PartitionOf(lock_name), coord.PartitionOf(key)) << path;
    used.insert(coord.PartitionOf(key));
    ASSERT_TRUE(coord.Write("alice", key, ToBytes("v1")).ok());
    auto lock =
        coord.TryLock("alice@s1", lock_name, 120 * kSecond, key, "alice");
    ASSERT_TRUE(lock.ok()) << lock.status().ToString();
    ASSERT_TRUE(lock->entry.has_value());
    auto published = coord.CompareAndSwap(
        "alice", key, ToBytes("v2"), lock->entry->version,
        CoordLockRelease{lock_name, lock->token});
    ASSERT_TRUE(published.ok()) << published.status().ToString();
    auto contender =
        coord.TryLock("alice@s2", lock_name, 120 * kSecond, key, "alice");
    ASSERT_TRUE(contender.ok()) << path << ": " << contender.status().ToString();
    ASSERT_TRUE(contender->entry.has_value());
    EXPECT_EQ(ToString(contender->entry->value), "v2");
    EXPECT_EQ(contender->entry->version, *published);
  }
  EXPECT_GT(used.size(), 1u);  // more than one partition took part
}

// The guarded unlink over an elastic split: the entry and the lock of a
// path move to the new partition together, so a lock taken there guards the
// remove, and the import's version bump turns a version read before the
// split into a conflict. A lock taken before the split stays on the source
// partition (locks do not migrate, ROADMAP item 9) and guards nothing.
TEST(PartitionedCoordinationTest, GuardedRemoveAcrossASplit) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), ElasticConfig(2, 1));
  std::vector<std::string> migrated;
  for (int i = 0; migrated.size() < 2; ++i) {
    const std::string path = "/dir/f" + std::to_string(i);
    if (InFirstSplitRange("lk:" + path)) {
      migrated.push_back(path);
    }
  }
  const std::string path = migrated[0];
  const std::string stranded = migrated[1];
  const std::string key = "m:" + path + "/";
  ASSERT_TRUE(coord.Write("alice", key, ToBytes("v")).ok());
  ASSERT_TRUE(coord.Write("alice", "m:" + stranded + "/", ToBytes("s")).ok());
  const uint64_t before_split = coord.Read("alice", key)->version;
  auto stale_lock = coord.TryLock("alice@s2", "lk:" + stranded, 120 * kSecond);
  ASSERT_TRUE(stale_lock.ok());
  ASSERT_TRUE(coord.SplitPartition(0).ok());
  ASSERT_EQ(coord.PartitionOf(key), 2u);

  EXPECT_EQ(coord.RemoveGuarded("alice", key, before_split, "lk:" + path,
                                "alice@s1")
                .status()
                .code(),
            ErrorCode::kConflict);
  const uint64_t current = coord.Read("alice", key)->version;
  EXPECT_GT(current, before_split);
  auto lock = coord.TryLock("alice@s2", "lk:" + path, 120 * kSecond);
  ASSERT_TRUE(lock.ok());
  EXPECT_EQ(
      coord.RemoveGuarded("alice", key, current, "lk:" + path, "alice@s1")
          .status()
          .code(),
      ErrorCode::kBusy);
  ASSERT_TRUE(coord.Unlock("alice@s2", "lk:" + path, lock->token).ok());
  auto removed =
      coord.RemoveGuarded("alice", key, current, "lk:" + path, "alice@s1");
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(ToString(removed->value), "v");
  EXPECT_EQ(coord.Read("alice", key).status().code(), ErrorCode::kNotFound);

  // The documented gap: the pre-split lock does not guard its entry.
  const std::string stranded_key = "m:" + stranded + "/";
  EXPECT_TRUE(coord
                  .RemoveGuarded("alice", stranded_key,
                                 coord.Read("alice", stranded_key)->version,
                                 "lk:" + stranded, "alice@s1")
                  .ok());
}

TEST(ElasticPartitionTest, MisroutedCommandRetriesWithFreshMap) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), ElasticConfig(2, 1));
  const std::vector<std::string> keys = SeedElasticKeys(&coord, 24);
  // "alice" now caches the epoch-1 map. Split, then write to a migrated
  // key: the stale-routed command is rejected with the current map and
  // retried transparently — the caller never sees the detour.
  ASSERT_TRUE(coord.SplitPartition(0).ok());
  std::string migrated;
  for (const std::string& key : keys) {
    if (coord.PartitionOf(key) == 2u) {
      migrated = key;
      break;
    }
  }
  ASSERT_FALSE(migrated.empty());
  EXPECT_EQ(coord.elastic_counters().route_epoch_retries, 0u);
  ASSERT_TRUE(coord.Write("alice", migrated, ToBytes("w")).ok());
  EXPECT_GE(coord.elastic_counters().route_epoch_retries, 1u);
  auto entry = coord.Read("alice", migrated);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(ToString(entry->value), "w");
  EXPECT_EQ(entry->version, 3u);  // import bump + the post-split write
  // The map is learned once; the next command routes right the first time.
  const uint64_t retries = coord.elastic_counters().route_epoch_retries;
  ASSERT_TRUE(coord.Write("alice", migrated, ToBytes("w2")).ok());
  EXPECT_EQ(coord.elastic_counters().route_epoch_retries, retries);
}

TEST(ElasticPartitionTest, ScatterGatherDedupesMidSplitDuplicates) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), ElasticConfig(2, 1));
  const std::vector<std::string> keys = SeedElasticKeys(&coord, 12);
  // Fabricate the mid-split state: one key present on both its owner and
  // another partition (source copy not yet retired / destination copy just
  // imported), with the non-owner copy stale.
  const std::string& dup = keys[0];
  const unsigned owner = coord.PartitionOf(dup);
  const unsigned other = owner == 0 ? 1 : 0;
  auto exported = coord.ExportPrefix("alice", dup);
  ASSERT_TRUE(exported.ok());
  ASSERT_EQ(exported->size(), 1u);
  ASSERT_TRUE(coord.Write("alice", dup, ToBytes("fresh")).ok());  // owner copy
  CoordCommand import;
  import.op = CoordOp::kImportEntry;
  import.client = kCoordAdminPrincipal;
  import.key = dup;
  import.value = exported->front().value;  // pre-write (stale) payload
  auto imported = coord.cluster(other).Execute(import);
  ASSERT_TRUE(imported.ok());
  ASSERT_TRUE(imported->ok());

  // The regression: a scatter-gather prefix read across the duplicate must
  // return the key once, and the owner's copy must win.
  auto listed = coord.ReadPrefix("alice", "ek:");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), keys.size());
  size_t seen = 0;
  for (const auto& entry : *listed) {
    if (entry.key == dup) {
      ++seen;
      EXPECT_EQ(ToString(entry.value), "fresh");
    }
  }
  EXPECT_EQ(seen, 1u);
}

TEST(ElasticPartitionTest, MergeReturnsRangesToDst) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordination coord(env.get(), ElasticConfig(2, 1));
  const std::vector<std::string> keys = SeedElasticKeys(&coord, 24);
  ASSERT_TRUE(coord.SplitPartition(0).ok());
  ASSERT_EQ(coord.active_partition_count(), 3u);
  // Cool-down path: fold the split-off partition back into 0.
  ASSERT_TRUE(coord.MergePartitions(2, 0).ok());
  EXPECT_EQ(coord.active_partition_count(), 2u);
  EXPECT_EQ(coord.route_epoch(), 3u);
  EXPECT_EQ(coord.elastic_counters().merges, 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto entry = coord.Read("alice", keys[i]);
    ASSERT_TRUE(entry.ok()) << keys[i];
    EXPECT_EQ(ToString(entry->value), "v" + std::to_string(i));
    EXPECT_NE(coord.PartitionOf(keys[i]), 2u);
  }
  auto listed = coord.ReadPrefix("alice", "ek:");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), keys.size());
  ExpectNoMigrationRecords(&coord);
}

TEST(ElasticPartitionTest, LeaseHookFiresAtSplitCommit) {
  auto env = Environment::Scaled(1e-3);
  PartitionedCoordinationConfig config = ElasticConfig(2, 1);
  std::vector<std::string> revoked;
  config.on_migration_commit =
      [&revoked](const std::vector<LeaseRevocation>& batch) {
        for (const auto& r : batch) {
          revoked.push_back(r.prefix);
        }
      };
  PartitionedCoordination coord(env.get(), config);
  const std::vector<std::string> keys = SeedElasticKeys(&coord, 24);
  ASSERT_TRUE(coord.SplitPartition(0).ok());
  // Exactly the migrated keys were revoked (holders of leases on those
  // prefixes must drop before any post-split mutation can ack).
  std::set<std::string> expected;
  for (const std::string& key : keys) {
    if (coord.PartitionOf(key) == 2u) {
      expected.insert(key);
    }
  }
  EXPECT_EQ(std::set<std::string>(revoked.begin(), revoked.end()), expected);
  EXPECT_FALSE(revoked.empty());
}

class ElasticCrashTest : public ::testing::Test {
 protected:
  ElasticCrashTest() : env_(Environment::Scaled(1e-3)) {
    PartitionedCoordinationConfig config = ElasticConfig(2, 1);
    // Crash tests probe the frozen state; a short stall budget keeps the
    // "mutation stalls behind a wedged migration" probe fast.
    config.migration_stall_timeout = 300 * kMillisecond;
    coord_ = std::make_unique<PartitionedCoordination>(env_.get(), config);
    keys_ = SeedElasticKeys(coord_.get(), 24);
    for (const std::string& key : keys_) {
      (InFirstSplitRange(key) ? &moved_ : &stayed_)->push_back(key);
    }
  }

  // Crash the controller at `point` during a split of partition 0, then
  // replay — the coordination plane's Mount analog — and verify the plane
  // converged to the post-split state with exactly-once entry migration.
  void CrashThenReplay(PartitionedCoordination::MigrationCrashPoint point) {
    ASSERT_FALSE(moved_.empty());
    ASSERT_FALSE(stayed_.empty());
    coord_->set_migration_crash_point(point);
    EXPECT_FALSE(coord_->SplitPartition(0).ok());

    // The migrating range is write-frozen while the migration is wedged:
    // a mutation into it stalls and times out; one outside sails through.
    EXPECT_EQ(coord_->Write("alice", moved_.front(), ToBytes("x"))
                  .code(),
              ErrorCode::kUnavailable);
    EXPECT_GE(coord_->elastic_counters().migration_stalls, 1u);
    ASSERT_TRUE(coord_->Write("alice", stayed_.front(), ToBytes("y")).ok());

    ASSERT_TRUE(coord_->ReplayMigrations().ok());
    EXPECT_EQ(coord_->route_epoch(), 2u);
    EXPECT_EQ(coord_->active_partition_count(), 3u);
    EXPECT_EQ(coord_->elastic_counters().splits, 1u);
    for (const std::string& key : moved_) {
      EXPECT_EQ(coord_->PartitionOf(key), 2u);
      auto entry = coord_->Read("alice", key);
      ASSERT_TRUE(entry.ok()) << key;
      // Exactly-once: one import bump (1 -> 2) no matter how many times
      // the replay re-imported the entry.
      EXPECT_EQ(entry->version, 2u) << key;
    }
    for (const std::string& key : stayed_) {
      ASSERT_TRUE(coord_->Read("alice", key).ok()) << key;
    }
    // The plane is fully live again: mutations into the moved range work.
    ASSERT_TRUE(coord_->Write("alice", moved_.front(), ToBytes("z")).ok());
    ExpectNoMigrationRecords(coord_.get());
  }

  std::unique_ptr<Environment> env_;
  std::unique_ptr<PartitionedCoordination> coord_;
  std::vector<std::string> keys_;
  std::vector<std::string> moved_;
  std::vector<std::string> stayed_;
};

TEST_F(ElasticCrashTest, ReplayAfterIntentCrash) {
  CrashThenReplay(PartitionedCoordination::MigrationCrashPoint::kAfterIntent);
}

TEST_F(ElasticCrashTest, ReplayAfterPartialImportCrash) {
  CrashThenReplay(PartitionedCoordination::MigrationCrashPoint::kMidImport);
}

TEST_F(ElasticCrashTest, ReplayAfterCommitCrash) {
  CrashThenReplay(PartitionedCoordination::MigrationCrashPoint::kAfterCommit);
}

TEST(ElasticPartitionTest, HotShareIsWindowedNotCumulative) {
  // 1000 historical ops on partition 0, then a window in which only
  // partition 1 works: current load is all partition 1. A cumulative
  // computation would still call partition 0 hot — the bug this guards.
  PartitionLoadSnapshot before;
  before.at = 0;
  before.per_partition.resize(2);
  before.per_partition[0].ordered_commands = 1000;
  PartitionLoadSnapshot after = before;
  after.at = kSecond;
  after.per_partition[1].ordered_commands = 100;
  const std::vector<double> rates = PartitionOpsPerSecond(before, after);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_EQ(rates[1], 100.0);
  EXPECT_EQ(PartitionHotShare(before, after), 1.0);
}

TEST(ElasticPartitionTest, AutoSplitFiresUnderSkew) {
  // Scale chosen for sanitized builds: at 1e-3 a TSan-instrumented write
  // burns ~1 ms real = a full virtual second, and the windowed rate never
  // clears split_min_total_ops_s. 2e-2 keeps the per-virtual-second rate
  // two orders above the gate even at a 10x slowdown.
  auto env = Environment::Scaled(2e-2);
  PartitionedCoordinationConfig config = ElasticConfig(2, 1);
  config.auto_split = true;
  config.split_window = 400 * kMillisecond;
  config.split_hot_share = 0.6;
  config.split_min_total_ops_s = 1.0;
  PartitionedCoordination coord(env.get(), config);
  // Pin every write onto keys owned by partition 0: its windowed share
  // goes to ~1 and the controller must split it onto the spare.
  std::vector<std::string> hot_keys;
  for (int i = 0; hot_keys.size() < 8; ++i) {
    std::string key = "hot:" + std::to_string(i);
    if (coord.PartitionOf(key) == 0u) {
      hot_keys.push_back(key);
    }
  }
  const VirtualTime deadline = env->Now() + 60 * kSecond;
  uint64_t i = 0;
  while (coord.elastic_counters().splits == 0 && env->Now() < deadline) {
    ASSERT_TRUE(
        coord.Write("alice", hot_keys[i % hot_keys.size()], ToBytes("v"))
            .ok());
    ++i;
  }
  EXPECT_GE(coord.elastic_counters().splits, 1u);
  EXPECT_GE(coord.route_epoch(), 2u);
  EXPECT_EQ(coord.active_partition_count(), 3u);
  // Partition 0's range really was carved up (the EWMA view itself resets
  // at the commit, so the map is the durable evidence).
  EXPECT_GE(coord.route_map().ranges.size(), 3u);
}

}  // namespace
}  // namespace scfs
