// MetadataService: the SCFS agent's local service for file metadata (paper
// §2.5.1) with two features central to the evaluation:
//
//   * a short-term metadata cache (default 500 ms expiration) absorbing the
//     bursts of stat/getattr calls applications issue per high-level action
//     (Figure 10a shows the system collapsing without it);
//   * Private Name Spaces (§2.7): metadata of non-shared files lives in one
//     cloud-stored object per user instead of one coordination tuple per
//     file, shrinking coordination-service state and traffic (Figure 10b).
//
// Shared entries live in the coordination service (the consistency anchor for
// both metadata and, via the content hash they carry, file data).

#ifndef SCFS_SCFS_METADATA_SERVICE_H_
#define SCFS_SCFS_METADATA_SERVICE_H_

#include <atomic>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/future.h"
#include "src/coord/coordination_service.h"
#include "src/coord/lease.h"
#include "src/scfs/metadata.h"
#include "src/scfs/storage_service.h"
#include "src/sim/environment.h"

namespace scfs {

struct MetadataServiceOptions {
  VirtualDuration cache_ttl = FromMillis(500);
  bool use_pns = false;        // Private Name Spaces enabled
  bool non_sharing = false;    // no coordination service at all (SCFS-*-NS)
  // Lock-owner identity of this agent session. Locks must be per-session —
  // two machines logged in as the same user still conflict (the PNS lock
  // exists precisely for that case). Defaults to the user name if empty.
  std::string session;
  // Lease-delegated caching (DESIGN.md "Lease-delegated caching"): with a
  // non-null manager and a nonzero TTL, metadata reads acquire ordered read
  // leases on parent-directory prefixes and serve stat/open/readdir from the
  // grant snapshot with zero coordination messages until the lease expires
  // or a mutation revokes it.
  LeaseManager* leases = nullptr;
  VirtualDuration lease_ttl = 0;
  // At most this many leased prefixes per agent; beyond it the least
  // recently used lease is dropped locally (the server copy just expires).
  size_t lease_max_prefixes = 16;
  // After a revocation, leave the prefix on the anchored path this long —
  // write-hot directories would otherwise thrash grant/revoke.
  VirtualDuration lease_holdoff = FromMillis(1000);
};

class MetadataService {
 public:
  // `coord` may be null only in non-sharing mode. `storage` persists the PNS
  // object (it is file data as far as the cloud is concerned).
  MetadataService(Environment* env, CoordinationService* coord,
                  StorageService* storage, std::string user,
                  MetadataServiceOptions options);
  ~MetadataService();

  // Loads the PNS at mount time (locks it against a second session of the
  // same user when a coordination service is available).
  Status Mount();
  Status Unmount();

  // A copy of a shared entry carries the entry version it was read at
  // (FileMetadata::entry_version) when this agent knows it.
  Result<FileMetadata> Get(const std::string& path);
  // The copy Get would serve without a coordination message (an in-flight
  // close's override, a write-credit pin, a lease snapshot, the TTL cache or
  // the PNS), or nullopt if Get would have to ask the coordination service.
  // Counts no hit: a guess, not a read (DESIGN.md "Fetch during the lock
  // round").
  std::optional<FileMetadata> Peek(const std::string& path);
  // Reads a shared entry from the coordination service, bypassing every
  // local copy, and refreshes the cache with it.
  Result<FileMetadata> ReadShared(const std::string& path);
  // Publishes an entry. While this agent holds the path's write lock, a
  // shared entry is published by compare-and-swap on the entry version read
  // under the lock (see OpenLocked): kConflict if another writer published
  // since (its lock expired, or a split moved the entry).
  //
  // With `release` (LockService::PublishAndRelease), the path's lock ends
  // here: released in the compare-and-swap's own ordered slot, whatever
  // the swap's outcome. Where no compare-and-swap carries it (a private
  // entry, no publish base, a submission that got no reply) a standalone
  // unlock follows the publish. The status is the publish's. The path's
  // write-credit pin is dropped before the command is sent.
  Status Put(const FileMetadata& metadata,
             const std::optional<CoordLockRelease>& release = std::nullopt);
  Status Create(const FileMetadata& metadata);  // fails if the path exists
  Status Remove(const std::string& path);
  // Removes a shared entry in one ordered command guarded by `version` (the
  // entry version the caller checked; 0: any) and by the path's write lock,
  // which no session but this agent's may hold. Returns the removed entry;
  // kConflict if the entry moved past `version`, kBusy if another session
  // holds the lock.
  Result<FileMetadata> RemoveShared(const std::string& path, uint64_t version);
  Result<std::vector<FileMetadata>> ListDir(const std::string& path);
  Status RenameSubtree(const std::string& from, const std::string& to);

  // Tombstones: data units orphaned by unlink, awaiting garbage collection.
  Status AddTombstone(const std::string& object_id);
  Result<std::vector<std::string>> ListTombstones();
  Status RemoveTombstone(const std::string& object_id);
  // Asynchronous variant: the garbage collector overlaps one object's
  // tombstone-removal coordination round with the next object's cloud
  // deletes. PNS-local tombstones complete inline (ready future).
  Future<Status> RemoveTombstoneAsync(const std::string& object_id);

  // Moves a PNS entry into the coordination service when a file becomes
  // shared (and back when all grants are revoked). No-ops without PNS.
  Status PromoteToShared(const FileMetadata& metadata);
  Status DemoteToPrivate(const FileMetadata& metadata);

  // Grants/revokes coordination-level access to a shared entry.
  Status GrantEntry(const std::string& path, const std::string& grantee,
                    bool read, bool write);

  // Drops expired cache entries; exposed so tests can force expiration.
  void InvalidateCache(const std::string& path);

  // Records the locator of a private entry's uploaded version, if the PNS
  // entry still holds `content_hash` (non-blocking closes publish the PNS
  // entry before the upload that yields the locator completes).
  void SetPnsLocator(const std::string& path, const std::string& content_hash,
                     const Bytes& locator);

  // Snapshot of all PNS entries (garbage collector input).
  std::vector<FileMetadata> PnsEntries();

  // Persists the PNS object to the cloud and refreshes the PNS tuple. Called
  // by the agent's background uploader after private-file updates. Flushes
  // are serialized: concurrent close chains each flush the whole (global)
  // PNS, and the tuple write is last-writer-wins, so an unserialized slow
  // flush could land after a newer one and regress the durable PNS.
  Status FlushPns();

  // True if this entry is (or would be) stored privately in the PNS.
  bool IsPrivateEntry(const FileMetadata& metadata);

  // Refreshes only the local short-term cache (used by the non-blocking mode
  // so the writer observes its own close immediately, before the background
  // coordination update completes).
  void CacheLocally(const FileMetadata& metadata);

  // Lock-and-read (DESIGN.md "Write-behind metadata"): opens a path this
  // agent just write-locked with a coordination round from the entry that
  // round read at the lock's ordered position (nullopt: no shared entry;
  // the path may still be a private PNS entry), never from the TTL cache.
  // Records the entry's version as the base of the path's publishes, each
  // of which advances it, until ForgetLock.
  Result<FileMetadata> OpenLocked(const std::string& path,
                                  const std::optional<CoordEntry>& entry);

  // Write-credit serving (DESIGN.md "Lease-delegated caching"): while this
  // agent holds the path's write lock — including a lingering hold — no
  // other client can commit a write, so the agent's own last published
  // metadata is the newest and reads of it need no coordination round.
  // `valid_until` is the lock's conservative lease bound (LockService::
  // HeldUntil, same virtual clock the server expires with); past it the pin
  // stops serving.
  void PinOwned(const FileMetadata& metadata, VirtualTime valid_until);
  // Drops the pin and the publish base of `path`. The lock service's
  // on_release hook must call it the moment the hold ends for real.
  void ForgetLock(const std::string& path);

  bool using_pns() const { return options_.use_pns || options_.non_sharing; }
  const std::string& user() const { return user_; }

  // Experiment counters. coord_reads counts every metadata read the
  // coordination service answered, a NOT_FOUND included.
  uint64_t coord_reads() const {
    return coord_reads_.load(std::memory_order_relaxed);
  }
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t lease_hits() const {
    return lease_hits_.load(std::memory_order_relaxed);
  }
  uint64_t lease_grants() const {
    return lease_grants_.load(std::memory_order_relaxed);
  }
  uint64_t pinned_hits() const {
    return pinned_hits_.load(std::memory_order_relaxed);
  }

 private:
  struct CachedEntry {
    FileMetadata metadata;
    VirtualTime fetched_at = 0;
  };

  // A granted read lease: the snapshot of every coordination entry under
  // `entries`'s prefix, served locally until expiry or revocation. A path
  // covered by a live lease but absent from the snapshot is authoritatively
  // absent from the coordination service (negative caching) — the grant
  // returned the whole prefix.
  struct LeasedPrefix {
    uint64_t epoch = 0;
    VirtualTime expires_at = 0;
    VirtualTime last_used = 0;
    std::map<std::string, FileMetadata> entries;  // keyed by path
  };

  bool InPns(const std::string& path);
  // Get's local layers, in Get's order: the copy they hold (kNotFound from
  // a lease's negative caching), or nullopt when only the coordination
  // service can answer. Requires mu_.
  std::optional<Result<FileMetadata>> FindLocal(const std::string& path,
                                                bool count_hits);
  Result<FileMetadata> GetFromCoord(const std::string& path);
  // Writes a shared entry: a compare-and-swap on the path's publish base
  // when it has one, else an unconditional write. Returns the published
  // entry version (0 after an unconditional write, which does not learn it).
  // A non-null `release` rides the compare-and-swap; it is reset once a
  // reply shows the slot ran, and left set when no command carried it.
  Result<uint64_t> WriteShared(
      const FileMetadata& metadata,
      std::optional<CoordLockRelease>* release = nullptr);
  // The standalone unlock of a release no command carried (nullopt:
  // none). A failure is logged, not returned: the publish is what the
  // close reports, and the lock's lease ends the hold regardless.
  void UnlockUncarried(const std::optional<CoordLockRelease>& release);
  // Caches a copy of `metadata` whose entry version is `version` (0:
  // unknown). Requires mu_.
  void CacheWithVersion(const FileMetadata& metadata, uint64_t version);
  std::string PnsObjectId() const { return "pns-" + user_; }

  bool LeasesEnabled() const {
    return options_.leases != nullptr && options_.lease_ttl > 0 &&
           coord_ != nullptr && !options_.non_sharing;
  }
  // The prefix a lease for `path`'s parent directory covers ("m:<dir>/").
  static std::string LeasePrefixFor(const std::string& path);
  // Requires mu_. Returns the live lease covering metadata key `mkey`
  // (touching its LRU stamp), or nullptr.
  LeasedPrefix* FindCoveringLease(const std::string& mkey);
  // Acquires (or renews) the lease for `prefix` through the ordered path and
  // installs the grant snapshot. Fails without side effects if a revocation
  // raced the grant, if grants are suspended (chaos window) or if the prefix
  // is in post-revocation holdoff.
  Status AcquireLeaseFor(const std::string& prefix);
  // LeaseManager revocation sink (runs before the revoking mutation acks).
  void OnLeaseRevoked(const std::string& prefix);

  Environment* env_;
  CoordinationService* coord_;
  StorageService* storage_;
  std::string user_;
  MetadataServiceOptions options_;

  std::mutex mu_;
  // Held across a whole FlushPns (snapshot -> cloud push -> tuple write);
  // acquired before mu_, never the other way around.
  std::mutex flush_mu_;
  std::map<std::string, CachedEntry> cache_;
  // The agent's own in-flight close updates (non-blocking mode): authoritative
  // until the background coordination update completes, unlike the TTL cache.
  std::map<std::string, FileMetadata> local_overrides_;
  // Write-credit pins (PinOwned): published-while-locked entries, served
  // locally until the lock's conservative lease bound or ForgetLock.
  struct PinnedEntry {
    FileMetadata metadata;
    VirtualTime valid_until = 0;
  };
  std::map<std::string, PinnedEntry> pinned_;
  // Publish bases (OpenLocked): path -> coordination version of its entry
  // as of this agent's last lock-and-read or publish; 0 = no entry.
  std::map<std::string, uint64_t> locked_versions_;
  PrivateNameSpace pns_;
  bool pns_loaded_ = false;
  uint64_t pns_lock_token_ = 0;

  // Post-revocation backoff for one prefix. A write-hot directory (e.g. a
  // log directory under steady appends) revokes every lease granted on it
  // almost immediately; re-granting at a fixed cadence turns the lease plane
  // into pure overhead (each grant is an ordered round, scattered across
  // every partition). The penalty doubles on each revocation that cost this
  // client a live lease or an in-flight grant — 1x, 2x, 4x the base holdoff,
  // capped at 4x — so a mutation-heavy prefix quickly stops being leased
  // (its continuing losses keep the holdoff refreshed), yet recovers within
  // a few base periods of the writes stopping. The penalty resets once the
  // prefix has been quiet for a lease TTL past the last holdoff.
  struct LeaseHoldoff {
    VirtualTime until = 0;
    uint32_t penalty = 1;
  };

  // Lease-delegated caching state (all under mu_ except the counters).
  std::map<std::string, LeasedPrefix> leases_;          // by key prefix
  std::map<std::string, LeaseHoldoff> lease_holdoff_;   // prefix -> backoff
  // Prefixes with a grant round in flight: concurrent misses on the same
  // prefix fall through to the anchored read instead of stacking duplicate
  // ordered grant commands.
  std::set<std::string> lease_grants_in_flight_;
  // Bumped by every revocation notice. A grant in flight across a bump is
  // discarded (it may predate the revoking mutation) — but only if one of
  // the logged revocations overlaps the granted prefix; a busy unrelated
  // prefix must not starve grants elsewhere. The log is bounded: when it no
  // longer reaches back to the grant's start, the check is conservative
  // (discard).
  uint64_t lease_revocation_gen_ = 0;
  std::deque<std::pair<uint64_t, std::string>> lease_revocation_log_;
  uint64_t lease_holder_id_ = 0;

  std::atomic<uint64_t> coord_reads_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> lease_hits_{0};
  std::atomic<uint64_t> lease_grants_{0};
  std::atomic<uint64_t> pinned_hits_{0};
};

}  // namespace scfs

#endif  // SCFS_SCFS_METADATA_SERVICE_H_
