// DepSkyClient: the cloud-of-clouds storage protocols (paper §3.2, Figure 6,
// and [15]), extended with SCFS's read-by-hash operation for consistency
// anchoring.
//
// A data unit is a versioned object spread over n = 3f+1 clouds. A version
// is a list of units: the file cut into stripe_unit()-sized slices, at
// least one, so a small file is a one-unit version. A write:
//   1. launches the read of the unit's metadata from every cloud, and does
//      not wait for it yet,
//   2. draws a fresh random object id that names the version's objects,
//   3. generates a fresh random key K and secret-shares it so each cloud
//      gets one share (f+1 shares recover K),
//   4. per unit: encrypts the slice with K at its offset in the file's
//      keystream, erasure-codes the ciphertext into n shards (any k = f+1
//      recover it) and stores shard_i + share_i in cloud i — with preferred
//      quorums only the cheapest n-f clouds are used unless one fails,
//   5. once n-f clouds have acknowledged every unit's shards and the
//      metadata read has settled, applies the caller's grants to the
//      stored objects and numbers the version after the highest one read
//      (and after the caller's predecessor record, if any),
//   6. behind the write (StartWrite returns before it, once n-f copies
//      list the caller's predecessor version, and its caller starts it with
//      DepSkyWrite::finish): appends the version to the authenticated
//      metadata object replicated in every cloud, and applies the ACLs the
//      metadata adds (owner ids, stored grants) alongside.
// Units run through a bounded window on the executor; a one-unit version
// runs on the caller's thread. StartWrite returns the numbered version
// record after max(metadata read, shard PUT wave); the caller may anchor
// the record next to the hash at once, because record reads need no
// metadata (DESIGN.md "Write-behind metadata"), and then call finish.
// WriteVersion does both: max(read, wave) plus the metadata PUT.
// Replication mode (DepSky-A) runs the same unit steps with no key: each
// cloud stores the unit's plaintext.
// Reads come in three forms, all ending in the same fetch of k valid shards
// per unit from the fastest healthy holders (hash-checked, so corrupted or
// byzantine clouds are detected and skipped), and a check of the plaintext
// against the content hash:
//   - ReadVersion (the record the consistency anchor carries): no metadata
//     round at all; the read waits for the k-th fastest holder only. If the
//     record cannot deliver, it falls back once to ReadByHash.
//   - ReadByHash (the hash alone): asks every cloud for the metadata and
//     settles on the first authenticated copy that lists the hash. If the
//     shards that copy names cannot be fetched, it re-reads the metadata
//     once at the full quorum.
//   - ReadLatest: waits for n-f authenticated metadata copies and keeps the
//     highest version.
//
// No single cloud ever holds the plaintext or the whole key: confidentiality,
// integrity and availability survive f arbitrary cloud faults.

#ifndef SCFS_DEPSKY_DEPSKY_H_
#define SCFS_DEPSKY_DEPSKY_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cloud/health.h"
#include "src/cloud/object_store.h"
#include "src/codec/reed_solomon.h"
#include "src/common/backoff.h"
#include "src/common/executor.h"
#include "src/common/future.h"
#include "src/common/rng.h"
#include "src/common/timer_queue.h"
#include "src/crypto/secret_sharing.h"
#include "src/depsky/metadata.h"
#include "src/sim/environment.h"

namespace scfs {

struct DepSkyCloud {
  ObjectStore* store = nullptr;
  CloudCredentials creds;  // this client's account at that provider
};

struct DepSkyConfig {
  unsigned f = 1;
  DepSkyMode mode = DepSkyMode::kSecretSharing;
  bool preferred_quorums = true;  // write shards to n-f clouds only
  Bytes auth_key;                 // metadata HMAC key (deployment secret)

  // --- Degraded-mode behavior (see DESIGN.md "Failure model") ---
  // Per-attempt deadline on every cloud request; a request that has not
  // answered by then is counted as a failure (and possibly retried) while
  // the straggler keeps running in its store. 0 disables. Deadlines and
  // hedges are timer-driven and therefore inert in instant environments.
  VirtualDuration request_deadline = FromSecondsD(5);
  // Attempts per cloud request (1 = no retry). Retries back off with
  // `retry_backoff` between attempts.
  int max_attempts = 2;
  BackoffPolicy retry_backoff{FromMillis(50), FromMillis(1000), 2.0, 0.5};
  // Shard reads launch one extra holder after an adaptive delay (the
  // (f+2)-th cloud) instead of waiting out a straggler.
  bool hedged_reads = true;
  // Circuit-breaker / EWMA configuration for the per-cloud health tracker.
  HealthOptions health;

  // --- Units (DESIGN.md "Units") ---
  // Every write is cut into stripe_unit() sized units, each its own
  // encrypt→erasure-encode→quorum-PUT, fanned out with bounded depth; a
  // file no larger than one unit is one unit. One version number, one
  // metadata record and one key/nonce cover all units.
  size_t stripe_unit_size = 4 * 1024 * 1024;
  // Units in flight per write/read: peak client memory for a multi-unit
  // transfer is O(stripe_window() × stripe_unit()), not O(file). 0 = auto:
  // match the host's core count (capped at 8) — depth beyond the cores only
  // buys context switches when the pipeline is CPU-bound, while a
  // single-core host degrades to the optimal serial loop.
  unsigned stripe_inflight = 0;

  unsigned n() const { return 3 * f + 1; }
  unsigned k() const { return f + 1; }
  unsigned quorum() const { return n() - f; }
  // Unit size rounded up to the cipher block (64 bytes) so each unit's
  // keystream counter offset (unit byte offset / 64) addresses one
  // file-wide stream.
  size_t stripe_unit() const {
    const size_t base =
        stripe_unit_size == 0 ? 4 * 1024 * 1024 : stripe_unit_size;
    return (base + 63) / 64 * 64;
  }
  // Effective in-flight window (resolves the auto default).
  unsigned stripe_window() const {
    if (stripe_inflight > 0) {
      return stripe_inflight;
    }
    unsigned cores = std::thread::hardware_concurrency();
    return cores == 0 ? 2 : std::min(cores, 8u);
  }
};

// A write acknowledged at the shard quorum (DepSkyClient::StartWrite).
struct DepSkyWrite {
  // The version record, numbered; every unit's shards are on a write
  // quorum.
  DepSkyVersion record;
  // Starts the write-behind: call it once, after the record is anchored,
  // or never (a write whose anchor failed must not be listed). It returns
  // once the metadata PUT requests are launched, with the future of the
  // PUT's write quorum and of the metadata-derived ACLs. `handed_off` is
  // when the caller sent the command that lets the next writer start
  // (SCFS: the publish that releases the file lock); nullopt if no next
  // writer can start yet. Past HandoffBound() after it, nothing is
  // launched (the future fails with kTimeout, late_handoffs()): the next
  // writer lists the version instead, as it would a crashed writer's.
  std::function<Future<Status>(std::optional<VirtualTime> handed_off)> finish;
};

// Outcome of one scrub pass over a data unit (see ScrubUnit): how many stored
// objects were probed, found missing/corrupt, rebuilt in place, moved to a
// substitute cloud, or left unrepaired.
struct DepSkyScrubReport {
  uint64_t versions_checked = 0;
  uint64_t objects_checked = 0;
  uint64_t objects_missing = 0;
  uint64_t objects_repaired = 0;
  uint64_t objects_relocated = 0;
  uint64_t repair_failures = 0;
  // True when every recorded holder ended the pass with a hash-valid object.
  bool fully_redundant = true;
};

class DepSkyClient {
 public:
  // `seed` roots the client's keys and nonces. Object ids do not depend on
  // it alone: they also mix in the client's per-cloud canonical ids and its
  // creation order in the process, so two clients built with one seed
  // never name an object alike.
  DepSkyClient(Environment* env, std::vector<DepSkyCloud> clouds,
               DepSkyConfig config, uint64_t seed);
  // Waits for ACL continuations still riding behind straggler PUTs.
  ~DepSkyClient();

  // Stores a new version. `content_hash` is the hex consistency-anchor hash
  // of `data` (computed by the caller; verified on read). Returns once
  // every unit's shards are on a write quorum, the metadata read has
  // settled and n-f copies list the predecessor (below): the version
  // record, its number filled in, and the step that writes the metadata
  // listing it (DepSkyWrite::finish). If
  // `merge_grants` is non-null, they are applied to the objects before the
  // call returns and folded into the unit metadata.
  //
  // `predecessor` is the record of the version this one replaces, as the
  // caller's consistency anchor holds it (SCFS: the locator read under the
  // file lock). The version is numbered after it too, and the metadata
  // lists it even if its own metadata PUT never landed. The straggler
  // invariant — at most f clouds end up with a history older than the
  // newest anchored version — needs two things of the caller: this call
  // started after the predecessor's handoff (SCFS: the file lock's
  // release), and this write's finish gets the time of its own handoff.
  // The predecessor's finish then launched every request it launched at
  // most HandoffBound() after this call started, so the wait for its
  // listing (if the write's own read did not show n-f copies listing it,
  // re-reading the metadata meanwhile) ends at the latest RequestBudget()
  // + HandoffBound() after this call started: by then none of those
  // requests can still land.
  //
  // `data` is a borrowed view: each unit is encrypted straight into its
  // erasure-coding arena (secret-sharing mode) or serialized straight into
  // the per-cloud wire objects (replication mode) — the client never makes
  // its own copy of the plaintext.
  Result<DepSkyWrite> StartWrite(
      const std::string& unit, const std::string& content_hash,
      ConstByteSpan data,
      const std::vector<DepSkyGrant>* merge_grants = nullptr,
      const DepSkyVersion* predecessor = nullptr);
  // StartWrite, then its finish, waited to its end: returns the version
  // record once the metadata listing it is on a write quorum.
  Result<DepSkyVersion> WriteVersion(
      const std::string& unit, const std::string& content_hash,
      ConstByteSpan data,
      const std::vector<DepSkyGrant>* merge_grants = nullptr);

  // Reads the version `record` describes (one WriteVersion returned) with
  // no metadata GET: per unit, k shard GETs from its fastest holders,
  // decoded with this client's n, k and mode. If they cannot produce the
  // version, falls back once to ReadByHash(unit, record.content_hash),
  // counted in anchored_read_fallbacks(); its NOT_FOUND still means "not
  // visible yet".
  Result<Bytes> ReadVersion(const std::string& unit,
                            const DepSkyVersion& record);
  // Same, from an encoded record anchored next to `content_hash` (a
  // BlobBackend locator). A record that does not decode, or that describes
  // another content hash, cannot deliver the anchored version: it takes the
  // same one counted fallback to ReadByHash(unit, content_hash).
  Result<Bytes> ReadVersion(const std::string& unit,
                            const std::string& content_hash,
                            const Bytes& encoded_record);

  // Reads the version with the given content hash when no record is at
  // hand; NOT_FOUND if no (visible) metadata lists it — the
  // consistency-anchor read loop retries. The hash is the anchor: the
  // metadata read settles on the first authenticated copy listing it (or on
  // n-f authenticated copies, none listing it), fetches the record it names
  // as ReadVersion does, and falls back to one full-quorum re-read if that
  // copy's shards cannot be fetched.
  Result<Bytes> ReadByHash(const std::string& unit,
                           const std::string& content_hash);

  // Reads the highest authenticated version.
  Result<Bytes> ReadLatest(const std::string& unit);

  // Range read of the version with the given content hash: only the units
  // overlapping [offset, offset+length) are fetched, each verified against
  // its recorded plaintext hash. Reads past EOF are clamped. Reads the
  // metadata exactly like ReadByHash.
  Result<Bytes> ReadAt(const std::string& unit, const std::string& content_hash,
                       uint64_t offset, size_t length);

  // Scrub & repair: probes every recorded holder of every unit of every
  // version, and rebuilds missing or corrupt stored objects from k
  // surviving shards — re-deriving parity with the erasure code and the lost
  // key share by Lagrange interpolation, so the repaired object is
  // byte-identical to the original (same recorded hash, no metadata change).
  // If a holder stays unreachable, the shard is relocated to a cloud that
  // holds none of this object's shards and the metadata map is updated.
  // Client reads keep working throughout — repair touches only clouds,
  // never the read path.
  Result<DepSkyScrubReport> ScrubUnit(const std::string& unit);

  // Quorum-read of the data unit's metadata: the highest version among n-f
  // authenticated copies.
  Result<DepSkyMetadata> ReadMetadata(const std::string& unit);

  // Garbage collection. DeleteVersion drops the oldest version with the
  // given content hash (its objects and its metadata entry) after one
  // metadata read; NOT_FOUND if no version has that hash. DeleteUnit lists
  // du/<unit>/ on every cloud and deletes everything under it that the
  // caller may read: the metadata, every version's objects, and the orphans
  // of the caller's own writes that stored shards but failed before
  // publishing them. A grantee's failed write never got the owner's ACLs,
  // so its orphans are listed (and deleted) only by the grantee. It first
  // waits for this client's own PUTs under du/<unit>/ still in flight (the
  // last clouds' requests of a write that returned at its quorum), which
  // would otherwise land after the listing; another client's stragglers
  // are bounded only by their request budget.
  Status DeleteVersion(const std::string& unit,
                       const std::string& content_hash);
  Status DeleteUnit(const std::string& unit);

  // Sharing: grants `grant.cloud_ids[i]` access at cloud i to all current and
  // future objects of the unit, and records the grant in the metadata so
  // future writers re-apply it. Empty read+write revokes.
  Status SetGrant(const std::string& unit, const DepSkyGrant& grant);

  unsigned cloud_count() const { return static_cast<unsigned>(clouds_.size()); }
  const DepSkyConfig& config() const { return config_; }
  // The longest one robust cloud request can take: every attempt to its
  // deadline plus the longest backoff before each retry.
  VirtualDuration RequestBudget() const;
  // H, the longest a writer's handoff may take to be acknowledged for its
  // finish still to launch the metadata PUT: one request deadline, the
  // bound one cloud request attempt gets. With deadlines off (0) no finish
  // is late, and no bound on stragglers holds.
  VirtualDuration HandoffBound() const;

  // Self-healing telemetry: the per-cloud breaker/EWMA state and the
  // counters the fault benches report.
  const CloudHealthTracker& health() const { return health_; }
  uint64_t retries() const { return retries_.load(); }
  uint64_t deadline_expiries() const { return deadline_expiries_.load(); }
  uint64_t hedged_reads() const { return hedged_reads_.load(); }
  // Reads that fell back: record reads whose record could not deliver the
  // version, and reads by hash whose early-accepted metadata copy could not
  // and that re-read the metadata at the full quorum.
  uint64_t anchored_read_fallbacks() const {
    return anchored_read_fallbacks_.load();
  }
  // Write-behinds whose write's metadata read did not show n-f copies
  // listing the predecessor, so that they re-read the metadata; and those
  // of them that never saw it and waited out the predecessor's request
  // budget before listing it themselves.
  uint64_t predecessor_rereads() const { return predecessor_rereads_.load(); }
  uint64_t predecessor_budget_waits() const {
    return predecessor_budget_waits_.load();
  }
  // Finishes called more than HandoffBound() after their handoff, which
  // launched nothing.
  uint64_t late_handoffs() const { return late_handoffs_.load(); }
  // Arena recycling across units and sequential writes.
  uint64_t arena_pool_hits() const { return arena_pool_.hits(); }
  uint64_t arena_pool_misses() const { return arena_pool_.misses(); }

  // Cloud key naming for a unit's metadata and value objects (exposed so
  // tests and inspection tooling can address stored objects). Unit i's
  // value objects are named by the version record's object id:
  // du/<unit>/o<id>/u<i>.
  static std::string MetadataKey(const std::string& unit);
  static std::string ValueKey(const std::string& unit,
                              const DepSkyVersion& version, size_t index);

 private:
  struct ShardFetchState;
  struct MetadataReplies;
  class WriteBase;

  // Shards + key shares collected by one quorum shard fetch.
  struct FetchedShards {
    std::vector<std::optional<Bytes>> shards;  // by shard index
    std::vector<SecretShare> shares;
  };

  // One metadata read: the chosen copy, and whether the read settled before
  // n-f authenticated copies had answered.
  struct MetadataRead {
    DepSkyMetadata md;
    bool early = false;
  };

  // A metadata read in flight: every cloud has been asked, and the quorum
  // predicate collects the authentic copies into `replies` as they arrive.
  struct PendingMetadataRead {
    std::string unit;
    std::string anchor;
    std::shared_ptr<MetadataReplies> replies;
    Future<QuorumResult<Result<Bytes>>> settled;
  };

  // The one metadata read path, in two steps. The launch asks every cloud
  // and returns at once; the read settles on the (n-f)-th authenticated copy
  // or — when `anchor` (a content hash) is non-empty — on the first
  // authenticated copy listing it. The settle step waits for that, and of
  // the copies in hand keeps the highest version, preferring copies that
  // list the anchor; NOT_FOUND when no authenticated copy answered. It
  // charges the calling thread only the part of the read's modelled time
  // beyond `overlapped`, the time the thread was charged while the read was
  // in flight: a read overlapped with a PUT wave costs max(read, wave).
  PendingMetadataRead LaunchMetadataRead(const std::string& unit,
                                         const std::string& anchor);
  Result<MetadataRead> SettleMetadataRead(PendingMetadataRead pending,
                                          VirtualDuration overlapped);
  // Launch and settle back to back.
  Result<MetadataRead> ReadMetadata(const std::string& unit,
                                    const std::string& anchor);

  // Read by hash: anchored metadata read, `fetch` on the version it names,
  // and one full-quorum re-read + fetch if an early-accepted copy fails.
  Result<Bytes> ReadAnchored(
      const std::string& unit, const std::string& content_hash,
      const std::function<Result<Bytes>(const DepSkyVersion&)>& fetch);
  // ReadAt's fetch: the units overlapping the range.
  Result<Bytes> ReadRange(const std::string& unit,
                          const DepSkyVersion& version, uint64_t offset,
                          size_t length);

  // Writes the given metadata to every cloud through the async ObjectStore
  // API, returning as soon as a write quorum (n-f) has acknowledged; the
  // stragglers keep running inside their stores. In two steps, like the
  // read: the launch sends every PUT and returns at once; the settle waits
  // for the quorum and applies the metadata object's ACLs.
  Status PushMetadata(const std::string& unit, const DepSkyMetadata& md);
  std::vector<Future<Status>> LaunchMetadataPush(const std::string& unit,
                                                 const DepSkyMetadata& md);
  Status SettleMetadataPush(const std::string& unit, const DepSkyMetadata& md,
                            const std::vector<Future<Status>>& puts);

  // Fetches and reassembles one version from its record alone, unit by
  // unit, and checks it against the content hash: the one fetch of every
  // read path. No fallback.
  Result<Bytes> FetchVersion(const std::string& unit,
                             const DepSkyVersion& version);

  // Places one object set (shard i + share i per cloud) under `value_key`:
  // health-ordered preferred wave fanned out to the write quorum, then — once
  // `base` has settled the write's metadata — the caller's grants on the
  // acknowledged copies and a fallback wave routing failed shards to spare
  // clouds (re-encoding via `encode_object`). Returns the cloud→shard map,
  // the metadata read's error if it failed, or UNAVAILABLE if no write
  // quorum was reached.
  Result<std::vector<int32_t>> PlaceObjects(
      WriteBase* base, const std::string& value_key,
      std::vector<Bytes> objects,
      const std::function<Bytes(unsigned)>& encode_object);

  // Quorum-fetches k hash-valid stored objects of one unit through the
  // hedged/breaker read path, launching the holders with the lowest EWMA
  // latency first.
  Result<FetchedShards> FetchShards(const std::string& unit,
                                    const std::string& value_key, unsigned k,
                                    const DepSkyStripeUnit& stripe);

  // A write's step 6 (DepSkyWrite::finish): unless `handed_off` is more
  // than HandoffBound() ago, launches the PUT of `md` with `pred` (if
  // missing) and `version` appended and the `acls` on the version's
  // acknowledged objects, and returns the future of both.
  Future<Status> FinishWrite(const std::string& unit,
                             const DepSkyMetadata& md,
                             const DepSkyMetadata& acls,
                             const std::optional<DepSkyVersion>& pred,
                             const DepSkyVersion& version,
                             std::optional<VirtualTime> handed_off);
  // Returns once n-f authentic copies list the version named `object_id` —
  // `listed` did in the write's metadata read, or else those of fresh
  // metadata reads, backing off between them — or once `deadline` has
  // passed.
  void AwaitListed(const std::string& unit, unsigned listed,
                   uint64_t object_id, VirtualTime deadline);

  // Runs body(i) for every i in [begin, end), at most stripe_window() calls
  // in flight on the executor, and returns the first error; it launches no
  // further call once it has seen one fail. One call, or a window of one,
  // runs inline on the caller's thread. Every launched call is drained
  // before returning, so `body` may capture the caller's frame by reference.
  Status ForEachUnit(size_t begin, size_t end,
                     const std::function<Status(size_t)>& body);

  // One unit of a write: pooled arena, encrypt at the unit's keystream
  // offset, parity, hash, place. In replication mode every object is the
  // plaintext itself (no key, nonce or shares).
  Result<DepSkyStripeUnit> WriteStripeUnit(WriteBase* base,
                                           const std::string& value_key,
                                           ConstByteSpan plaintext,
                                           const Bytes& key,
                                           const Bytes& nonce,
                                           const std::vector<SecretShare>& shares,
                                           uint32_t counter);

  // Fetches one unit's plaintext into `out_for(length)`, which is called
  // with the unit's length once its fetched shards confirm it (CORRUPTION
  // if they do not). When `verify_unit_hash` is set the unit is checked
  // against its recorded SHA-256 (range reads can't rely on the whole-file
  // consistency-anchor hash).
  Status FetchStripeUnit(const std::string& unit, const DepSkyVersion& version,
                         size_t stripe_index,
                         const std::function<ByteSpan(size_t)>& out_for,
                         bool verify_unit_hash);

  // Scrub of one unit: probes recorded holders, rebuilds lost or corrupt
  // objects byte-identically (erasure re-encode + Lagrange share recovery),
  // re-uploads in place or relocates to an unused cloud (updates the unit's
  // cloud map and flips *metadata_dirty so the caller pushes it once).
  void ScrubStripeUnit(const DepSkyMetadata& md, const std::string& value_key,
                       DepSkyStripeUnit* stripe, DepSkyScrubReport* report,
                       bool* metadata_dirty);

  // Applies all grants (+ owner) to one object at one cloud, waiting for
  // the ACL round trips.
  void ApplyAclsToObject(const DepSkyMetadata& md, unsigned cloud,
                         const std::string& key);
  // Same, but queues the ACL round trips through the async API and appends
  // their futures to `out` — post-quorum call sites fan ACLs out across
  // clouds and pay max-of-clouds, not the sum.
  void CollectAclFutures(const DepSkyMetadata& md, unsigned cloud,
                         const std::string& key,
                         std::vector<Future<Status>>* out);
  // Applies the ACLs once `put` completes successfully — attached to PUTs
  // still in flight past a quorum trigger, so a consistently slow (but
  // correct) cloud still converges to the granted state instead of
  // permanently consuming the fault margin.
  void ApplyAclsWhenWritten(Future<Status> put, unsigned cloud,
                            std::shared_ptr<const DepSkyMetadata> md,
                            const std::string& key);

  Bytes RandomBytesLocked(size_t size);

  // Wraps one cloud request with the robustness envelope: a per-attempt
  // deadline, capped-backoff retries, and health accounting. `issue` starts
  // (or restarts) the underlying async request; `responsive` decides
  // whether a completed value counts as the cloud answering (NOT_FOUND is a
  // perfectly healthy answer); `timeout_value` synthesizes the value for a
  // deadline expiry; `on_first_failure`, if set, runs when the first
  // attempt fails, before any retry. Defined in depsky.cc.
  Future<Status> RobustPut(unsigned cloud, const std::string& key,
                           std::shared_ptr<const Bytes> data);
  Future<Result<Bytes>> RobustGet(
      unsigned cloud, const std::string& key,
      std::function<void()> on_first_failure = nullptr);

  // Launches the next `count` unlaunched holders of a shard fetch (the
  // first wave, or one failure-triggered or hedged holder), and arms the
  // hedge timer chain.
  void LaunchShardGet(const std::shared_ptr<ShardFetchState>& state,
                      unsigned count = 1);
  void ArmHedgeTimer(const std::shared_ptr<ShardFetchState>& state);

  Environment* env_;
  std::vector<DepSkyCloud> clouds_;
  DepSkyConfig config_;
  std::mutex rng_mu_;
  Rng rng_;
  // Object ids are MixSeed(object_id_salt_, n) for n = 0, 1, 2, ...: one
  // client never repeats an id (MixSeed is a bijection in its second word
  // under a fixed first), and clients differ in their salts.
  uint64_t object_id_salt_;
  std::atomic<uint64_t> objects_named_{0};
  CloudHealthTracker health_;
  VirtualTimerQueue timers_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> deadline_expiries_{0};
  std::atomic<uint64_t> hedged_reads_{0};
  std::atomic<uint64_t> anchored_read_fallbacks_{0};
  std::atomic<uint64_t> predecessor_rereads_{0};
  std::atomic<uint64_t> predecessor_budget_waits_{0};
  std::atomic<uint64_t> late_handoffs_{0};
  // The keys of this client's cloud PUT requests still in flight, every
  // attempt until its store answers (a request past its deadline
  // included), so DeleteUnit can wait for them. Shared with the requests'
  // continuations, which may outlive the client.
  struct PutsInFlight {
    std::mutex mu;
    std::condition_variable cv;
    std::multiset<std::string> keys;
  };
  std::shared_ptr<PutsInFlight> puts_in_flight_ =
      std::make_shared<PutsInFlight>();
  // Recycled across units and sequential writes; sized to keep a full
  // window's arenas warm.
  ArenaPool arena_pool_;
  InFlightTracker async_ops_;
};

}  // namespace scfs

#endif  // SCFS_DEPSKY_DEPSKY_H_
