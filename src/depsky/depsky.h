// DepSkyClient: the cloud-of-clouds storage protocols (paper §3.2, Figure 6,
// and [15]), extended with SCFS's read-by-hash operation for consistency
// anchoring.
//
// A data unit is a versioned object spread over n = 3f+1 clouds. A version
// is a list of units: the file cut into stripe_unit()-sized slices, at
// least one, so a small file is a one-unit version. A write:
//   1. takes its version number from the caller's anchor (SCFS: the
//      predecessor's number + 1, or the file entry's version), or, for an
//      unanchored write, from a LIST of the unit's objects on n-f clouds,
//   2. draws a fresh random object id that names the version's objects,
//   3. generates a fresh random key K and secret-shares it so each cloud
//      gets one share (f+1 shares recover K),
//   4. per unit: encrypts the slice with K at its offset in the file's
//      keystream, erasure-codes the ciphertext into n shards (any k = f+1
//      recover it), puts an authenticated header in front of each shard
//      (what the object's name claims, and every shard's hash) and stores
//      shard_i + share_i in cloud i — with preferred quorums only the
//      cheapest n-f clouds are used unless one fails,
//   5. once n-f clouds have acknowledged every unit's shards, applies the
//      grants to the stored objects and returns the version record.
// There is no metadata object: the objects' names (version, object id,
// content hash, unit, shard) are the version list, and their headers
// certify them (DESIGN.md "Self-certifying shards"). An anchored write
// therefore makes n-f PUTs per unit and no GET or LIST.
// Units run through a bounded window on the executor; a one-unit version
// runs on the caller's thread. Replication mode (DepSky-A) runs the same
// unit steps with no key: each cloud stores the unit's plaintext.
// Reads come in three forms, all ending in the same fetch of k valid shards
// per unit from the fastest healthy holders (hash-checked, so corrupted or
// byzantine clouds are detected and skipped), and a check of the plaintext
// against the content hash:
//   - ReadVersion (the record the consistency anchor carries): no LIST and
//     no header GET; the read waits for the k-th fastest holder only. If
//     the record cannot deliver, it falls back once to ReadByHash.
//   - ReadByHash (the hash alone): LISTs every cloud and settles on the
//     first answer naming the hash, then authenticates one header per unit
//     and fetches. If that fails, it LISTs once more at the full quorum.
//   - ReadLatest: LISTs n-f clouds and reads the highest version whose
//     headers authenticate.
//
// No single cloud ever holds the plaintext or the whole key: confidentiality,
// integrity and availability survive f arbitrary cloud faults.

#ifndef SCFS_DEPSKY_DEPSKY_H_
#define SCFS_DEPSKY_DEPSKY_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
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
  Bytes auth_key;  // header and grant object HMAC key (deployment secret)

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
  // record and one key/nonce cover all units.
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

// Outcome of one scrub pass over a data unit (see ScrubUnit): how many stored
// objects were probed, found missing/corrupt, rebuilt on their own cloud,
// moved to a substitute cloud, or left unrepaired.
struct DepSkyScrubReport {
  uint64_t versions_checked = 0;
  uint64_t objects_checked = 0;
  uint64_t objects_missing = 0;
  uint64_t objects_repaired = 0;
  uint64_t objects_relocated = 0;
  uint64_t repair_failures = 0;
  // True when every unit ended the pass with a write quorum's worth of
  // hash-valid shards on distinct clouds.
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
  // of `data` (computed by the caller; verified on read; part of every
  // object's name, so 1-128 characters and no '/'). Returns the
  // version record once every unit's shards are on a write quorum and the
  // grants are on the acknowledged objects.
  //
  // `version` is the number the caller's anchor gives the version (SCFS:
  // the predecessor's + 1, or the file entry's version); the write then
  // makes no GET and no LIST. 0 means unanchored: the write LISTs the unit
  // on n-f clouds and numbers itself after the highest version listed by
  // f+1 of them (or whose header authenticates), and applies the grants of
  // the unit's grant object (SetGrant) besides `grants`.
  //
  // `data` is a borrowed view: each unit is encrypted straight into its
  // erasure-coding arena (secret-sharing mode) or serialized straight into
  // the per-cloud wire objects (replication mode) — the client never makes
  // its own copy of the plaintext.
  Result<DepSkyVersion> WriteVersion(
      const std::string& unit, const std::string& content_hash,
      ConstByteSpan data, const std::vector<DepSkyGrant>* grants = nullptr,
      uint64_t version = 0);

  // Reads the version `record` describes (one WriteVersion returned) with
  // no LIST or header GET: per unit, k shard GETs from its fastest holders,
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
  // hand; NOT_FOUND if no cloud names a readable version with that hash —
  // the consistency-anchor read loop retries. The LIST settles on the
  // first answer naming the hash (or on n-f answers, none naming it); the
  // record is rebuilt from one authenticated header per unit and the
  // listed holders, and one full-quorum LIST follows if that fails.
  Result<Bytes> ReadByHash(const std::string& unit,
                           const std::string& content_hash);

  // Reads the highest version that n-f LIST answers name and whose headers
  // authenticate (DESIGN.md "Self-certifying shards": which version counts
  // as latest).
  Result<Bytes> ReadLatest(const std::string& unit);

  // Range read of the version with the given content hash: only the units
  // overlapping [offset, offset+length) are fetched, each verified against
  // its recorded plaintext hash. Reads past EOF are clamped. Locates the
  // version exactly like ReadByHash.
  Result<Bytes> ReadAt(const std::string& unit, const std::string& content_hash,
                       uint64_t offset, size_t length);

  // Scrub & repair: LISTs every cloud, probes every listed shard of every
  // version, and rebuilds missing or corrupt objects from k surviving
  // shards — re-deriving parity with the erasure code and the lost key
  // share by Lagrange interpolation, so the repaired object is
  // byte-identical to the original (same hash, same name). It goes back to
  // the cloud that lost it if that cloud answers, else to a cloud holding
  // no shard of the unit; the next LIST shows where, and with the grants
  // SetGrant left (see ScrubStripeUnit). Client reads keep
  // working throughout — repair touches only clouds, never the read path.
  Result<DepSkyScrubReport> ScrubUnit(const std::string& unit);

  // The unit's versions, oldest first, as records rebuilt from a LIST of
  // every cloud and one authenticated header per unit. Names no header
  // certifies, and versions listed by fewer than k clouds (a writer that
  // crashed mid-wave), are left out.
  Result<std::vector<DepSkyVersion>> ListVersions(const std::string& unit);

  // Garbage collection. DeleteVersion deletes the objects of the oldest
  // listed version with the given content hash; NOT_FOUND if none has it.
  // DeleteUnit lists du/<unit>/ on every cloud and deletes everything under
  // it that the caller may read: every version's objects, the grant object
  // and the orphans of writes that failed. A grantee's write that failed
  // before its ACLs were applied left objects only the grantee can list
  // (and delete). It first waits for this client's own PUTs under
  // du/<unit>/ still in flight (the last clouds' requests of a write that
  // returned at its quorum), which would otherwise land after the listing;
  // another client's stragglers are bounded only by their request budget.
  Status DeleteVersion(const std::string& unit,
                       const std::string& content_hash);
  Status DeleteUnit(const std::string& unit);

  // Sharing: grants `grant.cloud_ids[i]` access at cloud i to all current and
  // future objects of the unit: stores it in the unit's grant object, which
  // unanchored writers and scrub repairs apply, and applies it to every
  // listed object. Empty read+write revokes, and stays stored as a revoke.
  Status SetGrant(const std::string& unit, const DepSkyGrant& grant);

  unsigned cloud_count() const { return static_cast<unsigned>(clouds_.size()); }
  const DepSkyConfig& config() const { return config_; }

  // Self-healing telemetry: the per-cloud breaker/EWMA state and the
  // counters the fault benches report.
  const CloudHealthTracker& health() const { return health_; }
  uint64_t retries() const { return retries_.load(); }
  uint64_t deadline_expiries() const { return deadline_expiries_.load(); }
  uint64_t hedged_reads() const { return hedged_reads_.load(); }
  // Reads that fell back: record reads whose record could not deliver the
  // version, and reads by hash whose early-settled LIST could not and that
  // LISTed again at the full quorum.
  uint64_t anchored_read_fallbacks() const {
    return anchored_read_fallbacks_.load();
  }
  // Arena recycling across units and sequential writes.
  uint64_t arena_pool_hits() const { return arena_pool_.hits(); }
  uint64_t arena_pool_misses() const { return arena_pool_.misses(); }

  // Cloud key naming (exposed so tests and inspection tooling can address
  // stored objects): shard `shard` of unit `index` of a version is
  // du/<unit>/v<version>/o<object id>/h<content hash>/u<index>/s<shard>,
  // version and id in 16 hex digits. The unit's grant object is
  // du/<unit>/acl.
  static std::string ValueKey(const std::string& unit,
                              const DepSkyVersion& version, size_t index,
                              unsigned shard);

 private:
  struct ShardFetchState;

  // Shards + key shares collected by one quorum shard fetch.
  struct FetchedShards {
    std::vector<std::optional<Bytes>> shards;  // by shard index
    std::vector<SecretShare> shares;
  };

  // One version as a LIST names it.
  struct ListedVersion {
    uint64_t version = 0;
    uint64_t object_id = 0;
    std::string content_hash;
    // Per listed unit index, the shard each answering cloud lists (-1:
    // none). Sparse: a holder may have lost some units' objects.
    std::map<uint32_t, std::vector<int32_t>> units;
    // The fewest answering clouds listing any one of its first `unit_count`
    // units (0 if one is missing).
    unsigned Listers(size_t unit_count) const;
  };

  // One LIST of du/<unit>/ over the clouds.
  struct Listing {
    std::vector<bool> answered;  // by cloud
    unsigned answers = 0;
    // Settled on the first answer naming the anchor, before n-f answers.
    bool early = false;
    bool grants_listed = false;  // some answer lists the grant object
    std::vector<ListedVersion> versions;  // ascending (version, object_id)
  };

  // LISTs du/<unit>/ on every cloud and returns once n-f clouds answered,
  // or — when `anchor` (a content hash) is non-empty — once one answer
  // names a version with that hash; with `all`, once every cloud answered
  // or gave up. UNAVAILABLE if fewer than n-f clouds answered and no
  // answer named the anchor.
  Result<Listing> List(const std::string& unit, const std::string& anchor,
                       bool all);
  // Every cloud's LIST of `prefix`, each to its answer or its last attempt.
  std::vector<Result<std::vector<ObjectInfo>>> ListEvery(
      const std::string& prefix);

  // The record of a listed version: one header per unit, GET from the
  // fastest cloud listing that unit's shard and authenticated against the
  // name (the next lister is tried if it fails), with the holder map the
  // LIST gave, where a cloud of the header's first wave that did not
  // answer is presumed to hold the shard of its own index. CORRUPTION if no
  // header certifies the name, NOT_FOUND if a unit is not listed,
  // FAILED_PRECONDITION if the version was written under another n, k or
  // mode.
  Result<DepSkyVersion> ResolveRecord(const std::string& unit,
                                      const Listing& listing,
                                      const ListedVersion& listed);
  // The listed versions whose headers certify them and that k or more
  // clouds list (no crashed or forged write), oldest first.
  std::vector<DepSkyVersion> Resolved(const std::string& unit,
                                      const Listing& listing);
  // Resolves and fetches the versions `pick` selects, newest first, until
  // one reads. A version listed by fewer than k clouds that fails is
  // skipped (a crashed or forged write); the failure of one listed by k or
  // more is the result. NOT_FOUND if none is left.
  Result<Bytes> ReadListed(
      const std::string& unit, const Listing& listing,
      const std::function<bool(const ListedVersion&)>& pick,
      const std::function<Result<Bytes>(const DepSkyVersion&)>& fetch);
  // An unanchored write's number: after the highest version listed by f+1
  // clouds, or above it one whose header authenticates.
  uint64_t NextVersionNumber(const std::string& unit, const Listing& listing);
  // The unit's grant object: the highest authentic sequence among n-f
  // answers; empty if no cloud stores one.
  Result<DepSkyGrants> ReadGrants(const std::string& unit);

  // Read by hash: LIST settled on the hash, `fetch` on the version it
  // names, and one full-quorum LIST + fetch if an early-settled LIST's
  // version could not be read.
  Result<Bytes> ReadAnchored(
      const std::string& unit, const std::string& content_hash,
      const std::function<Result<Bytes>(const DepSkyVersion&)>& fetch);
  // ReadAt's fetch: the units overlapping the range.
  Result<Bytes> ReadRange(const std::string& unit,
                          const DepSkyVersion& version, uint64_t offset,
                          size_t length);

  // Fetches and reassembles one version from its record alone, unit by
  // unit, and checks it against the content hash: the one fetch of every
  // read path. No fallback.
  Result<Bytes> FetchVersion(const std::string& unit,
                             const DepSkyVersion& version);

  // Places unit `index`'s objects (shard i + share i per cloud, each behind
  // its header): health-ordered preferred wave fanned out to the write
  // quorum, then the `acls` on the acknowledged copies and a fallback wave
  // routing failed shards to spare clouds (re-encoding via
  // `encode_object`). Returns the cloud→shard map, or UNAVAILABLE if no
  // write quorum was reached.
  Result<std::vector<int32_t>> PlaceObjects(
      const std::string& unit, const DepSkyVersion& version, size_t index,
      std::vector<Bytes> objects, const std::vector<unsigned>& preferred,
      const std::vector<unsigned>& spares,
      const std::function<Bytes(unsigned)>& encode_object,
      const std::shared_ptr<const DepSkyGrants>& acls);
  // The first wave's clouds (the first n-f healthy ones in cost order, or
  // all of them without preferred quorums) and the spares behind them.
  void PlanWave(std::vector<unsigned>* preferred,
                std::vector<unsigned>* spares);

  // Quorum-fetches k hash-valid stored objects of one unit through the
  // hedged/breaker read path, launching the holders with the lowest EWMA
  // latency first.
  Result<FetchedShards> FetchShards(const std::string& unit,
                                    const DepSkyVersion& version,
                                    size_t index, unsigned k);

  // Runs body(i) for every i in [begin, end), at most stripe_window() calls
  // in flight on the executor, and returns the first error; it launches no
  // further call once it has seen one fail. One call, or a window of one,
  // runs inline on the caller's thread. Every launched call is drained
  // before returning, so `body` may capture the caller's frame by reference.
  Status ForEachUnit(size_t begin, size_t end,
                     const std::function<Status(size_t)>& body);

  // One unit of a write: pooled arena, encrypt at the unit's keystream
  // offset, parity, hash, headers, place. In replication mode every object
  // is the plaintext itself (no key, nonce or shares).
  Result<DepSkyStripeUnit> WriteStripeUnit(
      const std::string& unit, const DepSkyVersion& version, size_t index,
      ConstByteSpan plaintext, const Bytes& key,
      const std::vector<SecretShare>& shares,
      const std::shared_ptr<const DepSkyGrants>& acls);

  // Fetches one unit's plaintext into `out_for(length)`, which is called
  // with the unit's length once its fetched shards confirm it (CORRUPTION
  // if they do not). When `verify_unit_hash` is set the unit is checked
  // against its recorded SHA-256 (range reads can't rely on the whole-file
  // consistency-anchor hash).
  Status FetchStripeUnit(const std::string& unit, const DepSkyVersion& version,
                         size_t stripe_index,
                         const std::function<ByteSpan(size_t)>& out_for,
                         bool verify_unit_hash);

  // Scrub of one unit of a version whose holder map came from a LIST of
  // every cloud: probes the holders, rebuilds lost or corrupt objects
  // byte-identically (erasure re-encode + Lagrange share recovery) and
  // re-uploads them on their own cloud, or on one holding nothing of the
  // unit, until a write quorum's worth of shards is held. A rebuilt object
  // gets its header's grants with the unit's grant object applied over
  // them, read into `stored_grants` by the scrub's first repair.
  void ScrubStripeUnit(const std::string& unit, const Listing& listing,
                       const DepSkyVersion& version, size_t index,
                       std::optional<Result<DepSkyGrants>>* stored_grants,
                       DepSkyScrubReport* report);

  // Applies all grants (+ owner) to one object at one cloud, waiting for
  // the ACL round trips.
  void ApplyAclsToObject(const DepSkyGrants& acls, unsigned cloud,
                         const std::string& key);
  // Same, but queues the ACL round trips through the async API and appends
  // their futures to `out` — post-quorum call sites fan ACLs out across
  // clouds and pay max-of-clouds, not the sum.
  void CollectAclFutures(const DepSkyGrants& acls, unsigned cloud,
                         const std::string& key,
                         std::vector<Future<Status>>* out);
  // Applies the ACLs once `put` completes successfully — attached to PUTs
  // still in flight past a quorum trigger, so a consistently slow (but
  // correct) cloud still converges to the granted state instead of
  // permanently consuming the fault margin.
  void ApplyAclsWhenWritten(Future<Status> put, unsigned cloud,
                            std::shared_ptr<const DepSkyGrants> acls,
                            const std::string& key);
  // Writes the unit's grant object to every cloud, returning at the write
  // quorum, with its ACLs applied on the acknowledged copies.
  Status PushGrants(const std::string& unit, const DepSkyGrants& grants);

  Bytes RandomBytesLocked(size_t size);

  // Wraps one cloud request with the robustness envelope: a per-attempt
  // deadline, capped-backoff retries, and health accounting. Defined in
  // depsky.cc. `on_first_failure`, if set, runs when a GET's first attempt
  // fails, before any retry.
  Future<Status> RobustPut(unsigned cloud, const std::string& key,
                           std::shared_ptr<const Bytes> data);
  Future<Result<Bytes>> RobustGet(
      unsigned cloud, const std::string& key,
      std::function<void()> on_first_failure = nullptr);
  Future<Result<std::vector<ObjectInfo>>> RobustList(unsigned cloud,
                                                     const std::string& prefix);

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
