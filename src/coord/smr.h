// SmrCluster: state machine replication in the style of BFT-SMaRt (paper
// §3.2). Replicas host TupleSpace state machines; a leader totally orders
// client requests (PROPOSE), replicas vote (ACCEPT) and execute committed
// commands in sequence, replying directly to the client, which accepts a
// result once enough matching replies arrive:
//
//   - Byzantine mode: n = 3f+1 replicas, ordering quorum 2f+1, client needs
//     f+1 matching replies (DepSpace's configuration).
//   - Crash mode:     n = 2f+1 replicas, ordering quorum f+1, client needs 1
//     reply (Zookeeper-like configuration).
//
// The ordering pipeline is built for throughput:
//
//   * Leader batching — the leader drains its pending queue into one
//     multi-command PROPOSE: one ACCEPT quorum orders up to `max_batch`
//     requests, replicas execute the batch in sequence and reply
//     per-request, so N concurrent clients cost ~N/max_batch consensus
//     instances instead of N.
//   * Pipelining — up to `max_inflight_instances` consensus instances may be
//     outstanding (proposed but not yet executed) at once; committed
//     instances free slots for the next batch without waiting for the
//     previous one to finish its quorum.
//   * Read-only fast path — read-only commands (CoordCommand::is_read_only)
//     bypass ordering entirely: the client broadcasts a READ directly to the
//     replicas, which evaluate it against their committed state
//     (TupleSpace::Query — no side effects) and reply; the client accepts
//     2f+1 matching replies (f+1 in crash mode) and falls back to the
//     ordered path on divergence or timeout. Linearizability needs one more
//     rule: with the fast path enabled, *mutating* commands are acknowledged
//     only at an order-quorum of matching replies, so the executed set of
//     every acked write intersects any fast-read matching quorum in at
//     least one correct replica (ordered reads keep the cheap f+1 reply
//     quorum — they create no state a later fast read must observe).
//   * Frontier-tagged replies — every reply carries the replica's committed
//     frontier. The client keeps a monotone watermark of the frontier
//     vouched by its accepted reply sets (the (f+1)-th highest among the
//     matching replies, so at least one correct replica backs it) and
//     accepts a fast quorum only when f+1 of its matching replies are at or
//     beyond the watermark — a matching-but-stale quorum (the read-read
//     inversion of the PBFT read-only optimization) is rejected and the
//     read retried through the ordered path instead of silently going
//     backwards in time.
//   * Fallback cooldown — a failed fast round (divergence, stale quorum or
//     timeout) suppresses the fast path for `fast_read_fallback_cooldown`
//     (5 s by default), so a persistent silent+lying replica pair costs one
//     fast_read_timeout per window instead of per read.
//
// Leader failure is handled by a client-timeout-driven view change (as in
// BFT-SMaRt's synchronization phase, simplified). View-change votes carry
// the voter's accepted proposals as certificates; the new leader adopts the
// highest-view accepted proposal per sequence number from its vote quorum
// (plus its own log) before re-proposing, so batched proposals survive view
// changes without reordering. Exactly-once execution is enforced with
// per-client last-reply tables, windowed like the seq->batch commit log.
//
// Snapshot-based state transfer removes the bounded catch-up window's wedge
// (see DESIGN.md "State transfer & checkpoints"): replicas checkpoint the
// replicated state (TupleSpace + per-client reply tables) every
// `checkpoint_interval` committed seqs with a SHA-256 digest. A replica
// whose execution frontier stalls while evidence of higher committed seqs
// accumulates broadcasts a STATE_REQUEST; peers answer with their latest
// checkpoint beyond the requester's frontier plus "tail certificates" (the
// executed batches they retain above it). The requester installs a snapshot
// only once f+1 peers vouch for the same (frontier, digest) pair — so at
// least one voucher is correct — verifies each offered payload against the
// vouched digest, truncates its below-frontier proposal/commit logs, and
// replays tail certificates that f+1 peers agree on until it reconnects
// with the live proposal stream. Checkpoints also bound replica memory:
// accepted proposals below a replica's own latest checkpoint are GC'd (the
// snapshot supersedes them as a catch-up source), and a new leader never
// re-proposes below the vote quorum's collective checkpoint.

#ifndef SCFS_COORD_SMR_H_
#define SCFS_COORD_SMR_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/common/future.h"
#include "src/common/rng.h"
#include "src/coord/coordination_service.h"
#include "src/coord/tuple_space.h"
#include "src/sim/environment.h"
#include "src/sim/latency.h"
#include "src/sim/queue.h"

namespace scfs {

struct SmrConfig {
  unsigned f = 1;
  bool byzantine = true;  // false => crash-only (2f+1)
  LatencyModel client_link;    // one-way client <-> replica (default for all)
  std::vector<LatencyModel> client_links;  // optional per-replica override
  LatencyModel replica_link;   // one-way replica <-> replica
  VirtualDuration client_timeout = FromMillis(1500);
  VirtualDuration order_timeout = FromMillis(800);  // failure detector
  int max_client_retries = 8;

  // Throughput features; disabling all three restores the seed's
  // one-command-per-instance lock-step ordering (the benchmark baseline).
  bool enable_batching = true;
  unsigned max_batch = 64;               // requests per PROPOSE
  unsigned max_inflight_instances = 8;   // pipelined consensus instances
  bool enable_read_fast_path = true;
  // How long a fast-path read waits for a matching-reply quorum before
  // falling back to the ordered path.
  VirtualDuration fast_read_timeout = FromMillis(600);
  // Fallback cooldown: after a failed fast-read round (divergence, stale
  // quorum or timeout), bypass the fast path entirely for this window and
  // go straight to the ordered path. While a fault persists (the classic
  // one-silent-plus-one-lying replica pair), reads then cost one
  // fast_read_timeout per window instead of one per read. 0 disables the
  // cooldown (every read tries the fast path). Bypasses are counted in
  // SmrCounters::fast_path_cooldown_bypasses (and as fallbacks, since the
  // read is served by the ordered path).
  VirtualDuration fast_read_fallback_cooldown = 5 * kSecond;

  // Executed-payload retention (the certificates that catch up a lagging
  // replica without a snapshot). A replica lagging further than this behind
  // the quorum recovers via snapshot state transfer instead.
  uint64_t executed_batch_window = 256;
  // Checkpoint cadence for snapshot state transfer: every this many
  // committed seqs a replica snapshots TupleSpace + reply tables and hashes
  // it. Soundness requires interval * kRetainedCheckpoints <=
  // executed_batch_window (the post-install tail must be within the
  // retained-batch range); SmrCluster clamps the interval down to enforce
  // it. 0 disables checkpoints (and with them snapshot state transfer —
  // the pre-snapshot wedge behavior).
  uint64_t checkpoint_interval = 64;

  unsigned replica_count() const { return byzantine ? 3 * f + 1 : 2 * f + 1; }
  unsigned order_quorum() const { return byzantine ? 2 * f + 1 : f + 1; }
  unsigned reply_quorum() const { return byzantine ? f + 1 : 1; }
  // Vouchers needed before trusting state-transfer material (a snapshot's
  // (frontier, digest) pair, a tail certificate's batch): f+1 matching
  // offers include at least one correct replica.
  unsigned vouch_quorum() const { return reply_quorum(); }
  // Matching replies needed by the read-only fast path. Stronger than
  // reply_quorum: the value must be vouched for by enough replicas to
  // intersect any committed write.
  unsigned read_quorum() const { return byzantine ? 2 * f + 1 : f + 1; }
};

// One client request inside a batched proposal.
struct SmrBatchEntry {
  uint64_t request_id = 0;
  Bytes payload;  // encoded CoordCommand
};

// A voter's record of an accepted proposal, carried by view-change votes so
// the new leader can adopt in-flight assignments instead of re-deriving them.
struct SmrViewChangeCert {
  uint64_t seq = 0;
  uint64_t view = 0;  // view the proposal was accepted in
  VirtualTime order_time = 0;
  std::vector<SmrBatchEntry> batch;
};

struct SmrMessage {
  enum class Type : uint8_t {
    kRequest,
    kReadRequest,  // read-only fast path, bypasses ordering
    kPropose,
    kAccept,
    kReply,
    kViewChange,
    kStateRequest,  // lagging replica asks peers for checkpoint + tail
    kStateReply,    // checkpoint (seq, digest, payload) + tail certificates
  };
  Type type = Type::kRequest;
  int from = -1;  // replica index, or -1 for a client
  uint64_t request_id = 0;
  uint64_t view = 0;
  // kPropose/kAccept: instance seq. kViewChange: the voter's latest
  // checkpoint seq. kStateRequest: the requester's execution frontier.
  // kStateReply: the offered checkpoint's frontier. kReply: the replying
  // replica's committed frontier (the fast-read staleness tag).
  uint64_t seq = 0;
  VirtualTime order_time = 0;
  Bytes payload;  // command/reply bytes, or the kStateReply snapshot
  Bytes digest;   // kStateReply/kViewChange: SHA-256 of the checkpoint
  std::vector<SmrBatchEntry> batch;        // kPropose: the ordered batch
  // kViewChange: accepted proposals; kStateReply: executed-batch tail.
  std::vector<SmrViewChangeCert> certs;

  // Wire size for latency sampling.
  size_t ByteSize() const {
    size_t total = payload.size() + digest.size();
    for (const auto& entry : batch) {
      total += entry.payload.size();
    }
    for (const auto& cert : certs) {
      for (const auto& entry : cert.batch) {
        total += entry.payload.size();
      }
    }
    return total;
  }
};

// Aggregate protocol counters, exposed for benchmarks and tests. Request
// counts are tracked client-side (one per Execute), instance counts
// leader-side (one per first PROPOSE broadcast), so neither is inflated by
// the replica fan-out.
struct SmrCounters {
  uint64_t ordered_commands = 0;     // client completions via ordered path
  uint64_t proposed_instances = 0;   // consensus instances proposed
  uint64_t proposed_requests = 0;    // requests across those instances
  uint64_t fast_path_reads = 0;      // reads served without ordering
  uint64_t fast_path_fallbacks = 0;  // reads that fell back to ordering
  // Reads that skipped the fast round because a recent failure put the
  // fast path in its fallback cooldown (each also counts as a fallback).
  uint64_t fast_path_cooldown_bypasses = 0;
  // Fast rounds where a value assembled a matching quorum whose committed
  // frontiers were stale relative to the client's previously observed
  // frontier — rejected instead of silently inverting reads.
  uint64_t fast_path_stale_quorums = 0;
  uint64_t checkpoints_taken = 0;    // periodic snapshots across replicas
  uint64_t state_requests = 0;       // STATE_REQUEST broadcasts (wedges)
  uint64_t snapshots_installed = 0;  // f+1-vouched snapshot installs
  // State replies whose snapshot payload did not hash to the claimed
  // digest (a Byzantine peer's forged snapshot), dropped at receipt.
  uint64_t snapshot_payload_rejects = 0;
  // Modelled network messages, for per-operation message accounting (the
  // lease-caching target of ROADMAP item 4 is judged against these):
  // client -> replica request sends (ordered broadcasts including retries,
  // plus fast-read broadcasts), replica <-> replica protocol sends
  // (PROPOSE/ACCEPT/view-change/state transfer; self-delivery is free), and
  // replica -> client replies actually delivered to a live client.
  uint64_t client_request_msgs = 0;
  uint64_t replica_msgs = 0;
  uint64_t client_reply_msgs = 0;

  uint64_t total_messages() const {
    return client_request_msgs + replica_msgs + client_reply_msgs;
  }

  SmrCounters& operator+=(const SmrCounters& other) {
    ordered_commands += other.ordered_commands;
    proposed_instances += other.proposed_instances;
    proposed_requests += other.proposed_requests;
    fast_path_reads += other.fast_path_reads;
    fast_path_fallbacks += other.fast_path_fallbacks;
    fast_path_cooldown_bypasses += other.fast_path_cooldown_bypasses;
    fast_path_stale_quorums += other.fast_path_stale_quorums;
    checkpoints_taken += other.checkpoints_taken;
    state_requests += other.state_requests;
    snapshots_installed += other.snapshots_installed;
    snapshot_payload_rejects += other.snapshot_payload_rejects;
    client_request_msgs += other.client_request_msgs;
    replica_msgs += other.replica_msgs;
    client_reply_msgs += other.client_reply_msgs;
    return *this;
  }

  // Field-wise difference, for windowed rates (`after -= before` leaves the
  // counts accumulated inside the window). Only meaningful when `other` is
  // an earlier snapshot of the same counter set.
  SmrCounters& operator-=(const SmrCounters& other) {
    ordered_commands -= other.ordered_commands;
    proposed_instances -= other.proposed_instances;
    proposed_requests -= other.proposed_requests;
    fast_path_reads -= other.fast_path_reads;
    fast_path_fallbacks -= other.fast_path_fallbacks;
    fast_path_cooldown_bypasses -= other.fast_path_cooldown_bypasses;
    fast_path_stale_quorums -= other.fast_path_stale_quorums;
    checkpoints_taken -= other.checkpoints_taken;
    state_requests -= other.state_requests;
    snapshots_installed -= other.snapshots_installed;
    snapshot_payload_rejects -= other.snapshot_payload_rejects;
    client_request_msgs -= other.client_request_msgs;
    replica_msgs -= other.replica_msgs;
    client_reply_msgs -= other.client_reply_msgs;
    return *this;
  }
};

class SmrCluster {
 public:
  SmrCluster(Environment* env, SmrConfig config, uint64_t seed = 29);
  ~SmrCluster();

  SmrCluster(const SmrCluster&) = delete;
  SmrCluster& operator=(const SmrCluster&) = delete;

  // Submits a command and blocks until enough matching replies arrive.
  // Read-only commands try the fast path first when enabled.
  Result<CoordReply> Execute(const CoordCommand& command);

  unsigned replica_count() const { return config_.replica_count(); }

  // Fault injection. A crashed replica consumes and drops every message;
  // RestartReplica models a crash-recovery restart with the replica's
  // durable state as of the crash — it rejoins lagging and catches up via
  // the certificate window or, beyond it, snapshot state transfer.
  void CrashReplica(unsigned index);
  void RestartReplica(unsigned index);
  void SetReplicaByzantine(unsigned index, bool byzantine);

  // Introspection for tests.
  uint64_t current_view() const;
  uint64_t executed_count(unsigned replica) const;
  // The replica's execution frontier (next seq to execute).
  uint64_t exec_frontier(unsigned replica) const;
  // SHA-256 digest of the replica's replicated state (TupleSpace + reply
  // tables). Converged replicas report identical digests. Costs one full
  // state serialization under the replica's mutex — an operations poll /
  // test probe, not a hot path.
  Bytes state_digest(unsigned replica) const;
  // The digest an order-quorum of replicas agrees on, or empty when no
  // digest has quorum backing (replicas mid-execution at different
  // frontiers, or diverged) — the operations surface for "is the cluster
  // state-converged and what is its fingerprint".
  Bytes quorum_state_digest() const;
  uint64_t reply_bytes_out() const {
    return reply_bytes_out_.load(std::memory_order_relaxed);
  }
  SmrCounters counters() const;

  // The highest committed frontier this client stub has observed vouched by
  // enough matching replies (the read-read-inversion guard's watermark);
  // the setter is a test hook for forcing the stale-quorum path.
  uint64_t client_observed_frontier() const {
    return observed_frontier_.load(std::memory_order_relaxed);
  }
  void set_client_observed_frontier(uint64_t frontier) {
    observed_frontier_.store(frontier, std::memory_order_relaxed);
  }

  void Shutdown();

 private:
  struct PendingRequest {
    Bytes payload;
    std::string client;  // decoded principal, for the per-client reply table
    VirtualTime first_seen = 0;
    bool ordered = false;
  };

  struct Replica {
    explicit Replica(Environment* env) : inbox(env) {}

    DelayedQueue<SmrMessage> inbox;
    std::thread thread;
    std::atomic<bool> crashed{false};
    std::atomic<bool> byzantine{false};

    // Everything below is owned by the replica thread; guarded by `mu` only
    // for test introspection.
    mutable std::mutex mu;
    TupleSpace space;
    uint64_t view = 0;
    uint64_t next_seq = 0;       // leader only
    uint64_t next_exec_seq = 0;  // execution frontier
    std::map<uint64_t, PendingRequest> pending;  // request_id -> payload
    struct Proposal {
      SmrMessage msg;
      VirtualTime last_sent = 0;  // leader re-propose pacing
      int resends = 0;            // catch-up retirement bound
    };
    std::map<uint64_t, Proposal> proposals;  // seq -> stored proposal
    std::map<uint64_t, std::set<int>> accept_votes;  // seq -> voters
    // Per-client last-reply tables (exactly-once): request_id -> reply
    // bytes, windowed to the most recent kClientReplyWindow requests per
    // client so replica memory stays bounded by live clients, not history.
    std::map<std::string, std::map<uint64_t, Bytes>> client_replies;
    // seq -> batch request ids: the windowed commit log that validates
    // below-frontier re-proposes.
    std::map<uint64_t, std::vector<uint64_t>> executed_seqs;
    // seq -> the executed proposal itself (payloads included), on a shorter
    // window (SmrConfig::executed_batch_window). Together with retaining
    // accepted proposals across view changes, this guarantees that any
    // committed seq within the window has a re-sendable certificate in
    // every view-change vote quorum: a commit quorum intersects any vote
    // quorum in a replica that either still holds the accepted proposal or
    // has it here. It also serves the tail certificates of STATE replies.
    std::map<uint64_t, SmrMessage> executed_batches;
    // One view-change vote: the voter's accepted-proposal certificates plus
    // its latest checkpoint, from which the new leader derives the
    // collective checkpoint it must never re-propose below.
    struct ViewVote {
      std::vector<SmrViewChangeCert> certs;
      uint64_t checkpoint_seq = 0;
      Bytes checkpoint_digest;
    };
    // proposed view -> (voter -> vote)
    std::map<uint64_t, std::map<int, ViewVote>> view_votes;
    // Per-sender view claims: the view each peer was last observed sending
    // ordering traffic in, kept only while above ours. A restarted replica
    // stranded in an old view adopts a higher view once f+1 distinct peers
    // (one correct) claim the SAME view. One slot per sender — a forger
    // can occupy exactly one entry no matter how many views it invents, so
    // the map is bounded by the replica count with no eviction policy.
    std::map<int, uint64_t> view_claims;

    // Periodic checkpoint: the serialized replicated state at `seq` and its
    // SHA-256. Recent ones are retained so peers at slightly different
    // frontiers can still assemble f+1 vouchers for a common pair.
    struct Checkpoint {
      uint64_t seq = 0;
      Bytes digest;
      Bytes payload;
    };
    std::deque<Checkpoint> checkpoints;

    // State-transfer collection (requester side): snapshot offers bucketed
    // by the vouched (frontier, digest) pair, and tail-certificate offers
    // bucketed by (seq, canonical batch encoding). Payload equality inside
    // a snapshot bucket is implied — every stored payload already hashed to
    // the bucket's digest at receipt.
    struct StateOffer {
      Bytes payload;
      std::set<int> voters;
    };
    std::map<std::pair<uint64_t, Bytes>, StateOffer> state_offers;
    struct TailOffer {
      SmrViewChangeCert cert;
      std::set<int> voters;
    };
    std::map<std::pair<uint64_t, Bytes>, TailOffer> tail_offers;
    VirtualTime last_exec_advance = 0;  // wedge detection
    VirtualTime last_state_request = 0;

    uint64_t executed_ops = 0;
    Rng rng{0};
  };

  // Must exceed any single client's realistic in-flight set (the close
  // pipeline holds up to max_depth=256 chains, each with one async lease
  // renewal under the agent's client name; the GC bounds its tombstone
  // fan-out below this).
  static constexpr size_t kClientReplyWindow = 1024;
  static constexpr uint64_t kExecutedSeqWindow = 4096;
  // Checkpoints retained per replica: two, so a peer that just rolled its
  // checkpoint forward can still vouch for the previous one while slower
  // replicas reach it.
  static constexpr size_t kRetainedCheckpoints = 2;

  void ReplicaLoop(unsigned index);
  void HandleMessage(unsigned index, Replica& r, SmrMessage msg);
  void LeaderMaybePropose(unsigned index, Replica& r,
                          std::vector<SmrMessage>* out);
  void AdoptView(unsigned index, Replica& r, uint64_t view,
                 std::vector<SmrMessage>* out);
  void TryExecute(unsigned index, Replica& r, std::vector<SmrMessage>* out);
  // Applies one committed batch at the execution frontier: executes (or
  // replays cached replies), records the commit logs, advances the
  // frontier, and takes the periodic checkpoint. Shared by the ordered
  // path (TryExecute) and the state-transfer tail replay.
  void ExecuteCommitted(unsigned index, Replica& r, const SmrMessage& proposal,
                        std::vector<SmrMessage>* out);
  // Replays f+1-vouched tail certificates at the frontier, then lets the
  // ordered path drain whatever stored proposals now connect.
  void DrainStateTransfer(unsigned index, Replica& r,
                          std::vector<SmrMessage>* out);
  // Drops snapshot/tail offers the execution frontier has passed (an offer
  // AT the frontier is useless for snapshots but is the next tail replay).
  static void PruneTransferState(Replica& r);
  // Installs an f+1-vouched snapshot: restores the replicated state, moves
  // the frontier, truncates below-frontier logs, and records the snapshot
  // as this replica's own checkpoint.
  void InstallSnapshot(unsigned index, Replica& r, uint64_t frontier,
                       const Bytes& digest, const Bytes& payload);
  void MaybeTakeCheckpoint(unsigned index, Replica& r);
  // The replicated state a checkpoint captures: the TupleSpace plus the
  // per-client reply tables (so exactly-once survives a snapshot install).
  // Both are deterministic functions of the executed command sequence, so
  // replicas at the same frontier encode byte-identical snapshots.
  Bytes EncodeReplicaSnapshot(const Replica& r) const;
  static bool DecodeReplicaSnapshot(
      ConstByteSpan payload, TupleSpace* space,
      std::map<std::string, std::map<uint64_t, Bytes>>* client_replies);
  void CheckOrderingTimeout(unsigned index, Replica& r);
  void BroadcastFromReplica(unsigned from, const SmrMessage& msg);
  void SendToReplica(unsigned from_replica, unsigned to, SmrMessage msg);
  void SendReplyToClient(unsigned from_replica, const SmrMessage& reply);
  bool IsLeader(const Replica& r, unsigned index) const {
    return r.view % replica_count() == index;
  }
  // Builds the kReply for one executed (or cached) batch entry.
  SmrMessage MakeReply(unsigned index, const Replica& r, uint64_t request_id,
                       Bytes reply_bytes) const;
  // Fast path: broadcast, collect matching replies against the committed
  // state of the replicas. Returns the winning reply bytes, or nullopt when
  // the caller must fall back to the ordered path.
  std::optional<Bytes> TryFastRead(const Bytes& encoded_command);
  // Monotone CAS-max on the client frontier watermark.
  void AdvanceObservedFrontier(uint64_t vouched);
  const LatencyModel& ClientLink(unsigned replica) const {
    return config_.client_links.empty()
               ? config_.client_link
               : config_.client_links[replica % config_.client_links.size()];
  }

  Environment* env_;
  SmrConfig config_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  std::mutex clients_mu_;
  std::map<uint64_t, std::shared_ptr<DelayedQueue<SmrMessage>>> client_queues_;
  std::atomic<uint64_t> next_request_id_{1};
  std::atomic<uint64_t> reply_bytes_out_{0};

  std::atomic<uint64_t> ordered_commands_{0};
  std::atomic<uint64_t> proposed_instances_{0};
  std::atomic<uint64_t> proposed_requests_{0};
  std::atomic<uint64_t> fast_path_reads_{0};
  std::atomic<uint64_t> fast_path_fallbacks_{0};
  std::atomic<uint64_t> fast_path_cooldown_bypasses_{0};
  std::atomic<uint64_t> fast_path_stale_quorums_{0};
  // Fallback cooldown: until this virtual time, read-only commands skip the
  // fast round and go straight to ordering.
  std::atomic<VirtualTime> fast_path_bypass_until_{0};
  // Frontier watermark shared by this stub's clients: the committed
  // frontier vouched by at least a reply quorum of a previously accepted
  // matching set. Monotone; coarser than per-client tracking (any client's
  // observation guards every other's reads), which only errs toward more
  // fallbacks, never toward inversion.
  std::atomic<uint64_t> observed_frontier_{0};
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::atomic<uint64_t> state_requests_{0};
  std::atomic<uint64_t> snapshots_installed_{0};
  std::atomic<uint64_t> snapshot_payload_rejects_{0};
  std::atomic<uint64_t> client_request_msgs_{0};
  std::atomic<uint64_t> replica_msgs_{0};
  std::atomic<uint64_t> client_reply_msgs_{0};

  std::mutex rng_mu_;
  Rng client_rng_;
  std::atomic<bool> shutdown_{false};
};

// CoordinationService adapter over an SmrCluster — the CoC backend's
// DepSpace-over-BFT-SMaRt deployment.
class ReplicatedCoordination : public CoordinationService {
 public:
  ReplicatedCoordination(Environment* env, SmrConfig config, uint64_t seed = 29)
      : cluster_(env, config, seed) {}

  Result<CoordReply> Submit(const CoordCommand& command) override {
    return cluster_.Execute(command);
  }

  // Real asynchrony: the protocol round runs on the shared executor, so the
  // caller can overlap coordination accesses with storage work. The future's
  // charge is the round's modelled latency (recorded by Execute), delivered
  // to whoever waits on it — never double-counted against the submitter.
  Future<Result<CoordReply>> SubmitAsync(const CoordCommand& command) override {
    return SubmitTracked(&inflight_, [this, command] {
      return cluster_.Execute(command);
    });
  }

  // The order-quorum-vouched digest across replicas (empty while not
  // converged) — the fingerprint an operator compares against other
  // deployments or across restarts.
  Bytes StateDigest() override { return cluster_.quorum_state_digest(); }

  SmrCluster& cluster() { return cluster_; }

 private:
  SmrCluster cluster_;
  // Declared after cluster_: destroyed first, so the destructor waits for
  // in-flight async submissions before the cluster shuts down.
  InFlightTracker inflight_;
};

}  // namespace scfs

#endif  // SCFS_COORD_SMR_H_
