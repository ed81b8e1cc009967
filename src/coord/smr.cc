#include "src/coord/smr.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"
#include "src/crypto/sha256.h"

namespace scfs {

namespace {

SmrViewChangeCert CertFromProposal(uint64_t seq, const SmrMessage& msg) {
  SmrViewChangeCert cert;
  cert.seq = seq;
  cert.view = msg.view;
  cert.order_time = msg.order_time;
  cert.batch = msg.batch;
  return cert;
}

// Canonical encoding of a certificate's committed content — the equality
// key for f+1 tail-certificate matching during state transfer. The accepted
// view is deliberately excluded: replicas may have committed the same batch
// at the same seq under different views (an original propose vs. a
// view-change re-propose), and both vouch for the same execution.
Bytes CertContentKey(const SmrViewChangeCert& cert) {
  Bytes out;
  AppendU64(&out, static_cast<uint64_t>(cert.order_time));
  AppendU32(&out, static_cast<uint32_t>(cert.batch.size()));
  for (const auto& entry : cert.batch) {
    AppendU64(&out, entry.request_id);
    AppendBytes(&out, entry.payload);
  }
  return out;
}

// The frontier a matching reply set vouches for: the q-th highest among the
// repliers' committed-frontier tags, q = the reply quorum (f+1 byzantine, 1
// crash). At least one correct replica sits at or beyond it, so a lying
// replica can inflate its own tag without dragging the watermark past what
// a correct replica actually committed.
uint64_t VouchedFrontier(std::vector<uint64_t> frontiers, unsigned quorum) {
  std::sort(frontiers.begin(), frontiers.end(), std::greater<uint64_t>());
  return frontiers[std::min<size_t>(frontiers.size(), quorum) - 1];
}

// A below-frontier catch-up proposal retires once every replica re-accepted
// it, or after this many re-sends with an order-quorum of re-accepts — a
// live laggard has received one of them (delivery is reliable; only the
// transient view race drops proposals), while a crashed replica must not
// keep the entry re-broadcasting forever.
constexpr int kCatchUpResendLimit = 8;

// Caps on the state-transfer collection buffers. The payload-vs-digest
// check catches a forged snapshot, but a self-consistent lie — garbage
// hashed honestly — can only be rejected by never reaching the vouch
// quorum, so such buckets must not accumulate without bound. When a map is
// full, a new bucket may evict one with strictly fewer voters (a genuine
// bucket gains its second voucher quickly and becomes unevictable; a
// single-voucher bucket is re-offerable on the next request round).
constexpr size_t kMaxSnapshotOffers = 8;
constexpr size_t kMaxTailOffers = 4096;

// Inserts into a capped offer map: returns the bucket for `key`, evicting
// the fewest-voter bucket when full, or nullptr when the newcomer loses.
template <typename Map>
typename Map::mapped_type* EmplaceCapped(Map* map,
                                         const typename Map::key_type& key,
                                         size_t cap) {
  auto it = map->find(key);
  if (it != map->end()) {
    return &it->second;
  }
  if (map->size() >= cap) {
    auto victim = map->end();
    for (auto candidate = map->begin(); candidate != map->end();
         ++candidate) {
      if (victim == map->end() ||
          candidate->second.voters.size() < victim->second.voters.size()) {
        victim = candidate;
      }
    }
    if (victim == map->end() || victim->second.voters.size() > 1) {
      return nullptr;  // every resident bucket is better-vouched
    }
    map->erase(victim);
  }
  return &(*map)[key];
}

}  // namespace

SmrCluster::SmrCluster(Environment* env, SmrConfig config, uint64_t seed)
    : env_(env), config_(config), client_rng_(seed ^ 0xc11e47ULL) {
  // Enforce the state-transfer soundness requirement (smr.h): every
  // servable checkpoint must leave a gap the retained executed batches can
  // cover, i.e. checkpoint_interval * kRetainedCheckpoints <=
  // executed_batch_window. A config that violates it silently reintroduces
  // the beyond-window wedge, so the interval is clamped down instead.
  if (config_.checkpoint_interval > 0) {
    const uint64_t max_interval = std::max<uint64_t>(
        1, config_.executed_batch_window / kRetainedCheckpoints);
    config_.checkpoint_interval =
        std::min(config_.checkpoint_interval, max_interval);
  }
  const unsigned n = config_.replica_count();
  replicas_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto replica = std::make_unique<Replica>(env_);
    replica->rng = Rng(seed + i * 1299721ULL);
    replicas_.push_back(std::move(replica));
  }
  for (unsigned i = 0; i < n; ++i) {
    replicas_[i]->thread = std::thread([this, i] { ReplicaLoop(i); });
  }
}

SmrCluster::~SmrCluster() { Shutdown(); }

void SmrCluster::Shutdown() {
  if (shutdown_.exchange(true)) {
    return;
  }
  for (auto& replica : replicas_) {
    replica->inbox.Close();
  }
  for (auto& replica : replicas_) {
    if (replica->thread.joinable()) {
      replica->thread.join();
    }
  }
  std::lock_guard<std::mutex> lock(clients_mu_);
  for (auto& [id, queue] : client_queues_) {
    queue->Close();
  }
}

void SmrCluster::CrashReplica(unsigned index) {
  replicas_[index]->crashed.store(true);
}

void SmrCluster::RestartReplica(unsigned index) {
  // Crash-recovery restart: the replica resumes from its state as of the
  // crash (it dropped everything delivered in between) and rejoins lagging.
  replicas_[index]->crashed.store(false);
}

void SmrCluster::SetReplicaByzantine(unsigned index, bool byzantine) {
  replicas_[index]->byzantine.store(byzantine);
}

uint64_t SmrCluster::current_view() const {
  uint64_t view = 0;
  for (const auto& replica : replicas_) {
    std::lock_guard<std::mutex> lock(replica->mu);
    view = std::max(view, replica->view);
  }
  return view;
}

uint64_t SmrCluster::executed_count(unsigned replica) const {
  std::lock_guard<std::mutex> lock(replicas_[replica]->mu);
  return replicas_[replica]->executed_ops;
}

uint64_t SmrCluster::exec_frontier(unsigned replica) const {
  std::lock_guard<std::mutex> lock(replicas_[replica]->mu);
  return replicas_[replica]->next_exec_seq;
}

Bytes SmrCluster::state_digest(unsigned replica) const {
  std::lock_guard<std::mutex> lock(replicas_[replica]->mu);
  return Sha256::Hash(EncodeReplicaSnapshot(*replicas_[replica]));
}

Bytes SmrCluster::quorum_state_digest() const {
  // Only a digest an order-quorum of replicas agrees on is the cluster's
  // fingerprint — a plurality could be a single (possibly faulty) replica.
  // Empty means "not converged right now": replicas are mid-execution at
  // different frontiers, or genuinely diverged.
  std::map<Bytes, unsigned> tally;
  for (unsigned i = 0; i < replicas_.size(); ++i) {
    tally[state_digest(i)]++;
  }
  for (const auto& [digest, count] : tally) {
    if (count >= config_.order_quorum()) {
      return digest;
    }
  }
  return {};
}

SmrCounters SmrCluster::counters() const {
  SmrCounters out;
  out.ordered_commands = ordered_commands_.load(std::memory_order_relaxed);
  out.proposed_instances = proposed_instances_.load(std::memory_order_relaxed);
  out.proposed_requests = proposed_requests_.load(std::memory_order_relaxed);
  out.fast_path_reads = fast_path_reads_.load(std::memory_order_relaxed);
  out.fast_path_fallbacks =
      fast_path_fallbacks_.load(std::memory_order_relaxed);
  out.fast_path_cooldown_bypasses =
      fast_path_cooldown_bypasses_.load(std::memory_order_relaxed);
  out.fast_path_stale_quorums =
      fast_path_stale_quorums_.load(std::memory_order_relaxed);
  out.checkpoints_taken = checkpoints_taken_.load(std::memory_order_relaxed);
  out.state_requests = state_requests_.load(std::memory_order_relaxed);
  out.snapshots_installed =
      snapshots_installed_.load(std::memory_order_relaxed);
  out.snapshot_payload_rejects =
      snapshot_payload_rejects_.load(std::memory_order_relaxed);
  out.client_request_msgs =
      client_request_msgs_.load(std::memory_order_relaxed);
  out.replica_msgs = replica_msgs_.load(std::memory_order_relaxed);
  out.client_reply_msgs = client_reply_msgs_.load(std::memory_order_relaxed);
  return out;
}

Bytes SmrCluster::EncodeReplicaSnapshot(const Replica& r) const {
  Bytes out;
  AppendBytes(&out, r.space.Snapshot());
  AppendU32(&out, static_cast<uint32_t>(r.client_replies.size()));
  for (const auto& [client, replies] : r.client_replies) {
    AppendString(&out, client);
    AppendU32(&out, static_cast<uint32_t>(replies.size()));
    for (const auto& [request_id, reply] : replies) {
      AppendU64(&out, request_id);
      AppendBytes(&out, reply);
    }
  }
  return out;
}

bool SmrCluster::DecodeReplicaSnapshot(
    ConstByteSpan payload, TupleSpace* space,
    std::map<std::string, std::map<uint64_t, Bytes>>* client_replies) {
  ByteReader reader(payload);
  Bytes space_bytes;
  uint32_t client_count = 0;
  if (!reader.ReadBytes(&space_bytes) || !space->Restore(space_bytes) ||
      !reader.ReadU32(&client_count)) {
    return false;
  }
  for (uint32_t c = 0; c < client_count; ++c) {
    std::string client;
    uint32_t reply_count = 0;
    if (!reader.ReadString(&client) || !reader.ReadU32(&reply_count)) {
      return false;
    }
    auto& table = (*client_replies)[client];
    for (uint32_t i = 0; i < reply_count; ++i) {
      uint64_t request_id = 0;
      Bytes reply;
      if (!reader.ReadU64(&request_id) || !reader.ReadBytes(&reply)) {
        return false;
      }
      table.emplace(request_id, std::move(reply));
    }
  }
  return reader.AtEnd();
}

void SmrCluster::SendToReplica(unsigned from_replica, unsigned to,
                               SmrMessage msg) {
  VirtualDuration delay = 0;
  if (from_replica != to) {
    std::lock_guard<std::mutex> lock(replicas_[from_replica]->mu);
    delay = config_.replica_link.Sample(replicas_[from_replica]->rng,
                                        msg.ByteSize());
    // Self-delivery stays a local enqueue; only cross-replica sends are
    // network messages.
    replica_msgs_.fetch_add(1, std::memory_order_relaxed);
  }
  replicas_[to]->inbox.Push(std::move(msg), env_->Now() + delay);
}

void SmrCluster::BroadcastFromReplica(unsigned from, const SmrMessage& msg) {
  for (unsigned i = 0; i < replicas_.size(); ++i) {
    SendToReplica(from, i, msg);
  }
}

void SmrCluster::SendReplyToClient(unsigned from_replica,
                                   const SmrMessage& reply) {
  std::shared_ptr<DelayedQueue<SmrMessage>> queue;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    auto it = client_queues_.find(reply.request_id);
    if (it == client_queues_.end()) {
      return;  // client already satisfied and gone
    }
    queue = it->second;
  }
  const LatencyModel& link = ClientLink(from_replica);
  VirtualDuration delay;
  {
    std::lock_guard<std::mutex> lock(replicas_[from_replica]->mu);
    delay = link.Sample(replicas_[from_replica]->rng, reply.payload.size());
  }
  reply_bytes_out_.fetch_add(reply.payload.size(), std::memory_order_relaxed);
  client_reply_msgs_.fetch_add(1, std::memory_order_relaxed);
  queue->Push(reply, env_->Now() + delay);
}

std::optional<Bytes> SmrCluster::TryFastRead(const Bytes& encoded_command) {
  const uint64_t request_id = next_request_id_.fetch_add(1);
  auto queue = std::make_shared<DelayedQueue<SmrMessage>>(env_);
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    client_queues_[request_id] = queue;
  }
  auto cleanup = [&] {
    std::lock_guard<std::mutex> lock(clients_mu_);
    client_queues_.erase(request_id);
  };

  SmrMessage request;
  request.type = SmrMessage::Type::kReadRequest;
  request.from = -1;
  request.request_id = request_id;
  request.payload = encoded_command;
  client_request_msgs_.fetch_add(replicas_.size(),
                                 std::memory_order_relaxed);
  for (unsigned i = 0; i < replicas_.size(); ++i) {
    VirtualDuration delay;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      delay = ClientLink(i).Sample(client_rng_, request.payload.size());
    }
    replicas_[i]->inbox.Push(request, env_->Now() + delay);
  }

  const VirtualTime deadline = env_->Now() + config_.fast_read_timeout;
  // replica -> (reply payload, committed-frontier tag)
  std::map<int, std::pair<Bytes, uint64_t>> replies;
  bool saw_stale_quorum = false;
  for (;;) {
    VirtualTime now = env_->Now();
    if (now >= deadline) {
      break;  // timeout: a replica is slow or gone
    }
    auto msg = queue->PopFor(deadline - now);
    if (shutdown_.load()) {
      break;
    }
    if (!msg.has_value()) {
      break;  // timeout or closed
    }
    if (msg->type != SmrMessage::Type::kReply ||
        msg->request_id != request_id) {
      continue;
    }
    replies[msg->from] = {msg->payload, msg->seq};
    unsigned votes = 0;
    std::vector<uint64_t> match_frontiers;
    for (const auto& [from, reply] : replies) {
      if (reply.first == msg->payload) {
        ++votes;
        match_frontiers.push_back(reply.second);
      }
    }
    // Frontier gate: besides the matching quorum, f+1 of the matching
    // replies must be at or beyond the client's watermark — otherwise the
    // quorum, though internally consistent, describes a state older than
    // one this stub already observed (the read-read inversion), and
    // accepting it would move reads backwards in time.
    const uint64_t observed =
        observed_frontier_.load(std::memory_order_relaxed);
    unsigned fresh = 0;
    for (uint64_t frontier : match_frontiers) {
      if (frontier >= observed) {
        ++fresh;
      }
    }
    if (votes >= config_.read_quorum() &&
        fresh < config_.reply_quorum()) {
      saw_stale_quorum = true;  // keep collecting; fresher replies may come
    }
    if (votes >= config_.read_quorum() &&
        fresh >= config_.reply_quorum()) {
      AdvanceObservedFrontier(
          VouchedFrontier(std::move(match_frontiers),
                          config_.reply_quorum()));
      cleanup();
      queue->Close();
      // Charge the modelled round latency: request one-way + reply one-way
      // (the wait itself happens on the reply queue, outside Sleep).
      {
        std::lock_guard<std::mutex> lock(rng_mu_);
        const LatencyModel& link = ClientLink(0);
        Environment::AddThreadCharge(
            link.Sample(client_rng_, request.payload.size()) +
            link.Sample(client_rng_, msg->payload.size()));
      }
      fast_path_reads_.fetch_add(1, std::memory_order_relaxed);
      return msg->payload;
    }
    if (replies.size() >= replicas_.size()) {
      break;  // every replica replied and no quorum matches: divergence
    }
  }
  cleanup();
  queue->Close();
  if (saw_stale_quorum) {
    fast_path_stale_quorums_.fetch_add(1, std::memory_order_relaxed);
  }
  // The failed round is not free: before falling back the caller waited for
  // the divergence to become evident (a full round trip to the slowest
  // replier), and the ordered round's charge comes on top. Charged as one
  // modelled request+reply round rather than the timeout value: at
  // aggressive bench time scales the virtual timeout also fires from real
  // scheduling noise, and charges must stay deterministic modelled costs
  // (see Environment::ThreadCharged), never host-scheduling artifacts.
  {
    std::lock_guard<std::mutex> lock(rng_mu_);
    const LatencyModel& link = ClientLink(0);
    Environment::AddThreadCharge(
        link.Sample(client_rng_, encoded_command.size()) +
        link.Sample(client_rng_, 64));
  }
  return std::nullopt;
}

void SmrCluster::AdvanceObservedFrontier(uint64_t vouched) {
  uint64_t current = observed_frontier_.load(std::memory_order_relaxed);
  while (vouched > current &&
         !observed_frontier_.compare_exchange_weak(
             current, vouched, std::memory_order_relaxed)) {
  }
}

Result<CoordReply> SmrCluster::Execute(const CoordCommand& command) {
  if (shutdown_.load()) {
    return UnavailableError("smr cluster shut down");
  }
  Bytes encoded = command.Encode();
  if (config_.enable_read_fast_path && command.is_read_only()) {
    // Fallback cooldown: a recent failed fast round means the fast path is
    // currently not assembling quorums (a fault is in progress, or the
    // replicas are transiently divergent); skipping the doomed round saves
    // the fast_read_timeout every read would otherwise pay.
    if (config_.fast_read_fallback_cooldown > 0 &&
        env_->Now() < fast_path_bypass_until_.load(
                          std::memory_order_relaxed)) {
      fast_path_cooldown_bypasses_.fetch_add(1, std::memory_order_relaxed);
      fast_path_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto fast = TryFastRead(encoded);
      if (shutdown_.load()) {
        return UnavailableError("smr cluster shut down");
      }
      if (fast.has_value()) {
        return CoordReply::Decode(*fast);
      }
      fast_path_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      if (config_.fast_read_fallback_cooldown > 0) {
        fast_path_bypass_until_.store(
            env_->Now() + config_.fast_read_fallback_cooldown,
            std::memory_order_relaxed);
      }
    }
  }

  const uint64_t request_id = next_request_id_.fetch_add(1);
  auto queue = std::make_shared<DelayedQueue<SmrMessage>>(env_);
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    client_queues_[request_id] = queue;
  }

  SmrMessage request;
  request.type = SmrMessage::Type::kRequest;
  request.from = -1;
  request.request_id = request_id;
  request.payload = std::move(encoded);

  auto broadcast_request = [&] {
    client_request_msgs_.fetch_add(replicas_.size(),
                                   std::memory_order_relaxed);
    for (unsigned i = 0; i < replicas_.size(); ++i) {
      VirtualDuration delay;
      {
        std::lock_guard<std::mutex> lock(rng_mu_);
        delay = ClientLink(i).Sample(client_rng_, request.payload.size());
      }
      replicas_[i]->inbox.Push(request, env_->Now() + delay);
    }
  };
  broadcast_request();

  // With the read fast path enabled, a mutating command is acknowledged
  // only once an order-quorum of replicas replies with matching results —
  // the executed set of every acked write then intersects any fast-read
  // matching quorum in at least one correct replica, which is what makes
  // the fast path linearizable. Ordered *reads* (fast-path fallbacks, or
  // reads with the fast path disabled) keep the cheap reply quorum: they
  // create no state a later fast read must observe, and f+1 matching
  // replies already vouch for the linearized result.
  const unsigned needed_matching =
      (config_.enable_read_fast_path && !command.is_read_only())
          ? config_.order_quorum()
          : config_.reply_quorum();
  // replica -> (reply payload, committed-frontier tag)
  std::map<int, std::pair<Bytes, uint64_t>> replies;
  int retries = 0;
  for (;;) {
    auto msg = queue->PopFor(config_.client_timeout);
    if (shutdown_.load()) {
      return UnavailableError("smr cluster shut down");
    }
    if (!msg.has_value()) {
      if (++retries > config_.max_client_retries) {
        std::lock_guard<std::mutex> lock(clients_mu_);
        client_queues_.erase(request_id);
        return UnavailableError("coordination service not responding");
      }
      broadcast_request();
      continue;
    }
    if (msg->type != SmrMessage::Type::kReply ||
        msg->request_id != request_id) {
      continue;
    }
    replies[msg->from] = {msg->payload, msg->seq};
    unsigned votes = 0;
    std::vector<uint64_t> match_frontiers;
    for (const auto& [from, reply] : replies) {
      if (reply.first == msg->payload) {
        ++votes;
        match_frontiers.push_back(reply.second);
      }
    }
    if (votes >= needed_matching) {
      // Ordered acks advance the frontier watermark too, so a write (or
      // fallback read) that exposes new state raises the bar for every
      // subsequent fast read.
      AdvanceObservedFrontier(VouchedFrontier(std::move(match_frontiers),
                                              config_.reply_quorum()));
      {
        std::lock_guard<std::mutex> lock(clients_mu_);
        client_queues_.erase(request_id);
      }
      queue->Close();
      // Charge the modelled protocol latency of one coordination access:
      // request one-way + leader ordering (2 inter-replica one-ways) + reply
      // one-way. (The client's actual wait happens on the reply queue,
      // outside Environment::Sleep, so it is not charged automatically.)
      {
        std::lock_guard<std::mutex> lock(rng_mu_);
        const LatencyModel& link = ClientLink(0);
        VirtualDuration modeled =
            link.Sample(client_rng_, request.payload.size()) +
            config_.replica_link.Sample(client_rng_, request.payload.size()) +
            config_.replica_link.Sample(client_rng_, 64) +
            link.Sample(client_rng_, msg->payload.size());
        Environment::AddThreadCharge(modeled);
      }
      ordered_commands_.fetch_add(1, std::memory_order_relaxed);
      return CoordReply::Decode(msg->payload);
    }
  }
}

void SmrCluster::ReplicaLoop(unsigned index) {
  Replica& r = *replicas_[index];
  for (;;) {
    auto msg = r.inbox.PopFor(config_.order_timeout);
    if (shutdown_.load()) {
      return;
    }
    if (r.inbox.closed() && !msg.has_value()) {
      return;
    }
    if (r.crashed.load()) {
      continue;  // crashed replicas consume and drop everything
    }
    if (msg.has_value()) {
      HandleMessage(index, r, std::move(*msg));
      // Drain everything already deliverable before consulting the failure
      // detector: a replica that was briefly descheduled must not vote for a
      // view change while the leader's proposal sits in its inbox.
      while (auto more = r.inbox.TryPop()) {
        if (r.crashed.load()) {
          break;
        }
        HandleMessage(index, r, std::move(*more));
      }
    }
    CheckOrderingTimeout(index, r);
  }
}

SmrMessage SmrCluster::MakeReply(unsigned index, const Replica& r,
                                 uint64_t request_id, Bytes reply_bytes) const {
  SmrMessage reply;
  reply.type = SmrMessage::Type::kReply;
  reply.from = static_cast<int>(index);
  reply.request_id = request_id;
  // Frontier tag: the replica's committed frontier rides every reply so
  // clients can reject matching-but-stale fast-read quorums.
  reply.seq = r.next_exec_seq;
  reply.payload = std::move(reply_bytes);
  if (r.byzantine.load() && !reply.payload.empty()) {
    reply.payload[0] ^= 0xff;  // byzantine replica lies to clients
  }
  return reply;
}

void SmrCluster::HandleMessage(unsigned index, Replica& r, SmrMessage msg) {
  std::vector<SmrMessage> to_broadcast;
  std::vector<SmrMessage> to_client;
  std::vector<std::pair<unsigned, SmrMessage>> to_peer;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    // Higher-view evidence: ordering traffic from views ahead of ours means
    // the cluster moved on (e.g. a view change completed while this replica
    // was down). One forged message must not drag us forward, but f+1
    // distinct senders claiming the SAME higher view include a correct
    // one, and a correct replica only operates in a view a vote quorum
    // adopted — so that view is safe to adopt. The count is strictly
    // per-view (unioning across views would let f forgers ride one
    // unrelated correct sender's traffic into a view no correct replica
    // vouched for), and each sender holds exactly one claim slot (its
    // latest), so a forger inventing views — many, ascending, whatever —
    // only ever occupies one entry. A live view always clears the
    // threshold: its leader proposes, a quorum of followers accepts, all
    // broadcast.
    if ((msg.type == SmrMessage::Type::kPropose ||
         msg.type == SmrMessage::Type::kAccept) &&
        msg.from >= 0 && msg.view > r.view) {
      r.view_claims[msg.from] = msg.view;
      const unsigned needed = config_.byzantine ? config_.f + 1 : 1;
      std::map<uint64_t, unsigned> claim_counts;
      for (const auto& [sender, view] : r.view_claims) {
        claim_counts[view]++;
      }
      uint64_t adopt = 0;
      for (const auto& [view, count] : claim_counts) {
        if (view > r.view && count >= needed) {
          adopt = std::max(adopt, view);
        }
      }
      if (adopt > r.view) {
        AdoptView(index, r, adopt, &to_broadcast);
      }
    }
    switch (msg.type) {
      case SmrMessage::Type::kRequest: {
        auto command = CoordCommand::Decode(msg.payload);
        // Retransmission of an executed request: resend the cached reply
        // from the per-client table (undecodable payloads execute under the
        // empty client).
        const std::string client =
            command.ok() ? command->client : std::string();
        auto client_it = r.client_replies.find(client);
        if (client_it != r.client_replies.end()) {
          auto reply_it = client_it->second.find(msg.request_id);
          if (reply_it != client_it->second.end()) {
            to_client.push_back(
                MakeReply(index, r, msg.request_id, reply_it->second));
            break;
          }
        }
        r.pending.emplace(
            msg.request_id,
            PendingRequest{msg.payload, client, env_->Now(), false});
        LeaderMaybePropose(index, r, &to_broadcast);
        break;
      }
      case SmrMessage::Type::kReadRequest: {
        // Read-only fast path: evaluate against the committed state, no
        // ordering, no side effects. Never touches pending/proposals.
        auto command = CoordCommand::Decode(msg.payload);
        if (!command.ok() || !command->is_read_only()) {
          break;
        }
        CoordReply reply = r.space.Query(*command);
        to_client.push_back(
            MakeReply(index, r, msg.request_id, reply.Encode()));
        break;
      }
      case SmrMessage::Type::kPropose: {
        if (msg.view != r.view ||
            msg.from != static_cast<int>(msg.view % replica_count())) {
          break;  // stale view or impostor leader
        }
        if (msg.seq < r.next_exec_seq) {
          // Below the execution frontier (a same-view re-propose raced us,
          // or a lagging new leader re-orders an already-executed seq). Vote
          // accept only when the proposal matches the batch this replica
          // executed at that seq — the vote helps slower replicas commit the
          // same order — and abstain on a conflict: endorsing a different
          // batch at an executed seq would help commit a divergent order.
          auto seq_it = r.executed_seqs.find(msg.seq);
          bool matches = seq_it != r.executed_seqs.end() &&
                         seq_it->second.size() == msg.batch.size();
          if (matches) {
            for (size_t i = 0; i < msg.batch.size(); ++i) {
              if (seq_it->second[i] != msg.batch[i].request_id) {
                matches = false;
                break;
              }
            }
          }
          if (matches) {
            SmrMessage accept;
            accept.type = SmrMessage::Type::kAccept;
            accept.from = static_cast<int>(index);
            accept.view = msg.view;
            accept.seq = msg.seq;
            to_broadcast.push_back(std::move(accept));
          }
          break;
        }
        // Store, or replace a proposal retained from an older view: the
        // current view's leader is authoritative for the seq, and an honest
        // leader adopting certificates never re-assigns a committed seq
        // (any vote quorum intersects the commit quorum in a replica that
        // still holds — or has executed — the committed batch).
        auto stored_it = r.proposals.find(msg.seq);
        if (stored_it == r.proposals.end()) {
          r.proposals.emplace(msg.seq, Replica::Proposal{msg, env_->Now()});
        } else if (stored_it->second.msg.view < msg.view) {
          stored_it->second = Replica::Proposal{msg, env_->Now()};
        }
        for (const auto& entry : msg.batch) {
          auto pending_it = r.pending.find(entry.request_id);
          if (pending_it != r.pending.end()) {
            pending_it->second.ordered = true;
          }
        }
        SmrMessage accept;
        accept.type = SmrMessage::Type::kAccept;
        accept.from = static_cast<int>(index);
        accept.view = msg.view;
        accept.seq = msg.seq;
        to_broadcast.push_back(std::move(accept));
        TryExecute(index, r, &to_client);
        LeaderMaybePropose(index, r, &to_broadcast);
        break;
      }
      case SmrMessage::Type::kAccept: {
        if (msg.view != r.view) {
          break;  // stale view
        }
        if (msg.seq < r.next_exec_seq) {
          // Already executed here. If this replica is the leader re-sending
          // a below-frontier catch-up proposal, count the (re-)accepts and
          // retire the entry once EVERY replica has re-accepted — an
          // order-quorum arrives instantly from the replicas that executed
          // it long ago, which says nothing about the laggard the catch-up
          // exists for. (With a permanently crashed replica full coverage
          // never arrives; the re-send loop retires the entry after
          // kCatchUpResendLimit paced re-sends instead.)
          auto catch_up = r.proposals.find(msg.seq);
          if (catch_up != r.proposals.end()) {
            auto& votes = r.accept_votes[msg.seq];
            votes.insert(msg.from);
            if (votes.size() >= replica_count()) {
              r.proposals.erase(catch_up);
              r.accept_votes.erase(msg.seq);
            }
          }
          break;
        }
        r.accept_votes[msg.seq].insert(msg.from);
        TryExecute(index, r, &to_client);
        // Committed instances free pipeline slots: batch up the backlog.
        LeaderMaybePropose(index, r, &to_broadcast);
        break;
      }
      case SmrMessage::Type::kViewChange: {
        if (msg.view <= r.view) {
          break;
        }
        Replica::ViewVote vote;
        vote.certs = std::move(msg.certs);
        vote.checkpoint_seq = msg.seq;
        vote.checkpoint_digest = std::move(msg.digest);
        r.view_votes[msg.view][msg.from] = std::move(vote);
        if (r.view_votes[msg.view].size() >= config_.order_quorum()) {
          AdoptView(index, r, msg.view, &to_broadcast);
        }
        break;
      }
      case SmrMessage::Type::kStateRequest: {
        if (msg.from < 0 || msg.from == static_cast<int>(index) ||
            config_.checkpoint_interval == 0) {
          break;
        }
        // Serve the OLDEST retained checkpoint beyond the requester's
        // frontier, plus the executed-batch tail above it (the committed
        // seqs between the checkpoint and this replica's frontier). Oldest,
        // not newest: during a checkpoint roll peers disagree on the
        // newest, but a peer that already rolled still retains the
        // previous one — offering it is what lets the requester assemble
        // f+1 matching vouchers in one round (the reason checkpoints are
        // retained at depth 2 at all). The longer tail is always covered:
        // the interval clamp keeps every retained checkpoint within the
        // executed-batch window of the frontier.
        const uint64_t requester_frontier = msg.seq;
        SmrMessage reply;
        reply.type = SmrMessage::Type::kStateReply;
        reply.from = static_cast<int>(index);
        for (const auto& cp : r.checkpoints) {
          if (cp.seq > requester_frontier) {
            reply.seq = cp.seq;
            reply.digest = cp.digest;
            reply.payload = cp.payload;
            break;
          }
        }
        const uint64_t tail_from = std::max(requester_frontier, reply.seq);
        for (auto it = r.executed_batches.lower_bound(tail_from);
             it != r.executed_batches.end(); ++it) {
          reply.certs.push_back(CertFromProposal(it->first, it->second));
        }
        if (reply.payload.empty() && reply.certs.empty()) {
          break;  // nothing to offer
        }
        if (r.byzantine.load()) {
          // A lying replica forges the snapshot (the payload no longer
          // hashes to the vouched digest) and skews its tail certificates
          // so they can never reach f+1 matching offers.
          if (!reply.payload.empty()) {
            reply.payload[0] ^= 0xff;
          }
          for (auto& cert : reply.certs) {
            cert.order_time += 1;
          }
        }
        to_peer.emplace_back(static_cast<unsigned>(msg.from),
                             std::move(reply));
        break;
      }
      case SmrMessage::Type::kStateReply: {
        if (msg.from < 0 || msg.from == static_cast<int>(index)) {
          break;
        }
        if (!msg.payload.empty()) {
          if (Sha256::Hash(msg.payload) != msg.digest) {
            // Proven forgery: the payload does not hash to the claimed
            // digest. Drop the whole reply — a peer caught lying about the
            // snapshot cannot be trusted for tail certificates either.
            snapshot_payload_rejects_.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          if (msg.seq > r.next_exec_seq) {
            auto* offer = EmplaceCapped(&r.state_offers,
                                        std::make_pair(msg.seq, msg.digest),
                                        kMaxSnapshotOffers);
            if (offer != nullptr) {
              if (offer->payload.empty()) {
                offer->payload = std::move(msg.payload);
              }
              offer->voters.insert(msg.from);
              if (offer->voters.size() >= config_.vouch_quorum()) {
                InstallSnapshot(index, r, msg.seq, msg.digest,
                                offer->payload);
              }
            }
          }
        }
        for (auto& cert : msg.certs) {
          if (cert.seq < r.next_exec_seq) {
            continue;
          }
          auto* offer = EmplaceCapped(
              &r.tail_offers, std::make_pair(cert.seq, CertContentKey(cert)),
              kMaxTailOffers);
          if (offer == nullptr) {
            continue;
          }
          if (offer->voters.empty()) {
            offer->cert = std::move(cert);
          }
          offer->voters.insert(msg.from);
        }
        DrainStateTransfer(index, r, &to_client);
        break;
      }
      case SmrMessage::Type::kReply:
        break;  // replicas never receive replies
    }
  }
  for (const auto& out : to_broadcast) {
    BroadcastFromReplica(index, out);
  }
  for (const auto& out : to_client) {
    SendReplyToClient(index, out);
  }
  for (auto& [target, out] : to_peer) {
    SendToReplica(index, target, std::move(out));
  }
}

// Installs `view`, and — when this replica is its leader — adopts the
// highest-view accepted proposal per seq from the vote quorum's certificates
// (plus its own log) before re-proposing, so in-flight batches survive the
// view change without reordering. Caller holds r.mu.
void SmrCluster::AdoptView(unsigned index, Replica& r, uint64_t view,
                           std::vector<SmrMessage>* out) {
  // Merge certificates: the votes' accepted proposals and executed batches,
  // plus this replica's own log (the new leader may never have voted
  // itself). Certificates below this replica's own frontier are kept: the
  // leader has executed them, but a lagging voter may not have —
  // re-proposing them is the catch-up path for a replica that missed a
  // committed seq. Because accepted proposals are retained across view
  // changes and executed payloads are kept in the executed_batches window,
  // any committed seq within the window has a certificate in every vote
  // quorum (commit and vote quorums intersect in a holder), so the no-op
  // holes below only ever cover seqs that provably did not commit.
  std::map<uint64_t, SmrViewChangeCert> adopted;  // seq -> best cert
  auto consider = [&](const SmrViewChangeCert& cert) {
    auto it = adopted.find(cert.seq);
    if (it == adopted.end() || cert.view > it->second.view) {
      adopted[cert.seq] = cert;
    }
  };
  for (const auto& [voter, vote] : r.view_votes[view]) {
    for (const auto& cert : vote.certs) {
      consider(cert);
    }
  }
  for (const auto& [seq, proposal] : r.proposals) {
    consider(CertFromProposal(seq, proposal.msg));
  }
  for (const auto& [seq, executed] : r.executed_batches) {
    consider(CertFromProposal(seq, executed));
  }

  // The collective checkpoint: the highest (seq, digest) checkpoint pair
  // vouched by f+1 vote-quorum members (this replica's own retained
  // checkpoints included). A laggard below it recovers via snapshot state
  // transfer from those holders; re-proposing below it is useless at best
  // (replicas at or past it abstain) and the new leader never does.
  std::map<std::pair<uint64_t, Bytes>, std::set<int>> checkpoint_vouchers;
  for (const auto& [voter, vote] : r.view_votes[view]) {
    if (vote.checkpoint_seq > 0) {
      checkpoint_vouchers[{vote.checkpoint_seq, vote.checkpoint_digest}]
          .insert(voter);
    }
  }
  for (const auto& cp : r.checkpoints) {
    checkpoint_vouchers[{cp.seq, cp.digest}].insert(static_cast<int>(index));
  }
  uint64_t collective_checkpoint = 0;
  for (const auto& [pair, vouchers] : checkpoint_vouchers) {
    if (vouchers.size() >= config_.vouch_quorum()) {
      collective_checkpoint = std::max(collective_checkpoint, pair.first);
    }
  }

  r.view = view;
  // Accepted proposals are RETAINED (they are future certificates; the
  // current view's leader replaces them seq by seq) — only the vote
  // tallies reset with the view.
  r.accept_votes.clear();
  r.next_seq = r.next_exec_seq;
  for (auto& [id, pending] : r.pending) {
    pending.ordered = false;
    pending.first_seen = env_->Now();
  }
  r.view_votes.erase(r.view_votes.begin(),
                     r.view_votes.upper_bound(r.view));
  for (auto it = r.view_claims.begin(); it != r.view_claims.end();) {
    it = it->second <= r.view ? r.view_claims.erase(it) : std::next(it);
  }

  if (IsLeader(r, index)) {
    // Re-propose every adopted assignment under the new view (same seq,
    // batch and order_time, so replicas that already executed them stay
    // deterministic). Below the frontier these are catch-up proposals for
    // lagging replicas: stored so the failure-detector pass re-sends them
    // until every replica has re-accepted (a one-shot send could race a
    // laggard still gathering view votes and be dropped as stale-view).
    // Above-frontier holes get no-op batches so execution never wedges on
    // a seq nobody in the quorum accepted; holes are never filled below
    // the frontier — those seqs executed real batches here.
    uint64_t horizon = std::max(r.next_exec_seq, collective_checkpoint);
    for (const auto& [seq, cert] : adopted) {
      horizon = std::max(horizon, seq + 1);
    }
    for (const auto& [seq, cert] : adopted) {
      if (seq >= r.next_exec_seq) {
        break;  // std::map: ordered; the loop below covers the rest
      }
      if (seq < collective_checkpoint) {
        continue;  // superseded by the collective checkpoint: never
                   // re-proposed; that laggard snapshots instead
      }
      SmrMessage propose;
      propose.type = SmrMessage::Type::kPropose;
      propose.from = static_cast<int>(index);
      propose.view = r.view;
      propose.seq = seq;
      propose.order_time = cert.order_time;
      propose.batch = cert.batch;
      r.proposals[seq] = Replica::Proposal{propose, env_->Now()};
      out->push_back(std::move(propose));
    }
    // A leader elected below the collective checkpoint (it lagged, but its
    // vote landed in the quorum) must not invent no-op holes for seqs that
    // committed past it elsewhere: proposing starts at the checkpoint and
    // the leader recovers its own gap via snapshot state transfer.
    for (uint64_t seq = std::max(r.next_exec_seq, collective_checkpoint);
         seq < horizon; ++seq) {
      SmrMessage propose;
      propose.type = SmrMessage::Type::kPropose;
      propose.from = static_cast<int>(index);
      propose.view = r.view;
      propose.seq = seq;
      auto it = adopted.find(seq);
      if (it != adopted.end()) {
        propose.order_time = it->second.order_time;
        propose.batch = it->second.batch;
        for (const auto& entry : propose.batch) {
          auto pending_it = r.pending.find(entry.request_id);
          if (pending_it != r.pending.end()) {
            pending_it->second.ordered = true;
          }
        }
      } else {
        propose.order_time = env_->Now();  // hole: no-op batch
      }
      r.proposals[seq] = Replica::Proposal{propose, env_->Now()};
      out->push_back(std::move(propose));
    }
    r.next_seq = horizon;
    LeaderMaybePropose(index, r, out);
  }
}

// Leader: drain pending un-ordered requests into batched proposals, keeping
// at most max_inflight_instances consensus instances outstanding. Caller
// holds r.mu; the proposals are queued into `out` and broadcast by the
// caller post-unlock.
void SmrCluster::LeaderMaybePropose(unsigned index, Replica& r,
                                    std::vector<SmrMessage>* out) {
  if (!IsLeader(r, index)) {
    return;
  }
  const unsigned max_batch = config_.enable_batching
                                 ? std::max(1u, config_.max_batch)
                                 : 1u;
  const unsigned max_inflight = std::max(1u, config_.max_inflight_instances);
  // One persistent scan position across batches: each pending entry is
  // visited once per call, not once per batch formed.
  auto scan = r.pending.begin();
  for (;;) {
    const uint64_t inflight =
        r.next_seq > r.next_exec_seq ? r.next_seq - r.next_exec_seq : 0;
    if (inflight >= max_inflight) {
      return;  // pipeline full; committed instances re-trigger this
    }
    // Gather the next batch in request-id order.
    std::vector<std::map<uint64_t, PendingRequest>::iterator> chosen;
    for (; scan != r.pending.end() && chosen.size() < max_batch; ++scan) {
      if (scan->second.ordered) {
        continue;
      }
      chosen.push_back(scan);
    }
    if (chosen.empty()) {
      return;
    }
    std::vector<SmrBatchEntry> batch;
    batch.reserve(chosen.size());
    for (auto it : chosen) {
      it->second.ordered = true;
      batch.push_back(SmrBatchEntry{it->first, it->second.payload});
    }
    SmrMessage propose;
    propose.type = SmrMessage::Type::kPropose;
    propose.from = static_cast<int>(index);
    propose.view = r.view;
    propose.seq = r.next_seq++;
    propose.order_time = env_->Now();
    propose.batch = std::move(batch);
    proposed_instances_.fetch_add(1, std::memory_order_relaxed);
    proposed_requests_.fetch_add(propose.batch.size(),
                                 std::memory_order_relaxed);
    // Assignment, not emplace: a proposal retained from an older view may
    // occupy this seq (kept as a certificate); the current view's leader
    // assignment replaces it everywhere, including here.
    r.proposals[propose.seq] = Replica::Proposal{propose, env_->Now()};
    out->push_back(std::move(propose));
  }
}

// Executes committed batches in sequence order, one reply per request.
// Caller holds r.mu; replies are queued into `out`.
void SmrCluster::TryExecute(unsigned index, Replica& r,
                            std::vector<SmrMessage>* out) {
  for (;;) {
    auto proposal_it = r.proposals.find(r.next_exec_seq);
    if (proposal_it == r.proposals.end()) {
      break;
    }
    auto votes_it = r.accept_votes.find(r.next_exec_seq);
    if (votes_it == r.accept_votes.end() ||
        votes_it->second.size() < config_.order_quorum()) {
      break;
    }
    // Prune the vote/proposal state before executing so the leader's
    // re-propose scan stays O(in-flight), not O(history).
    const uint64_t seq = r.next_exec_seq;
    SmrMessage proposal = std::move(proposal_it->second.msg);
    r.proposals.erase(proposal_it);
    r.accept_votes.erase(seq);
    ExecuteCommitted(index, r, proposal, out);
  }
}

void SmrCluster::ExecuteCommitted(unsigned index, Replica& r,
                                  const SmrMessage& proposal,
                                  std::vector<SmrMessage>* out) {
  std::vector<uint64_t> batch_ids;
  batch_ids.reserve(proposal.batch.size());
  for (const auto& entry : proposal.batch) {
    batch_ids.push_back(entry.request_id);
    auto command = CoordCommand::Decode(entry.payload);
    const std::string client = command.ok() ? command->client : std::string();
    auto& client_log = r.client_replies[client];
    Bytes reply_bytes;
    auto cached_it = client_log.find(entry.request_id);
    if (cached_it != client_log.end()) {
      reply_bytes = cached_it->second;  // duplicate ordering; cached reply
      // A retransmission may have re-queued the executed request (e.g. an
      // undecodable payload skips the kRequest cache lookup); drop it so
      // view changes never re-batch a dead entry.
      r.pending.erase(entry.request_id);
    } else {
      CoordReply reply;
      if (command.ok()) {
        reply = r.space.Apply(proposal.order_time, *command);
      } else {
        reply.code = ErrorCode::kCorruption;
      }
      reply_bytes = reply.Encode();
      client_log[entry.request_id] = reply_bytes;
      // Window the per-client table: a client only ever retransmits
      // requests it is still waiting on, which are at most its in-flight
      // set — far fewer than the window.
      while (client_log.size() > kClientReplyWindow) {
        client_log.erase(client_log.begin());
      }
      r.executed_ops++;
      r.pending.erase(entry.request_id);
    }
    out->push_back(MakeReply(index, r, entry.request_id,
                             std::move(reply_bytes)));
  }
  // Record the committed assignment (it validates below-frontier
  // re-proposes). The commit log is a sliding window: a below-frontier
  // re-propose can only reference a seq a lagging leader still holds
  // pending, which is bounded by the client retry lifetime — far less than
  // the window. (Proposals beyond the window are simply not endorsed.)
  r.executed_seqs[r.next_exec_seq] = std::move(batch_ids);
  if (r.next_exec_seq >= kExecutedSeqWindow) {
    r.executed_seqs.erase(r.executed_seqs.begin(),
                          r.executed_seqs.lower_bound(
                              r.next_exec_seq - kExecutedSeqWindow + 1));
  }
  // Retain the executed payloads on the shorter window: they are the
  // certificates that let a view change catch up a lagging replica, and
  // the tail certificates of snapshot state transfer.
  const uint64_t batch_window =
      std::max<uint64_t>(1, config_.executed_batch_window);
  r.executed_batches[r.next_exec_seq] = proposal;
  if (r.next_exec_seq >= batch_window) {
    r.executed_batches.erase(
        r.executed_batches.begin(),
        r.executed_batches.lower_bound(r.next_exec_seq - batch_window + 1));
  }
  r.next_exec_seq++;
  r.last_exec_advance = env_->Now();
  MaybeTakeCheckpoint(index, r);
}

void SmrCluster::MaybeTakeCheckpoint(unsigned index, Replica& r) {
  (void)index;
  if (config_.checkpoint_interval == 0 ||
      r.next_exec_seq % config_.checkpoint_interval != 0) {
    return;
  }
  if (!r.checkpoints.empty() && r.checkpoints.back().seq >= r.next_exec_seq) {
    return;  // an installed snapshot already covers this frontier
  }
  Replica::Checkpoint cp;
  cp.seq = r.next_exec_seq;
  cp.payload = EncodeReplicaSnapshot(r);
  cp.digest = Sha256::Hash(cp.payload);
  r.checkpoints.push_back(std::move(cp));
  while (r.checkpoints.size() > kRetainedCheckpoints) {
    r.checkpoints.pop_front();
  }
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  // Log GC — the payoff of checkpointing: accepted proposals retained as
  // certificates below the checkpoint are superseded by the snapshot as a
  // catch-up source, so replica memory is bounded by the checkpoint
  // interval and the retained windows instead of growing with history.
  r.proposals.erase(r.proposals.begin(),
                    r.proposals.lower_bound(r.next_exec_seq));
  r.accept_votes.erase(r.accept_votes.begin(),
                       r.accept_votes.lower_bound(r.next_exec_seq));
}

void SmrCluster::InstallSnapshot(unsigned index, Replica& r, uint64_t frontier,
                                 const Bytes& digest, const Bytes& payload) {
  (void)index;
  TupleSpace space;
  std::map<std::string, std::map<uint64_t, Bytes>> client_replies;
  if (!DecodeReplicaSnapshot(payload, &space, &client_replies)) {
    // Digest-vouched payloads decode by construction (the encoder is ours);
    // treat a failure as a rejected offer rather than wedging on it.
    snapshot_payload_rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  r.space = std::move(space);
  r.client_replies = std::move(client_replies);
  r.next_exec_seq = frontier;
  r.next_seq = std::max(r.next_seq, frontier);
  r.last_exec_advance = env_->Now();
  // Truncate the below-frontier proposal/commit logs: everything below the
  // installed checkpoint is superseded by it.
  r.proposals.erase(r.proposals.begin(), r.proposals.lower_bound(frontier));
  r.accept_votes.erase(r.accept_votes.begin(),
                       r.accept_votes.lower_bound(frontier));
  r.executed_seqs.erase(r.executed_seqs.begin(),
                        r.executed_seqs.lower_bound(frontier));
  r.executed_batches.erase(r.executed_batches.begin(),
                           r.executed_batches.lower_bound(frontier));
  // The installed snapshot becomes this replica's own checkpoint: it can
  // vouch for it and serve it onward, and its view-change votes carry it.
  if (r.checkpoints.empty() || r.checkpoints.back().seq < frontier) {
    r.checkpoints.push_back(Replica::Checkpoint{frontier, digest, payload});
    while (r.checkpoints.size() > kRetainedCheckpoints) {
      r.checkpoints.pop_front();
    }
  }
  snapshots_installed_.fetch_add(1, std::memory_order_relaxed);
}

void SmrCluster::DrainStateTransfer(unsigned index, Replica& r,
                                    std::vector<SmrMessage>* out) {
  for (;;) {
    // Replay a tail certificate at the frontier once f+1 repliers agree on
    // its content — at least one of them is correct and executed exactly
    // this batch at this seq, so it is committed.
    bool advanced = false;
    for (auto it = r.tail_offers.lower_bound({r.next_exec_seq, Bytes()});
         it != r.tail_offers.end() && it->first.first == r.next_exec_seq;
         ++it) {
      if (it->second.voters.size() < config_.vouch_quorum()) {
        continue;
      }
      SmrMessage proposal;
      proposal.type = SmrMessage::Type::kPropose;
      proposal.view = r.view;
      proposal.seq = it->second.cert.seq;
      proposal.order_time = it->second.cert.order_time;
      proposal.batch = it->second.cert.batch;
      const uint64_t seq = r.next_exec_seq;
      r.proposals.erase(seq);
      r.accept_votes.erase(seq);
      ExecuteCommitted(index, r, proposal, out);
      advanced = true;
      break;  // maps mutated; restart the scan at the new frontier
    }
    // The ordered path may now connect: live proposals stored while we
    // lagged execute as soon as the frontier reaches them.
    TryExecute(index, r, out);
    PruneTransferState(r);
    if (!advanced) {
      break;
    }
  }
}

void SmrCluster::PruneTransferState(Replica& r) {
  for (auto it = r.state_offers.begin();
       it != r.state_offers.end() && it->first.first <= r.next_exec_seq;) {
    it = r.state_offers.erase(it);
  }
  for (auto it = r.tail_offers.begin();
       it != r.tail_offers.end() && it->first.first < r.next_exec_seq;) {
    it = r.tail_offers.erase(it);
  }
}

// Failure detector: a pending request left unordered past order_timeout makes
// this replica vote for a view change (BFT-SMaRt's client-triggered
// synchronization, simplified). The vote carries this replica's accepted
// proposals as certificates for the new leader's adoption pass.
void SmrCluster::CheckOrderingTimeout(unsigned index, Replica& r) {
  SmrMessage vote;
  bool send = false;
  std::vector<SmrMessage> reproposals;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (IsLeader(r, index)) {
      // Leader: re-broadcast proposals that failed to gather an accept
      // quorum in time. A proposal sent in the instant this replica won a
      // view change is dropped by followers still gathering view votes; the
      // exact original message is re-sent (same seq/order_time, so replicas
      // that already stored it stay deterministic) until it commits.
      // Below-frontier entries are catch-up proposals: re-sent until every
      // replica has re-accepted (an order-quorum alone proves nothing
      // about the laggard they exist for).
      VirtualTime now = env_->Now();
      for (auto it = r.proposals.begin(); it != r.proposals.end();) {
        auto& [seq, entry] = *it;
        if (entry.msg.view != r.view) {
          ++it;
          continue;  // retained from an older view: certificate only
        }
        auto votes_it = r.accept_votes.find(seq);
        unsigned votes =
            votes_it == r.accept_votes.end()
                ? 0
                : static_cast<unsigned>(votes_it->second.size());
        if (seq < r.next_exec_seq && votes >= config_.order_quorum() &&
            entry.resends >= kCatchUpResendLimit) {
          // Catch-up entry that will never reach full coverage (a replica
          // is gone): stop re-broadcasting it.
          r.accept_votes.erase(seq);
          it = r.proposals.erase(it);
          continue;
        }
        unsigned needed = seq < r.next_exec_seq ? replica_count()
                                                : config_.order_quorum();
        if (votes < needed && now - entry.last_sent > config_.order_timeout) {
          entry.last_sent = now;
          entry.resends++;
          reproposals.push_back(entry.msg);
        }
        ++it;
      }
    }
  }
  for (const auto& proposal : reproposals) {
    BroadcastFromReplica(index, proposal);
  }
  // Wedge detection: evidence of ordering activity at or above our frontier
  // with no execution progress for an order timeout. The ordered path can
  // no longer supply what is missing (proposals below the live window are
  // not re-sent to us), so ask the peers for a checkpoint and tail.
  SmrMessage state_request;
  bool request_state = false;
  if (config_.checkpoint_interval > 0) {
    std::lock_guard<std::mutex> lock(r.mu);
    VirtualTime now = env_->Now();
    // Drop transfer state the ordered path caught up past (DrainStateTransfer
    // prunes too, but only runs on state replies — a replica unwedged by
    // view-change re-proposes would otherwise hold stale offers forever and
    // keep re-requesting on their evidence).
    PruneTransferState(r);
    const bool evidence =
        (!r.proposals.empty() &&
         r.proposals.rbegin()->first >= r.next_exec_seq) ||
        (!r.accept_votes.empty() &&
         r.accept_votes.rbegin()->first >= r.next_exec_seq) ||
        !r.state_offers.empty() || !r.tail_offers.empty();
    if (evidence && now - r.last_exec_advance > config_.order_timeout &&
        now - r.last_state_request > config_.order_timeout) {
      r.last_state_request = now;
      state_request.type = SmrMessage::Type::kStateRequest;
      state_request.from = static_cast<int>(index);
      state_request.seq = r.next_exec_seq;
      request_state = true;
    }
  }
  if (request_state) {
    state_requests_.fetch_add(1, std::memory_order_relaxed);
    BroadcastFromReplica(index, state_request);
  }
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (IsLeader(r, index)) {
      return;
    }
    VirtualTime now = env_->Now();
    for (const auto& [request_id, pending] : r.pending) {
      if (!pending.ordered &&
          now - pending.first_seen > config_.order_timeout) {
        uint64_t proposed_view = r.view + 1;
        auto& votes = r.view_votes[proposed_view];
        if (votes.count(static_cast<int>(index)) > 0) {
          return;  // already voted
        }
        // Certificates: every accepted proposal plus the retained executed
        // batches — the new leader adopts the highest view per seq, and
        // below-frontier entries are its catch-up source for laggards. The
        // vote also carries this replica's latest checkpoint, from which
        // the new leader derives the collective checkpoint it must never
        // re-propose below.
        Replica::ViewVote my_vote;
        for (const auto& [seq, proposal] : r.proposals) {
          my_vote.certs.push_back(CertFromProposal(seq, proposal.msg));
        }
        for (const auto& [seq, executed] : r.executed_batches) {
          my_vote.certs.push_back(CertFromProposal(seq, executed));
        }
        if (!r.checkpoints.empty()) {
          my_vote.checkpoint_seq = r.checkpoints.back().seq;
          my_vote.checkpoint_digest = r.checkpoints.back().digest;
        }
        vote.type = SmrMessage::Type::kViewChange;
        vote.from = static_cast<int>(index);
        vote.view = proposed_view;
        vote.seq = my_vote.checkpoint_seq;
        vote.digest = my_vote.checkpoint_digest;
        vote.certs = my_vote.certs;
        votes[static_cast<int>(index)] = std::move(my_vote);
        send = true;
        break;
      }
    }
  }
  if (send) {
    BroadcastFromReplica(index, vote);
  }
}

}  // namespace scfs
