#include "src/depsky/depsky.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "src/crypto/chacha20.h"
#include "src/crypto/secret_sharing.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"

namespace scfs {

namespace {

// Everything one robust cloud request needs from its DepSkyClient, borrowed
// for the call's lifetime (the client's destructor awaits async_ops_, which
// the call holds until it settles).
struct RobustContext {
  Environment* env = nullptr;
  VirtualTimerQueue* timers = nullptr;
  CloudHealthTracker* health = nullptr;
  const DepSkyConfig* config = nullptr;
  std::mutex* rng_mu = nullptr;
  Rng* rng = nullptr;
  InFlightTracker* tracker = nullptr;
  std::atomic<uint64_t>* retries = nullptr;
  std::atomic<uint64_t>* deadline_expiries = nullptr;
};

// One cloud request wrapped in the robustness envelope: a per-attempt
// deadline (enforced by the shared timer queue, so no watchdog thread per
// request), capped-backoff-with-jitter retries, and success/failure
// accounting into the health tracker. The modelled request itself is never
// aborted — a deadline expiry counts the attempt as failed and moves on
// while the straggler finishes inside its store, exactly like an HTTP
// client timing out a slow provider.
template <typename T>
class RobustCall : public std::enable_shared_from_this<RobustCall<T>> {
 public:
  RobustCall(RobustContext ctx, unsigned cloud,
             std::function<Future<T>()> issue,
             std::function<bool(const T&)> responsive,
             std::function<T()> timeout_value)
      : ctx_(ctx),
        cloud_(cloud),
        issue_(std::move(issue)),
        responsive_(std::move(responsive)),
        timeout_value_(std::move(timeout_value)) {}

  Future<T> Start() {
    first_start_ = ctx_.env->Now();
    ctx_.tracker->Add();
    Attempt(0);
    return promise_.future();
  }

 private:
  void Attempt(int attempt) {
    auto self = this->shared_from_this();
    VirtualTime start = ctx_.env->Now();
    // The deadline timer and the completion callback race to claim the
    // attempt; exactly one settles it.
    auto claimed = std::make_shared<std::atomic<bool>>(false);
    auto timer_id = std::make_shared<uint64_t>(0);
    if (ctx_.config->request_deadline > 0) {
      *timer_id = ctx_.timers->Schedule(
          start + ctx_.config->request_deadline,
          [self, attempt, start, claimed] {
            if (!claimed->exchange(true)) {
              self->ctx_.deadline_expiries->fetch_add(1);
              self->Settle(attempt, self->timeout_value_(), false);
            }
          });
    }
    Future<T> inner = issue_();
    inner.OnReady(
        [self, attempt, start, claimed, timer_id](const T& value,
                                                  VirtualDuration) {
          if (claimed->exchange(true)) {
            return;  // the deadline already declared this attempt dead
          }
          self->ctx_.timers->Cancel(*timer_id);
          self->Settle(attempt, value, self->responsive_(value),
                       self->ctx_.env->Now() - start);
        });
  }

  void Settle(int attempt, T value, bool responsive,
              VirtualDuration latency = 0) {
    VirtualTime now = ctx_.env->Now();
    if (responsive) {
      ctx_.health->RecordSuccess(cloud_, now, latency);
      Finish(std::move(value), now);
      return;
    }
    ctx_.health->RecordFailure(cloud_, now);
    int max_attempts = std::max(1, ctx_.config->max_attempts);
    if (attempt + 1 < max_attempts) {
      ctx_.retries->fetch_add(1);
      VirtualDuration delay;
      {
        std::lock_guard<std::mutex> lock(*ctx_.rng_mu);
        delay = ctx_.config->retry_backoff.Delay(attempt, *ctx_.rng);
      }
      auto self = this->shared_from_this();
      if (delay > 0) {
        uint64_t id = ctx_.timers->Schedule(
            now + delay, [self, attempt] { self->Attempt(attempt + 1); });
        if (id != 0) {
          return;  // retry armed on the timer thread
        }
      }
      Attempt(attempt + 1);  // instant environment: retry inline, no delay
      return;
    }
    Finish(std::move(value), now);
  }

  void Finish(T value, VirtualTime now) {
    promise_.Set(std::move(value), now - first_start_);
    ctx_.tracker->Done();
  }

  RobustContext ctx_;
  unsigned cloud_;
  std::function<Future<T>()> issue_;
  std::function<bool(const T&)> responsive_;
  std::function<T()> timeout_value_;
  VirtualTime first_start_ = 0;
  Promise<T> promise_;
};

// A cloud that answers — even with NOT_FOUND or PERMISSION_DENIED — is
// healthy; only unreachability (and deadline expiry) counts against it.
bool ResponsiveStatus(const Status& s) {
  return s.ok() || s.code() == ErrorCode::kNotFound ||
         s.code() == ErrorCode::kPermissionDenied ||
         s.code() == ErrorCode::kAlreadyExists;
}

}  // namespace

DepSkyClient::DepSkyClient(Environment* env, std::vector<DepSkyCloud> clouds,
                           DepSkyConfig config, uint64_t seed)
    : env_(env),
      clouds_(std::move(clouds)),
      config_(config),
      rng_(seed),
      health_(static_cast<unsigned>(clouds_.size()), config.health),
      timers_(env) {}

DepSkyClient::~DepSkyClient() {
  // Every RobustCall holds a tracker slot until it settles, and pending
  // retries live on the timer queue — await them before the members (the
  // timer queue among them) are torn down.
  async_ops_.AwaitIdle();
}

Future<Status> DepSkyClient::RobustPut(unsigned cloud, const std::string& key,
                                       std::shared_ptr<const Bytes> data) {
  RobustContext ctx{env_,     &timers_, &health_,  &config_,           &rng_mu_,
                    &rng_,    &async_ops_, &retries_, &deadline_expiries_};
  // Every attempt shares the one encoded buffer — the store takes a
  // reference, not a copy, so a retry costs a request, not a payload copy.
  auto call = std::make_shared<RobustCall<Status>>(
      ctx, cloud,
      [this, cloud, key, data = std::move(data)]() {
        return clouds_[cloud].store->PutAsync(clouds_[cloud].creds, key, data);
      },
      [](const Status& s) { return ResponsiveStatus(s); },
      [key]() { return TimeoutError("deadline expired: PUT " + key); });
  return call->Start();
}

Future<Result<Bytes>> DepSkyClient::RobustGet(unsigned cloud,
                                              const std::string& key) {
  RobustContext ctx{env_,     &timers_, &health_,  &config_,           &rng_mu_,
                    &rng_,    &async_ops_, &retries_, &deadline_expiries_};
  auto call = std::make_shared<RobustCall<Result<Bytes>>>(
      ctx, cloud,
      [this, cloud, key]() {
        return clouds_[cloud].store->GetAsync(clouds_[cloud].creds, key);
      },
      [](const Result<Bytes>& r) { return ResponsiveStatus(r.status()) || r.ok(); },
      [key]() -> Result<Bytes> {
        return TimeoutError("deadline expired: GET " + key);
      });
  return call->Start();
}

void DepSkyClient::ApplyAclsWhenWritten(
    Future<Status> put, unsigned cloud,
    std::shared_ptr<const DepSkyMetadata> md, const std::string& key) {
  async_ops_.Add();
  put.OnReady([this, cloud, md, key](const Status& status, VirtualDuration) {
    if (status.ok()) {
      std::vector<Future<Status>> acl;
      CollectAclFutures(*md, cloud, key, &acl);
      // The ACL requests' own completion is tracked by their store.
    }
    async_ops_.Done();
  });
}

std::string DepSkyClient::MetadataKey(const std::string& unit) {
  return "du/" + unit + "/md";
}

std::string DepSkyClient::ValueKey(const std::string& unit, uint64_t version) {
  return "du/" + unit + "/v" + std::to_string(version);
}

std::string DepSkyClient::StripeValueKey(const std::string& unit,
                                         uint64_t version,
                                         uint64_t stripe_index) {
  return "du/" + unit + "/v" + std::to_string(version) + "/u" +
         std::to_string(stripe_index);
}

Bytes DepSkyClient::RandomBytesLocked(size_t size) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.RandomBytes(size);
}

Result<DepSkyMetadata> DepSkyClient::ReadMetadata(const std::string& unit) {
  ASSIGN_OR_RETURN(MetadataRead read, ReadMetadata(unit, std::string()));
  return std::move(read.md);
}

Result<DepSkyClient::MetadataRead> DepSkyClient::ReadMetadata(
    const std::string& unit, const std::string& anchor) {
  const std::string key = MetadataKey(unit);
  // Fan the GET out to every cloud through the async API, but return as soon
  // as the read is settled — the protocol only needs n-f replies, and
  // waiting for the slowest cloud is exactly the latency the paper's quorum
  // design avoids.
  std::vector<Future<Result<Bytes>>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustGet(i, key));
  }
  // The predicate authenticates each reply once, keeps the decoded copy, and
  // says whether this reply settles the read: the (n-f)-th authentic copy,
  // or, for an anchored read, the first authentic copy that lists the
  // anchor. It runs serialized under the combinator's lock and never after
  // the trigger, so the shared state needs no further synchronization.
  struct Decoded {
    std::vector<std::optional<DepSkyMetadata>> entries;
    unsigned authentic = 0;
  };
  auto decoded = std::make_shared<Decoded>();
  decoded->entries.resize(clouds_.size());
  const Bytes auth_key = config_.auth_key;
  const unsigned quorum = config_.quorum();
  (void)WhenQuorum<Result<Bytes>>(
      std::move(futures), 1,
      [decoded, auth_key, anchor, quorum](size_t i, const Result<Bytes>& raw) {
        if (!raw.ok()) {
          return false;
        }
        auto md = DepSkyMetadata::Decode(*raw, auth_key);
        if (!md.ok()) {
          return false;  // corrupted/forged copy: skip
        }
        const bool lists_anchor =
            !anchor.empty() && md->FindByHash(anchor) != nullptr;
        decoded->entries[i] = std::move(*md);
        ++decoded->authentic;
        return lists_anchor || decoded->authentic >= quorum;
      })
      .Join();

  // Keep the highest *authenticated* version view among the replies —
  // among those listing the anchor, if any does. Byzantine clouds cannot
  // forge the HMAC; at worst they serve an old copy, which loses the
  // max-version vote as long as one honest fresh copy is in the quorum, and
  // an old copy that still lists the anchor names immutable content.
  std::optional<DepSkyMetadata>* best = nullptr;
  std::pair<bool, uint64_t> best_rank;
  for (auto& entry : decoded->entries) {
    if (!entry.has_value()) {
      continue;
    }
    const std::pair<bool, uint64_t> rank(
        !anchor.empty() && entry->FindByHash(anchor) != nullptr,
        entry->versions.empty() ? 0 : entry->versions.back().version);
    if (best == nullptr || rank > best_rank) {
      best = &entry;
      best_rank = rank;
    }
  }
  if (best == nullptr) {
    return NotFoundError("no metadata for " + unit);
  }
  return MetadataRead{std::move(**best), decoded->authentic < quorum};
}

Status DepSkyClient::PushMetadata(const std::string& unit,
                                  const DepSkyMetadata& md) {
  const std::string key = MetadataKey(unit);
  auto encoded = std::make_shared<const Bytes>(md.Encode(config_.auth_key));
  std::vector<Future<Status>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustPut(i, key, encoded));
  }
  // Return at the write quorum; stragglers finish inside their stores. ACLs
  // for the acknowledged copies are applied (in parallel) before returning;
  // a straggler's ACLs ride behind its PUT as a continuation so the slow
  // cloud still converges to the granted state.
  QuorumResult<Status> acks =
      WhenQuorum<Status>(futures, config_.quorum(),
                         [](size_t, const Status& s) { return s.ok(); })
          .Get();
  std::shared_ptr<const DepSkyMetadata> md_shared;
  std::vector<Future<Status>> acl_futures;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (!acks.results[i].has_value()) {
      if (!md_shared) {
        md_shared = std::make_shared<const DepSkyMetadata>(md);
      }
      ApplyAclsWhenWritten(futures[i], i, md_shared, key);
    } else if (acks.results[i]->ok()) {
      CollectAclFutures(md, i, key, &acl_futures);
    }
  }
  WhenAll<Status>(std::move(acl_futures)).Join();  // max-of-clouds
  if (!acks.quorum_reached) {
    return UnavailableError("metadata write quorum not reached for " + unit);
  }
  return OkStatus();
}

void DepSkyClient::CollectAclFutures(const DepSkyMetadata& md, unsigned cloud,
                                     const std::string& key,
                                     std::vector<Future<Status>>* out) {
  // Owner of the data unit always gets read+write on objects we create.
  if (cloud < md.owner_ids.size() && !md.owner_ids[cloud].empty() &&
      md.owner_ids[cloud] != clouds_[cloud].creds.canonical_id) {
    out->push_back(clouds_[cloud].store->SetAclAsync(
        clouds_[cloud].creds, key, md.owner_ids[cloud],
        ObjectPermissions::ReadWrite()));
  }
  for (const auto& grant : md.grants) {
    if (cloud >= grant.cloud_ids.size() || grant.cloud_ids[cloud].empty()) {
      continue;
    }
    if (grant.cloud_ids[cloud] == clouds_[cloud].creds.canonical_id) {
      continue;
    }
    ObjectPermissions perms;
    perms.read = grant.read;
    perms.write = grant.write;
    out->push_back(clouds_[cloud].store->SetAclAsync(
        clouds_[cloud].creds, key, grant.cloud_ids[cloud], perms));
  }
}

void DepSkyClient::ApplyAclsToObject(const DepSkyMetadata& md, unsigned cloud,
                                     const std::string& key) {
  std::vector<Future<Status>> futures;
  CollectAclFutures(md, cloud, key, &futures);
  WhenAll<Status>(std::move(futures)).Join();  // best effort, charge the wait
}

Result<uint64_t> DepSkyClient::WriteVersion(
    const std::string& unit, const std::string& content_hash,
    ConstByteSpan data, const std::vector<DepSkyGrant>* merge_grants) {
  // Step 0: learn the current version history (creates it on first write).
  DepSkyMetadata md;
  auto existing = ReadMetadata(unit);
  if (existing.ok()) {
    md = std::move(*existing);
  } else if (existing.status().code() == ErrorCode::kNotFound) {
    md.n = config_.n();
    md.k = config_.k();
    md.mode = config_.mode;
    md.owner_ids.resize(clouds_.size());
    for (unsigned i = 0; i < clouds_.size(); ++i) {
      md.owner_ids[i] = clouds_[i].creds.canonical_id;
    }
  } else {
    return existing.status();
  }
  if (merge_grants != nullptr) {
    for (const auto& grant : *merge_grants) {
      auto it = std::find_if(md.grants.begin(), md.grants.end(),
                             [&](const DepSkyGrant& g) {
                               return g.cloud_ids == grant.cloud_ids;
                             });
      if (it != md.grants.end()) {
        *it = grant;
      } else if (grant.read || grant.write) {
        md.grants.push_back(grant);
      }
    }
  }

  DepSkyVersion version;
  version.version = md.NextVersionNumber();
  version.content_hash = content_hash;
  version.size = data.size();

  // Large secret-sharing writes take the striped data plane: independent
  // per-unit pipelines instead of one file-sized arena and quorum round.
  if (config_.mode == DepSkyMode::kSecretSharing &&
      config_.stripe_threshold > 0 &&
      data.size() > config_.stripe_threshold) {
    return WriteStripedVersion(unit, std::move(md), std::move(version), data);
  }

  // Steps 1-3 (Figure 6): key generation, encryption, erasure coding and
  // secret sharing. The whole stage is zero-copy: the plaintext is encrypted
  // straight into the arena's framed data region (the systematic shards alias
  // that frame), parity is derived in place, and every later consumer —
  // shard hashing and wire-object serialization — reads arena views. In
  // replication mode the "shards" are views of the caller's plaintext.
  std::optional<ShardArena> arena;
  std::vector<SecretShare> shares;
  const unsigned shard_count = static_cast<unsigned>(clouds_.size());
  if (config_.mode == DepSkyMode::kSecretSharing) {
    Bytes key = RandomBytesLocked(ChaCha20::kKeySize);
    version.nonce = RandomBytesLocked(ChaCha20::kNonceSize);
    ErasureCodec codec(config_.n(), config_.k());
    arena = codec.PrepareArena(data.size(), &arena_pool_);
    ChaCha20::CryptInto(key, version.nonce, 0, data, arena->payload());
    codec.ComputeParity(&*arena);
    Result<std::vector<SecretShare>> split = [&]() {
      std::lock_guard<std::mutex> lock(rng_mu_);
      return SecretSharing::Split(key, config_.n(), config_.k(), rng_);
    }();
    RETURN_IF_ERROR(split.status());
    shares = std::move(*split);
  }
  auto shard_view = [&](unsigned i) -> ConstByteSpan {
    return arena ? arena->shard(i) : data;  // full replicas without the arena
  };

  auto encode_object = [&](unsigned shard_index) -> Bytes {
    // The shard bytes move from the arena (or the caller's plaintext) to the
    // wire buffer in this one serialization copy.
    if (config_.mode == DepSkyMode::kSecretSharing) {
      return DepSkyValueObject::EncodeParts(shard_view(shard_index),
                                            shares[shard_index].index,
                                            shares[shard_index].data);
    }
    return DepSkyValueObject::EncodeParts(shard_view(shard_index), 0, {});
  };

  // The metadata authenticates the complete stored object — shard AND key
  // share AND framing — not just the shard bytes. A faulty cloud must not be
  // able to slip a poisoned key share past the hash check by leaving the
  // shard untouched (a corrupted share silently wrecks key reconstruction,
  // which only surfaces as a content-hash mismatch after decrypt). The
  // object for shard i is deterministic — share i always rides with shard i,
  // fallback writes included — so the per-shard-index hash is well-defined.
  std::vector<Bytes> objects(shard_count);
  version.shard_hashes.resize(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    objects[i] = encode_object(i);
    version.shard_hashes[i] = Sha256::Hash(objects[i]);
  }

  // Step 4: store shard_i + share_i at cloud i (preferred wave + fallback).
  auto placed = PlaceObjects(md, ValueKey(unit, version.version),
                             std::move(objects), encode_object);
  if (arena) {
    arena_pool_.Release(std::move(*arena));
  }
  if (!placed.ok()) {
    return UnavailableError("depsky write quorum not reached for " + unit);
  }
  version.cloud_shard = *std::move(placed);

  // Step 5: publish the version in the metadata object.
  md.versions.push_back(std::move(version));
  RETURN_IF_ERROR(PushMetadata(unit, md));
  return md.versions.back().version;
}

Result<std::vector<int32_t>> DepSkyClient::PlaceObjects(
    const DepSkyMetadata& md, const std::string& value_key,
    std::vector<Bytes> objects,
    const std::function<Bytes(unsigned)>& encode_object) {
  // Preferred quorums: use the first n-f *healthy* clouds — the cost-ordered
  // list with breaker-demoted clouds moved to the back, so a flapping
  // provider drops out of the preferred set and only re-enters once its
  // breaker half-opens.
  const unsigned quorum = config_.quorum();
  std::vector<unsigned> cost_order(clouds_.size());
  std::iota(cost_order.begin(), cost_order.end(), 0u);
  std::vector<unsigned> ordered = health_.Reorder(cost_order, env_->Now());
  std::vector<unsigned> preferred;
  std::vector<unsigned> spares;
  for (unsigned cloud : ordered) {
    if (config_.preferred_quorums && preferred.size() >= quorum) {
      spares.push_back(cloud);
    } else {
      preferred.push_back(cloud);
    }
  }

  std::vector<int32_t> cloud_shard(clouds_.size(), -1);

  // First wave: shard i -> preferred cloud i, fanned out through the async
  // ObjectStore API and awaited at the write quorum. (With preferred quorums
  // the wave is exactly quorum-sized, so this waits for all of it; without
  // them, the n-f fastest clouds complete the write.)
  std::vector<Future<Status>> futures;
  futures.reserve(preferred.size());
  for (unsigned cloud : preferred) {
    futures.push_back(RobustPut(
        cloud, value_key,
        std::make_shared<const Bytes>(std::move(objects[cloud]))));
  }
  QuorumResult<Status> acks =
      WhenQuorum<Status>(futures, quorum,
                         [](size_t, const Status& s) { return s.ok(); })
          .Get();
  unsigned successes = 0;
  std::vector<unsigned> failed_shards;
  std::shared_ptr<const DepSkyMetadata> md_shared;
  std::vector<Future<Status>> acl_futures;
  for (size_t i = 0; i < preferred.size(); ++i) {
    unsigned cloud = preferred[i];
    if (!acks.results[i].has_value()) {
      // Still in flight past the quorum: not recorded as a holder, but its
      // object (if the PUT lands) still gets the grants.
      if (!md_shared) {
        md_shared = std::make_shared<const DepSkyMetadata>(md);
      }
      ApplyAclsWhenWritten(futures[i], cloud, md_shared, value_key);
      continue;
    }
    if (acks.results[i]->ok()) {
      cloud_shard[cloud] = static_cast<int32_t>(cloud);
      CollectAclFutures(md, cloud, value_key, &acl_futures);
      ++successes;
    } else {
      failed_shards.push_back(cloud);
    }
  }
  WhenAll<Status>(std::move(acl_futures)).Join();  // max-of-clouds
  // Fallback wave: route failed shards to spare clouds.
  for (unsigned spare : spares) {
    if (successes >= quorum || failed_shards.empty()) {
      break;
    }
    unsigned shard = failed_shards.back();
    Status s = RobustPut(spare, value_key,
                         std::make_shared<const Bytes>(encode_object(shard)))
                   .Get();
    if (s.ok()) {
      ApplyAclsToObject(md, spare, value_key);
      cloud_shard[spare] = static_cast<int32_t>(shard);
      failed_shards.pop_back();
      ++successes;
    }
  }
  if (successes < quorum) {
    return UnavailableError("write quorum not reached for " + value_key);
  }
  return cloud_shard;
}

Result<DepSkyStripeUnit> DepSkyClient::WriteStripeUnit(
    const DepSkyMetadata& md, const std::string& value_key,
    ConstByteSpan plaintext, const Bytes& key, const Bytes& nonce,
    const std::vector<SecretShare>& shares, uint32_t counter) {
  // Same zero-copy pipeline as a monolithic write, at unit granularity: the
  // pooled arena keeps a stripe window's buffers cache-warm instead of
  // faulting in a fresh file-sized allocation.
  ErasureCodec codec(config_.n(), config_.k());
  ShardArena arena = codec.PrepareArena(plaintext.size(), &arena_pool_);
  ChaCha20::CryptInto(key, nonce, counter, plaintext, arena.payload());
  codec.ComputeParity(&arena);

  DepSkyStripeUnit stripe;
  stripe.content_hash = Sha256::Hash(plaintext);
  const unsigned shard_count = static_cast<unsigned>(clouds_.size());
  auto encode_object = [&](unsigned shard_index) -> Bytes {
    return DepSkyValueObject::EncodeParts(arena.shard(shard_index),
                                          shares[shard_index].index,
                                          shares[shard_index].data);
  };
  std::vector<Bytes> objects(shard_count);
  stripe.shard_hashes.resize(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    objects[i] = encode_object(i);
    stripe.shard_hashes[i] = Sha256::Hash(objects[i]);
  }
  auto placed = PlaceObjects(md, value_key, std::move(objects), encode_object);
  arena_pool_.Release(std::move(arena));
  RETURN_IF_ERROR(placed.status());
  stripe.cloud_shard = *std::move(placed);
  return stripe;
}

Result<uint64_t> DepSkyClient::WriteStripedVersion(const std::string& unit,
                                                   DepSkyMetadata md,
                                                   DepSkyVersion version,
                                                   ConstByteSpan data) {
  const size_t unit_size = config_.stripe_unit();
  const size_t unit_count = (data.size() + unit_size - 1) / unit_size;
  version.stripe_unit_size = unit_size;
  version.stripe_units.resize(unit_count);

  // One key, nonce and secret-sharing split for the whole file: share i rides
  // every unit's shard i, and each unit encrypts at its byte offset in the
  // file-wide keystream — the ciphertext equals a monolithic encryption.
  Bytes key = RandomBytesLocked(ChaCha20::kKeySize);
  version.nonce = RandomBytesLocked(ChaCha20::kNonceSize);
  Result<std::vector<SecretShare>> split = [&]() {
    std::lock_guard<std::mutex> lock(rng_mu_);
    return SecretSharing::Split(key, config_.n(), config_.k(), rng_);
  }();
  RETURN_IF_ERROR(split.status());
  const std::vector<SecretShare> shares = std::move(*split);

  // Bounded fan-out: a FIFO window of stripe_window() unit pipelines on the
  // executor (a window of one runs inline — a serial pipeline gains nothing
  // from an executor hop). Every launched task is drained before returning
  // (error paths included), so the by-reference captures below stay valid.
  const unsigned depth = config_.stripe_window();
  Status first_error = OkStatus();
  std::deque<std::pair<size_t, Future<Result<DepSkyStripeUnit>>>> window;
  auto drain_front = [&]() {
    auto [index, future] = std::move(window.front());
    window.pop_front();
    Result<DepSkyStripeUnit> placed = future.Get();
    if (placed.ok()) {
      version.stripe_units[index] = *std::move(placed);
    } else if (first_error.ok()) {
      first_error = placed.status();
    }
  };
  for (size_t u = 0; u < unit_count && first_error.ok(); ++u) {
    while (window.size() >= depth) {
      drain_front();
    }
    const size_t begin = u * unit_size;
    const size_t length = std::min(unit_size, data.size() - begin);
    const ConstByteSpan slice(data.data() + begin, length);
    const uint32_t counter = static_cast<uint32_t>(begin / 64);
    std::string value_key = StripeValueKey(unit, version.version, u);
    if (depth <= 1) {
      Result<DepSkyStripeUnit> placed = WriteStripeUnit(
          md, value_key, slice, key, version.nonce, shares, counter);
      if (placed.ok()) {
        version.stripe_units[u] = *std::move(placed);
      } else {
        first_error = placed.status();
      }
      continue;
    }
    window.emplace_back(
        u, SubmitTracked(&async_ops_, [this, &md, &key, &version, &shares,
                                       slice, counter,
                                       value_key = std::move(value_key)]() {
          return WriteStripeUnit(md, value_key, slice, key, version.nonce,
                                 shares, counter);
        }));
  }
  while (!window.empty()) {
    drain_front();
  }
  RETURN_IF_ERROR(first_error);

  md.versions.push_back(std::move(version));
  RETURN_IF_ERROR(PushMetadata(unit, md));
  return md.versions.back().version;
}

// Shared state of one in-flight shard fetch. Collectors (completion
// callbacks of the per-holder robust GETs) and the hedge timer all
// coordinate through `mu`; `done_promise` settles exactly once.
struct DepSkyClient::ShardFetchState {
  std::string unit;
  std::string value_key;
  unsigned k = 0;
  std::vector<unsigned> holders;     // latency-ordered launch sequence
  std::vector<int32_t> cloud_shard;  // copy: outlives the caller's metadata
  std::vector<Bytes> shard_hashes;
  VirtualTime started = 0;

  std::mutex mu;
  size_t next = 0;           // next holders[] entry to launch
  unsigned outstanding = 0;  // launched, not yet completed
  unsigned valid = 0;
  bool done = false;
  std::vector<std::optional<Bytes>> shards;  // by shard index
  std::vector<SecretShare> shares;
  Promise<Status> done_promise;
};

void DepSkyClient::LaunchShardGet(
    const std::shared_ptr<ShardFetchState>& state) {
  unsigned cloud = 0;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done || state->next >= state->holders.size()) {
      return;
    }
    cloud = state->holders[state->next++];
    state->outstanding++;
  }
  RobustGet(cloud, state->value_key)
      .OnReady([this, state, cloud](const Result<Bytes>& raw,
                                    VirtualDuration) {
        bool fetch_more = false;
        std::optional<Status> completion;
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->outstanding--;
          if (state->done) {
            return;  // straggler past the trigger
          }
          bool valid_shard = false;
          if (raw.ok()) {
            auto object = DepSkyValueObject::Decode(*raw);
            if (object.ok() && cloud < state->cloud_shard.size() &&
                state->cloud_shard[cloud] >= 0) {
              unsigned shard_index =
                  static_cast<unsigned>(state->cloud_shard[cloud]);
              if (shard_index < state->shard_hashes.size() &&
                  Sha256::Hash(*raw) == state->shard_hashes[shard_index]) {
                // Hash-valid over the full stored object: corrupted shards,
                // poisoned key shares and byzantine swaps never get here.
                if (!state->shards[shard_index].has_value()) {
                  state->shards[shard_index] = std::move(object->shard);
                  if (object->share_index != 0) {
                    state->shares.push_back(SecretShare{
                        object->share_index, object->share_data});
                  }
                  state->valid++;
                }
                valid_shard = true;
              }
            }
          }
          if (state->valid >= state->k) {
            state->done = true;
            completion = OkStatus();
          } else if (state->outstanding == 0 &&
                     state->next >= state->holders.size()) {
            state->done = true;
            completion = UnavailableError(
                "could not fetch enough valid shards for " + state->unit);
          } else if (!valid_shard || state->outstanding == 0) {
            fetch_more = true;  // failure-triggered: try the next holder now
          }
        }
        if (completion.has_value()) {
          state->done_promise.Set(*completion,
                                  env_->Now() - state->started);
        } else if (fetch_more) {
          LaunchShardGet(state);
        }
      });
}

void DepSkyClient::ArmHedgeTimer(
    const std::shared_ptr<ShardFetchState>& state) {
  if (!config_.hedged_reads) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done || state->next >= state->holders.size()) {
      return;
    }
  }
  // Weak capture: the timer must not keep the fetch alive past completion,
  // and a fire after completion degrades to a no-op.
  std::weak_ptr<ShardFetchState> weak = state;
  timers_.Schedule(env_->Now() + health_.HedgeDelay(), [this, weak] {
    auto alive = weak.lock();
    if (!alive) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(alive->mu);
      if (alive->done || alive->next >= alive->holders.size()) {
        return;
      }
    }
    hedged_reads_.fetch_add(1);
    LaunchShardGet(alive);
    ArmHedgeTimer(alive);  // chain: hedge again if still short of k
  });
}

Result<DepSkyClient::FetchedShards> DepSkyClient::FetchShards(
    const std::string& unit, const std::string& value_key, unsigned k,
    const std::vector<int32_t>& cloud_shard,
    const std::vector<Bytes>& shard_hashes) {
  // Clouds that hold a shard of this object, in cost order.
  std::vector<unsigned> holders;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (i < cloud_shard.size() && cloud_shard[i] >= 0) {
      holders.push_back(i);
    }
  }
  if (holders.size() < k) {
    return UnavailableError("not enough shard holders recorded");
  }

  auto state = std::make_shared<ShardFetchState>();
  state->unit = unit;
  state->value_key = value_key;
  state->k = k;
  // Fastest healthy holders first (the read waits for the k-th launched),
  // breaker-demoted ones at the back: a broken cloud is only asked once the
  // healthy ones cannot supply k valid shards.
  state->holders = health_.ReorderByLatency(holders, env_->Now());
  // Copies, not references: a straggler's collector may run after this
  // frame (and the caller's metadata) are gone.
  state->cloud_shard = cloud_shard;
  state->shard_hashes = shard_hashes;
  state->started = env_->Now();
  state->shards.resize(clouds_.size());

  // First wave: the k fastest healthy holders in parallel. Each unhelpful
  // reply (unreachable, timed out, corrupted, byzantine) triggers the next
  // unlaunched holder immediately; the hedge timer additionally launches
  // the (f+2)-th holder after an adaptive delay, so one quietly slow cloud
  // does not put its full straggler latency on the read path.
  for (unsigned i = 0; i < k; ++i) {
    LaunchShardGet(state);
  }
  ArmHedgeTimer(state);

  Status fetched = state->done_promise.future().Get();
  RETURN_IF_ERROR(fetched);

  FetchedShards out;
  {
    // Stragglers may still briefly hold the lock; they observe done and
    // leave the collected state alone.
    std::lock_guard<std::mutex> lock(state->mu);
    out.shards = std::move(state->shards);
    out.shares = std::move(state->shares);
  }
  return out;
}

Result<Bytes> DepSkyClient::FetchVersion(const std::string& unit,
                                         const DepSkyMetadata& md,
                                         const DepSkyVersion& version) {
  if (version.striped() && md.mode == DepSkyMode::kSecretSharing) {
    return FetchStripedVersion(unit, md, version);
  }
  const unsigned k = (md.mode == DepSkyMode::kSecretSharing) ? md.k : 1;
  ASSIGN_OR_RETURN(FetchedShards fetched,
                   FetchShards(unit, ValueKey(unit, version.version), k,
                               version.cloud_shard, version.shard_hashes));

  Bytes plaintext;
  if (md.mode == DepSkyMode::kSecretSharing) {
    // Reassemble into one buffer, then decrypt it in place: the ciphertext
    // buffer becomes the plaintext without a second allocation or pass.
    ErasureCodec codec(md.n, md.k);
    ASSIGN_OR_RETURN(plaintext, codec.Decode(fetched.shards));
    ASSIGN_OR_RETURN(Bytes key, SecretSharing::Combine(fetched.shares, md.k));
    ChaCha20::CryptInPlace(key, version.nonce, 0, ByteSpan(plaintext));
  } else {
    for (auto& shard : fetched.shards) {
      if (shard.has_value()) {
        plaintext = std::move(*shard);
        break;
      }
    }
  }

  // Final integrity check: the consistency-anchor hash must match.
  if (HexEncode(Sha1::Hash(plaintext)) != version.content_hash) {
    return CorruptionError("content hash mismatch for " + unit);
  }
  return plaintext;
}

Status DepSkyClient::FetchStripeUnit(const std::string& unit,
                                     const DepSkyMetadata& md,
                                     const DepSkyVersion& version,
                                     size_t stripe_index, ByteSpan out,
                                     bool verify_unit_hash) {
  const DepSkyStripeUnit& stripe = version.stripe_units[stripe_index];
  auto fetched_or = FetchShards(
      unit, StripeValueKey(unit, version.version, stripe_index), md.k,
      stripe.cloud_shard, stripe.shard_hashes);
  RETURN_IF_ERROR(fetched_or.status());
  FetchedShards& fetched = *fetched_or;

  // Decode into a pooled arena frame, then decrypt straight into the
  // caller's slice — the decrypt pass is also the move out of the arena.
  ErasureCodec codec(md.n, md.k);
  const size_t shard_size = codec.ShardSize(out.size());
  std::vector<std::optional<ConstByteSpan>> views(fetched.shards.size());
  for (size_t i = 0; i < fetched.shards.size(); ++i) {
    if (fetched.shards[i].has_value()) {
      views[i] = ConstByteSpan(*fetched.shards[i]);
    }
  }
  ShardArena arena = arena_pool_.Acquire(md.n, md.k, shard_size, out.size());
  ReedSolomon rs(md.n, md.k);
  Status decoded = rs.DecodeInto(views, shard_size,
                                 arena.mutable_data_region());
  if (!decoded.ok()) {
    arena_pool_.Release(std::move(arena));
    return decoded;
  }
  // The frame header must restate the unit length (hash-valid shards
  // guarantee it; a mismatch means the manifest and objects disagree).
  ByteReader header(arena.data_region());
  uint64_t framed_size = 0;
  if (!header.ReadU64(&framed_size) || framed_size != out.size()) {
    arena_pool_.Release(std::move(arena));
    return CorruptionError("stripe unit frame mismatch for " + unit);
  }

  auto key = SecretSharing::Combine(fetched.shares, md.k);
  if (!key.ok()) {
    arena_pool_.Release(std::move(arena));
    return key.status();
  }
  const uint32_t counter = static_cast<uint32_t>(
      stripe_index * version.stripe_unit_size / 64);
  ChaCha20::CryptInto(*key, version.nonce, counter,
                      ConstByteSpan(arena.payload()), out);
  arena_pool_.Release(std::move(arena));

  if (verify_unit_hash && Sha256::Hash(out) != stripe.content_hash) {
    return CorruptionError("stripe unit hash mismatch for " + unit);
  }
  return OkStatus();
}

Result<Bytes> DepSkyClient::FetchStripedVersion(const std::string& unit,
                                                const DepSkyMetadata& md,
                                                const DepSkyVersion& version) {
  const size_t unit_size = version.stripe_unit_size;
  const size_t unit_count = version.stripe_units.size();
  if (unit_count * unit_size < version.size) {
    return CorruptionError("stripe manifest shorter than version size");
  }
  Bytes plaintext(version.size);

  // Pipelined unit fetch+decode+decrypt: each unit writes its disjoint slice
  // of the output, at most stripe_window() units in flight (a window of one
  // runs inline). All launched tasks are drained before returning, so the
  // reference captures are safe.
  const unsigned depth = config_.stripe_window();
  Status first_error = OkStatus();
  std::deque<Future<Status>> window;
  auto drain_front = [&]() {
    Status s = window.front().Get();
    window.pop_front();
    if (!s.ok() && first_error.ok()) {
      first_error = s;
    }
  };
  for (size_t u = 0; u < unit_count && first_error.ok(); ++u) {
    while (window.size() >= depth) {
      drain_front();
    }
    const size_t begin = u * unit_size;
    const size_t length = std::min(unit_size, plaintext.size() - begin);
    const ByteSpan slice(plaintext.data() + begin, length);
    // The whole-file consistency-anchor hash is checked below; per-unit
    // hashes are for range reads that never see the whole file.
    if (depth <= 1) {
      Status s = FetchStripeUnit(unit, md, version, u, slice,
                                 /*verify_unit_hash=*/false);
      if (!s.ok()) {
        first_error = s;
      }
      continue;
    }
    window.push_back(
        SubmitTracked(&async_ops_, [this, &unit, &md, &version, u, slice]() {
          return FetchStripeUnit(unit, md, version, u, slice,
                                 /*verify_unit_hash=*/false);
        }));
  }
  while (!window.empty()) {
    drain_front();
  }
  RETURN_IF_ERROR(first_error);

  if (HexEncode(Sha1::Hash(plaintext)) != version.content_hash) {
    return CorruptionError("content hash mismatch for " + unit);
  }
  return plaintext;
}

Result<Bytes> DepSkyClient::ReadAnchored(
    const std::string& unit, const std::string& content_hash,
    const std::function<Result<Bytes>(const DepSkyMetadata&,
                                      const DepSkyVersion&)>& fetch) {
  ASSIGN_OR_RETURN(MetadataRead read, ReadMetadata(unit, content_hash));
  const DepSkyVersion* version = read.md.FindByHash(content_hash);
  if (version == nullptr) {
    return NotFoundError("version " + content_hash + " not visible yet");
  }
  Result<Bytes> data = fetch(read.md, *version);
  if (data.ok() || !read.early) {
    return data;
  }
  // The early-accepted copy named the right content but could not deliver
  // it: a stale-but-authentic shard map (scrub relocation), a GC'd version,
  // or a Byzantine cloud replaying an old copy. Settle the metadata at the
  // full n-f quorum once and fetch again.
  anchored_read_fallbacks_.fetch_add(1);
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  version = md.FindByHash(content_hash);
  if (version == nullptr) {
    return NotFoundError("version " + content_hash + " not visible yet");
  }
  return fetch(md, *version);
}

Result<Bytes> DepSkyClient::ReadAt(const std::string& unit,
                                   const std::string& content_hash,
                                   uint64_t offset, size_t length) {
  return ReadAnchored(unit, content_hash,
                      [&](const DepSkyMetadata& md,
                          const DepSkyVersion& version) {
                        return ReadRange(unit, md, version, offset, length);
                      });
}

Result<Bytes> DepSkyClient::ReadRange(const std::string& unit,
                                      const DepSkyMetadata& md,
                                      const DepSkyVersion& version,
                                      uint64_t offset, size_t length) {
  if (offset >= version.size || length == 0) {
    return Bytes{};
  }
  length = std::min<uint64_t>(length, version.size - offset);

  if (!version.striped() || md.mode != DepSkyMode::kSecretSharing) {
    ASSIGN_OR_RETURN(Bytes all, FetchVersion(unit, md, version));
    return Bytes(all.begin() + offset, all.begin() + offset + length);
  }

  // Fetch only the stripe units overlapping [offset, offset+length). Each
  // unit is decoded and decrypted in full (its recorded plaintext hash
  // covers the whole unit), then the overlap is copied out.
  const size_t unit_size = version.stripe_unit_size;
  const size_t first_unit = offset / unit_size;
  const size_t last_unit = (offset + length - 1) / unit_size;
  Bytes out(length);

  const unsigned depth = config_.stripe_window();
  Status first_error = OkStatus();
  std::deque<Future<Status>> window;
  auto drain_front = [&]() {
    Status s = window.front().Get();
    window.pop_front();
    if (!s.ok() && first_error.ok()) {
      first_error = s;
    }
  };
  auto fetch_unit = [this, &unit, &md, &version, unit_size, offset, length,
                     &out](size_t u) -> Status {
    const size_t begin = u * unit_size;
    const size_t unit_length =
        std::min<size_t>(unit_size, version.size - begin);
    Bytes buffer(unit_length);
    RETURN_IF_ERROR(FetchStripeUnit(unit, md, version, u, ByteSpan(buffer),
                                    /*verify_unit_hash=*/true));
    // Copy the overlap into the caller's range (disjoint per unit).
    const size_t copy_begin = std::max<size_t>(offset, begin);
    const size_t copy_end =
        std::min<size_t>(offset + length, begin + unit_length);
    std::copy(buffer.begin() + (copy_begin - begin),
              buffer.begin() + (copy_end - begin),
              out.begin() + (copy_begin - offset));
    return OkStatus();
  };
  for (size_t u = first_unit; u <= last_unit && first_error.ok(); ++u) {
    while (window.size() >= depth) {
      drain_front();
    }
    if (depth <= 1) {
      Status s = fetch_unit(u);
      if (!s.ok()) {
        first_error = s;
      }
      continue;
    }
    window.push_back(
        SubmitTracked(&async_ops_, [fetch_unit, u]() { return fetch_unit(u); }));
  }
  while (!window.empty()) {
    drain_front();
  }
  RETURN_IF_ERROR(first_error);
  return out;
}

Result<Bytes> DepSkyClient::ReadByHash(const std::string& unit,
                                       const std::string& content_hash) {
  return ReadAnchored(unit, content_hash,
                      [&](const DepSkyMetadata& md,
                          const DepSkyVersion& version) {
                        return FetchVersion(unit, md, version);
                      });
}

Result<Bytes> DepSkyClient::ReadLatest(const std::string& unit) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  const DepSkyVersion* version = md.Latest();
  if (version == nullptr) {
    return NotFoundError("no versions of " + unit);
  }
  return FetchVersion(unit, md, *version);
}

void DepSkyClient::ScrubObjectSet(const DepSkyMetadata& md,
                                  const std::string& value_key,
                                  const std::vector<Bytes>& shard_hashes,
                                  std::vector<int32_t>* cloud_shard,
                                  DepSkyScrubReport* report,
                                  bool* metadata_dirty) {
  // Probe every recorded holder in parallel through the robust GET path.
  std::vector<unsigned> holders;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (i < cloud_shard->size() && (*cloud_shard)[i] >= 0) {
      holders.push_back(i);
    }
  }
  std::vector<Future<Result<Bytes>>> probes;
  probes.reserve(holders.size());
  for (unsigned cloud : holders) {
    probes.push_back(RobustGet(cloud, value_key));
  }

  // Hash-check each reply exactly like the read path: the recorded hash
  // covers the complete stored object, so a poisoned key share or framing
  // swap reads as corrupt even when the shard bytes survive.
  std::vector<std::optional<DepSkyValueObject>> objects(clouds_.size());
  std::vector<unsigned> bad_holders;
  size_t shard_size = 0;
  for (size_t h = 0; h < holders.size(); ++h) {
    const unsigned cloud = holders[h];
    const unsigned shard = static_cast<unsigned>((*cloud_shard)[cloud]);
    report->objects_checked++;
    Result<Bytes> raw = probes[h].Get();
    bool valid = false;
    if (raw.ok() && shard < shard_hashes.size() &&
        Sha256::Hash(*raw) == shard_hashes[shard]) {
      auto object = DepSkyValueObject::Decode(*raw);
      if (object.ok()) {
        shard_size = object->shard.size();
        objects[cloud] = std::move(*object);
        valid = true;
      }
    }
    if (!valid) {
      report->objects_missing++;
      bad_holders.push_back(cloud);
    }
  }
  if (bad_holders.empty()) {
    return;
  }

  // Rebuild from the survivors. Any k hash-valid shards reproduce the whole
  // arena (data region + re-derived parity), and k key shares re-evaluate
  // the split polynomial at any lost share's x-coordinate — so the rebuilt
  // stored object is byte-identical to the original and must re-hash to the
  // recorded value before anything is uploaded.
  std::vector<std::optional<ConstByteSpan>> views(md.n);
  std::vector<SecretShare> shares;
  unsigned valid_count = 0;
  for (unsigned cloud = 0; cloud < clouds_.size(); ++cloud) {
    if (!objects[cloud].has_value()) {
      continue;
    }
    const unsigned shard = static_cast<unsigned>((*cloud_shard)[cloud]);
    if (shard < views.size()) {
      views[shard] = ConstByteSpan(objects[cloud]->shard);
    }
    if (objects[cloud]->share_index != 0) {
      shares.push_back(SecretShare{objects[cloud]->share_index,
                                   objects[cloud]->share_data});
    }
    ++valid_count;
  }
  if (valid_count < md.k || md.mode != DepSkyMode::kSecretSharing) {
    report->repair_failures += bad_holders.size();
    report->fully_redundant = false;
    return;
  }

  ShardArena arena = arena_pool_.Acquire(md.n, md.k, shard_size, 0);
  ReedSolomon rs(md.n, md.k);
  Status decoded =
      rs.DecodeInto(views, shard_size, arena.mutable_data_region());
  if (decoded.ok()) {
    rs.EncodeParity(arena.data_region(), shard_size, arena.parity_region());
  }

  for (unsigned cloud : bad_holders) {
    const unsigned shard = static_cast<unsigned>((*cloud_shard)[cloud]);
    if (!decoded.ok() || shard >= md.n || shard >= shard_hashes.size()) {
      report->repair_failures++;
      report->fully_redundant = false;
      continue;
    }
    // Share for shard s has x-coordinate s+1 (Split's convention).
    auto share =
        SecretSharing::RecoverShare(shares, md.k, static_cast<uint8_t>(shard + 1));
    if (!share.ok()) {
      report->repair_failures++;
      report->fully_redundant = false;
      continue;
    }
    auto object_bytes =
        std::make_shared<const Bytes>(DepSkyValueObject::EncodeParts(
            arena.shard(shard), share->index, share->data));
    if (Sha256::Hash(*object_bytes) != shard_hashes[shard]) {
      report->repair_failures++;
      report->fully_redundant = false;
      continue;
    }
    // In-place first: same holder, same key, no metadata change needed.
    Status put = RobustPut(cloud, value_key, object_bytes).Get();
    if (put.ok()) {
      ApplyAclsToObject(md, cloud, value_key);
      report->objects_repaired++;
      continue;
    }
    // Holder still down: relocate the shard to a cloud that holds nothing of
    // this object, and flip the map so the caller pushes it once.
    bool relocated = false;
    for (unsigned target = 0; target < clouds_.size(); ++target) {
      if (target < cloud_shard->size() && (*cloud_shard)[target] >= 0) {
        continue;
      }
      Status moved = RobustPut(target, value_key, object_bytes).Get();
      if (moved.ok()) {
        ApplyAclsToObject(md, target, value_key);
        (*cloud_shard)[cloud] = -1;
        (*cloud_shard)[target] = static_cast<int32_t>(shard);
        *metadata_dirty = true;
        report->objects_relocated++;
        relocated = true;
        break;
      }
    }
    if (!relocated) {
      report->repair_failures++;
      report->fully_redundant = false;
    }
  }
  arena_pool_.Release(std::move(arena));
}

Result<DepSkyScrubReport> DepSkyClient::ScrubUnit(const std::string& unit) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  DepSkyScrubReport report;
  bool metadata_dirty = false;
  for (auto& version : md.versions) {
    report.versions_checked++;
    if (version.striped()) {
      for (size_t u = 0; u < version.stripe_units.size(); ++u) {
        ScrubObjectSet(md, StripeValueKey(unit, version.version, u),
                       version.stripe_units[u].shard_hashes,
                       &version.stripe_units[u].cloud_shard, &report,
                       &metadata_dirty);
      }
    } else {
      ScrubObjectSet(md, ValueKey(unit, version.version),
                     version.shard_hashes, &version.cloud_shard, &report,
                     &metadata_dirty);
    }
  }
  if (metadata_dirty) {
    RETURN_IF_ERROR(PushMetadata(unit, md));
  }
  return report;
}

Status DepSkyClient::DeleteVersion(const std::string& unit, uint64_t version) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  auto it = std::find_if(md.versions.begin(), md.versions.end(),
                         [&](const DepSkyVersion& v) {
                           return v.version == version;
                         });
  if (it == md.versions.end()) {
    return NotFoundError("version not in metadata");
  }
  // Collect the value keys before erasing: a striped version owns one object
  // per stripe unit instead of a single monolithic object.
  std::vector<std::string> value_keys;
  if (it->striped()) {
    for (size_t u = 0; u < it->stripe_units.size(); ++u) {
      value_keys.push_back(StripeValueKey(unit, version, u));
    }
  } else {
    value_keys.push_back(ValueKey(unit, version));
  }
  md.versions.erase(it);
  RETURN_IF_ERROR(PushMetadata(unit, md));

  std::vector<Future<Status>> futures;
  futures.reserve(clouds_.size() * value_keys.size());
  for (const auto& value_key : value_keys) {
    for (unsigned i = 0; i < clouds_.size(); ++i) {
      futures.push_back(
          clouds_[i].store->DeleteAsync(clouds_[i].creds, value_key));
    }
  }
  WhenAll<Status>(std::move(futures)).Join();
  return OkStatus();  // best effort: missing replicas are fine
}

Status DepSkyClient::DeleteUnit(const std::string& unit) {
  auto md = ReadMetadata(unit);
  if (md.ok()) {
    // Delete value objects for every version first (one per stripe unit for
    // striped versions, one monolithic object otherwise).
    std::vector<std::string> value_keys;
    for (const auto& v : md->versions) {
      if (v.striped()) {
        for (size_t u = 0; u < v.stripe_units.size(); ++u) {
          value_keys.push_back(StripeValueKey(unit, v.version, u));
        }
      } else {
        value_keys.push_back(ValueKey(unit, v.version));
      }
    }
    for (const auto& value_key : value_keys) {
      for (unsigned i = 0; i < clouds_.size(); ++i) {
        (void)clouds_[i].store->Delete(clouds_[i].creds, value_key);
      }
    }
  }
  const std::string md_key = MetadataKey(unit);
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    (void)clouds_[i].store->Delete(clouds_[i].creds, md_key);
  }
  return OkStatus();
}

Status DepSkyClient::SetGrant(const std::string& unit,
                              const DepSkyGrant& grant) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  // Replace an existing grant for the same principal ids, else append.
  auto it = std::find_if(md.grants.begin(), md.grants.end(),
                         [&](const DepSkyGrant& g) {
                           return g.cloud_ids == grant.cloud_ids;
                         });
  if (it != md.grants.end()) {
    if (!grant.read && !grant.write) {
      md.grants.erase(it);
    } else {
      *it = grant;
    }
  } else if (grant.read || grant.write) {
    md.grants.push_back(grant);
  }

  // Apply to the metadata object and to every existing version object.
  RETURN_IF_ERROR(PushMetadata(unit, md));
  ObjectPermissions perms;
  perms.read = grant.read;
  perms.write = grant.write;
  for (const auto& version : md.versions) {
    std::vector<std::string> value_keys;
    if (version.striped()) {
      for (size_t u = 0; u < version.stripe_units.size(); ++u) {
        value_keys.push_back(StripeValueKey(unit, version.version, u));
      }
    } else {
      value_keys.push_back(ValueKey(unit, version.version));
    }
    for (const auto& value_key : value_keys) {
      for (unsigned i = 0; i < clouds_.size(); ++i) {
        if (i < grant.cloud_ids.size() && !grant.cloud_ids[i].empty()) {
          (void)clouds_[i].store->SetAcl(clouds_[i].creds, value_key,
                                         grant.cloud_ids[i], perms);
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace scfs
