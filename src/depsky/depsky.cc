#include "src/depsky/depsky.h"

#include <algorithm>
#include <cstdio>
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
             std::function<T()> timeout_value,
             std::function<void()> on_first_failure = nullptr)
      : ctx_(ctx),
        cloud_(cloud),
        issue_(std::move(issue)),
        responsive_(std::move(responsive)),
        timeout_value_(std::move(timeout_value)),
        on_first_failure_(std::move(on_first_failure)) {}

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
    if (attempt == 0 && on_first_failure_) {
      on_first_failure_();
    }
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
  std::function<void()> on_first_failure_;
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

// Every value object of one version: one per unit.
std::vector<std::string> VersionValueKeys(const std::string& unit,
                                          const DepSkyVersion& version) {
  std::vector<std::string> keys;
  for (size_t u = 0; u < version.stripe_units.size(); ++u) {
    keys.push_back(DepSkyClient::ValueKey(unit, version, u));
  }
  return keys;
}

}  // namespace

// Authentic metadata copies collected by a read's quorum predicate. The
// predicate runs serialized under the combinator's lock and never after the
// trigger, so this state needs no further synchronization.
struct DepSkyClient::MetadataReplies {
  std::vector<std::optional<DepSkyMetadata>> entries;
  unsigned authentic = 0;
  unsigned answered = 0;  // clouds that answered at all (NOT_FOUND included)
  unsigned foreign = 0;   // authentic copies of another n, k or mode

  // Authentic copies listing the version named `object_id`.
  unsigned Listing(uint64_t object_id) const {
    return static_cast<unsigned>(std::count_if(
        entries.begin(), entries.end(),
        [&](const std::optional<DepSkyMetadata>& entry) {
          return entry.has_value() &&
                 std::any_of(entry->versions.begin(), entry->versions.end(),
                             [&](const DepSkyVersion& v) {
                               return v.object_id == object_id;
                             });
        }));
  }
};

// The metadata one write appends to, settled once from the write's
// overlapped metadata read by whichever of the write's threads needs it
// first: the write itself, or the first stripe unit to reach its ACLs.
class DepSkyClient::WriteBase {
 public:
  WriteBase(DepSkyClient* client, PendingMetadataRead read,
            const std::vector<DepSkyGrant>* merge_grants,
            const DepSkyVersion* predecessor)
      : client_(client),
        read_(std::move(read)),
        merge_grants_(merge_grants),
        predecessor_(predecessor) {
    if (merge_grants != nullptr) {
      caller_acls_.grants = *merge_grants;
    }
  }

  // The unit's history — or, on NOT_FOUND, a fresh record owned by this
  // client — with the write's grants merged in; or the read's error. The
  // first call waits for the read and is charged what it took beyond
  // `overlapped`; later calls return the same outcome at no charge.
  Result<std::shared_ptr<const DepSkyMetadata>> Get(
      VirtualDuration overlapped) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!settled_.has_value()) {
      settled_ = Settle(overlapped);
    }
    return *settled_;
  }

  // The ACLs a write applies before it returns: the caller's grants only,
  // known without the metadata.
  const DepSkyMetadata& caller_acls() const { return caller_acls_; }
  // The ACLs the write-behind applies: the owner ids and the stored grants
  // the caller's grants do not replace. Valid once Get succeeded.
  std::shared_ptr<const DepSkyMetadata> behind_acls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return behind_acls_;
  }
  // How many of the authentic copies the read settled on list the
  // predecessor. Valid once Get returned.
  unsigned predecessor_copies() const {
    std::lock_guard<std::mutex> lock(mu_);
    return predecessor_copies_;
  }

 private:
  Result<std::shared_ptr<const DepSkyMetadata>> Settle(
      VirtualDuration overlapped) {
    // Counted before the settle moves the chosen copy out.
    read_.settled.Wait();
    if (predecessor_ != nullptr) {
      predecessor_copies_ = read_.replies->Listing(predecessor_->object_id);
    }
    auto read = client_->SettleMetadataRead(std::move(read_), overlapped);
    DepSkyMetadata md;
    if (read.ok()) {
      md = std::move(read->md);
    } else if (read.status().code() == ErrorCode::kNotFound) {
      const DepSkyConfig& config = client_->config_;
      md.n = config.n();
      md.k = config.k();
      md.mode = config.mode;
      for (const auto& cloud : client_->clouds_) {
        md.owner_ids.push_back(cloud.creds.canonical_id);
      }
    } else {
      return read.status();
    }
    auto behind = std::make_shared<DepSkyMetadata>();
    behind->owner_ids = md.owner_ids;
    for (const auto& grant : md.grants) {
      const bool replaced =
          merge_grants_ != nullptr &&
          std::any_of(merge_grants_->begin(), merge_grants_->end(),
                      [&](const DepSkyGrant& g) {
                        return g.cloud_ids == grant.cloud_ids;
                      });
      if (!replaced) {
        behind->grants.push_back(grant);
      }
    }
    behind_acls_ = std::move(behind);
    if (merge_grants_ != nullptr) {
      for (const auto& grant : *merge_grants_) {
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
    return std::make_shared<const DepSkyMetadata>(std::move(md));
  }

  DepSkyClient* client_;
  PendingMetadataRead read_;  // moved out by the settle
  const std::vector<DepSkyGrant>* merge_grants_;
  const DepSkyVersion* predecessor_;
  unsigned predecessor_copies_ = 0;
  DepSkyMetadata caller_acls_;
  mutable std::mutex mu_;
  std::optional<Result<std::shared_ptr<const DepSkyMetadata>>> settled_;
  std::shared_ptr<const DepSkyMetadata> behind_acls_;
};

namespace {

// Salt of a client's object ids: the seed, the client's creation order in
// the process and every canonical id it writes as.
uint64_t ObjectIdSalt(uint64_t seed, const std::vector<DepSkyCloud>& clouds) {
  static std::atomic<uint64_t> clients_created{0};
  uint64_t salt = MixSeed(seed, clients_created.fetch_add(1));
  for (const auto& cloud : clouds) {
    salt = MixSeed(salt, std::hash<std::string>{}(cloud.creds.canonical_id));
  }
  return salt;
}

}  // namespace

DepSkyClient::DepSkyClient(Environment* env, std::vector<DepSkyCloud> clouds,
                           DepSkyConfig config, uint64_t seed)
    : env_(env),
      clouds_(std::move(clouds)),
      config_(config),
      rng_(seed),
      object_id_salt_(ObjectIdSalt(seed, clouds_)),
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
        {
          std::lock_guard<std::mutex> lock(puts_in_flight_->mu);
          puts_in_flight_->keys.insert(key);
        }
        Future<Status> put =
            clouds_[cloud].store->PutAsync(clouds_[cloud].creds, key, data);
        put.OnReady([puts = puts_in_flight_, key](const Status&,
                                                  VirtualDuration) {
          std::lock_guard<std::mutex> lock(puts->mu);
          puts->keys.erase(puts->keys.find(key));
          puts->cv.notify_all();
        });
        return put;
      },
      [](const Status& s) { return ResponsiveStatus(s); },
      [key]() { return TimeoutError("deadline expired: PUT " + key); });
  return call->Start();
}

Future<Result<Bytes>> DepSkyClient::RobustGet(
    unsigned cloud, const std::string& key,
    std::function<void()> on_first_failure) {
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
      },
      std::move(on_first_failure));
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

std::string DepSkyClient::ValueKey(const std::string& unit,
                                   const DepSkyVersion& version,
                                   size_t index) {
  char id[17];
  std::snprintf(id, sizeof(id), "%016llx",
                static_cast<unsigned long long>(version.object_id));
  return "du/" + unit + "/o" + id + "/u" + std::to_string(index);
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
  return SettleMetadataRead(LaunchMetadataRead(unit, anchor), 0);
}

DepSkyClient::PendingMetadataRead DepSkyClient::LaunchMetadataRead(
    const std::string& unit, const std::string& anchor) {
  const std::string key = MetadataKey(unit);
  // Fan the GET out to every cloud through the async API; the settle step
  // waits only until the read is settled — the protocol only needs n-f
  // replies, and waiting for the slowest cloud is exactly the latency the
  // paper's quorum design avoids.
  std::vector<Future<Result<Bytes>>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustGet(i, key));
  }
  // The predicate authenticates each reply once, keeps the decoded copy, and
  // says whether this reply settles the read: the (n-f)-th authentic copy,
  // or, for an anchored read, the first authentic copy that lists the
  // anchor.
  auto replies = std::make_shared<MetadataReplies>();
  replies->entries.resize(clouds_.size());
  const Bytes auth_key = config_.auth_key;
  const unsigned quorum = config_.quorum();
  const unsigned n = config_.n();
  const unsigned k = config_.k();
  const DepSkyMode mode = config_.mode;
  auto settled = WhenQuorum<Result<Bytes>>(
      std::move(futures), 1,
      [replies, auth_key, anchor, quorum, n, k, mode](
          size_t i, const Result<Bytes>& raw) {
        if (!raw.ok()) {
          replies->answered += ResponsiveStatus(raw.status()) ? 1 : 0;
          return false;
        }
        ++replies->answered;
        auto md = DepSkyMetadata::Decode(*raw, auth_key);
        if (!md.ok()) {
          return false;  // corrupted/forged copy: skip
        }
        if (md->n != n || md->k != k || md->mode != mode) {
          // Written under another f or mode. Fetch and scrub code with this
          // client's n, k and mode (the record carries neither), so the
          // copy is unusable here.
          ++replies->foreign;
          return false;
        }
        const bool lists_anchor =
            !anchor.empty() && md->FindByHash(anchor) != nullptr;
        replies->entries[i] = std::move(*md);
        ++replies->authentic;
        return lists_anchor || replies->authentic >= quorum;
      });
  return PendingMetadataRead{unit, anchor, std::move(replies),
                             std::move(settled)};
}

Result<DepSkyClient::MetadataRead> DepSkyClient::SettleMetadataRead(
    PendingMetadataRead pending, VirtualDuration overlapped) {
  pending.settled.Wait();
  Environment::AddThreadCharge(
      std::max<VirtualDuration>(0, pending.settled.charge() - overlapped));

  // Keep the highest *authenticated* version view among the replies —
  // among those listing the anchor, if any does. Byzantine clouds cannot
  // forge the HMAC; at worst they serve an old copy, which loses the
  // max-version vote as long as one honest fresh copy is in the quorum, and
  // an old copy that still lists the anchor names immutable content.
  const std::string& anchor = pending.anchor;
  std::optional<DepSkyMetadata>* best = nullptr;
  std::pair<bool, uint64_t> best_rank;
  for (auto& entry : pending.replies->entries) {
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
  // Unless a copy listing the anchor settled it, a read that fewer than n-f
  // clouds answered proves nothing — neither the latest version nor that
  // the unit does not exist. A write must not number itself (or start a
  // fresh history) from it.
  const unsigned quorum = config_.quorum();
  if ((best == nullptr || !best_rank.first) &&
      pending.replies->answered < quorum) {
    return UnavailableError("metadata read quorum not reached for " +
                            pending.unit);
  }
  if (best == nullptr) {
    if (pending.replies->foreign > 0) {
      // Not "no metadata": a write must not start a fresh history over it.
      return FailedPreconditionError("metadata of " + pending.unit +
                                     " was written under another n, k or "
                                     "mode");
    }
    return NotFoundError("no metadata for " + pending.unit);
  }
  return MetadataRead{std::move(**best), pending.replies->authentic < quorum};
}

Status DepSkyClient::PushMetadata(const std::string& unit,
                                  const DepSkyMetadata& md) {
  return SettleMetadataPush(unit, md, LaunchMetadataPush(unit, md));
}

std::vector<Future<Status>> DepSkyClient::LaunchMetadataPush(
    const std::string& unit, const DepSkyMetadata& md) {
  const std::string key = MetadataKey(unit);
  auto encoded = std::make_shared<const Bytes>(md.Encode(config_.auth_key));
  std::vector<Future<Status>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustPut(i, key, encoded));
  }
  return futures;
}

Status DepSkyClient::SettleMetadataPush(
    const std::string& unit, const DepSkyMetadata& md,
    const std::vector<Future<Status>>& futures) {
  const std::string key = MetadataKey(unit);
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

Result<DepSkyVersion> DepSkyClient::WriteVersion(
    const std::string& unit, const std::string& content_hash,
    ConstByteSpan data, const std::vector<DepSkyGrant>* merge_grants) {
  ASSIGN_OR_RETURN(DepSkyWrite write,
                   StartWrite(unit, content_hash, data, merge_grants));
  RETURN_IF_ERROR(write.finish(std::nullopt).Get());
  return std::move(write.record);
}

VirtualDuration DepSkyClient::RequestBudget() const {
  // Every attempt may run to its deadline, and each retry first waits at
  // most the uncapped-jitter backoff delay.
  BackoffPolicy longest = config_.retry_backoff;
  longest.jitter = 0;
  Rng unused(0);
  const int attempts = std::max(1, config_.max_attempts);
  VirtualDuration budget = 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    budget += config_.request_deadline;
    if (attempt + 1 < attempts) {
      budget += longest.Delay(attempt, unused);
    }
  }
  return budget;
}

VirtualDuration DepSkyClient::HandoffBound() const {
  return config_.request_deadline;
}

Result<DepSkyWrite> DepSkyClient::StartWrite(
    const std::string& unit, const std::string& content_hash,
    ConstByteSpan data, const std::vector<DepSkyGrant>* merge_grants,
    const DepSkyVersion* predecessor) {
  const VirtualTime started = env_->Now();
  // Steps 1-2: start reading the version history, and name the objects by a
  // fresh id. The read settles once the shards are encoded and PUT: the
  // version number, history, owner ids and grants depend on it, the shards
  // do not. Its copies listing the predecessor are counted for the
  // write-behind.
  WriteBase base(this, LaunchMetadataRead(unit, std::string()), merge_grants,
                 predecessor);
  DepSkyVersion version;
  version.object_id = MixSeed(object_id_salt_, objects_named_.fetch_add(1));
  version.content_hash = content_hash;
  version.size = data.size();
  const size_t unit_size = config_.stripe_unit();
  version.stripe_unit_size = unit_size;
  version.stripe_units.resize(DepSkyVersion::UnitCount(data.size(), unit_size));

  // Step 3 (Figure 6), once for the whole file: one key, nonce and
  // secret-sharing split. Share i rides every unit's shard i, and each unit
  // encrypts at its byte offset in the file-wide keystream.
  Bytes key;
  std::vector<SecretShare> shares;
  if (config_.mode == DepSkyMode::kSecretSharing) {
    key = RandomBytesLocked(ChaCha20::kKeySize);
    version.nonce = RandomBytesLocked(ChaCha20::kNonceSize);
    Result<std::vector<SecretShare>> split = [&]() {
      std::lock_guard<std::mutex> lock(rng_mu_);
      return SecretSharing::Split(key, config_.n(), config_.k(), rng_);
    }();
    RETURN_IF_ERROR(split.status());
    shares = std::move(*split);
  }

  // Step 4 per unit. The first window starts while the metadata read is in
  // flight; the first unit to reach its ACLs settles it.
  RETURN_IF_ERROR(ForEachUnit(
      0, version.stripe_units.size(), [&](size_t u) -> Status {
        const size_t begin = u * unit_size;
        ASSIGN_OR_RETURN(
            version.stripe_units[u],
            WriteStripeUnit(&base, ValueKey(unit, version, u),
                            data.subspan(begin, unit_size), key,
                            version.nonce, shares,
                            static_cast<uint32_t>(begin / 64)));
        return OkStatus();
      }));

  // Step 5: number the version after the highest one read and after the
  // predecessor (whose metadata may not have landed yet), and hand the
  // metadata to the write-behind.
  ASSIGN_OR_RETURN(std::shared_ptr<const DepSkyMetadata> md, base.Get(0));
  version.version = md->NextVersionNumber();
  std::optional<DepSkyVersion> pred;
  if (predecessor != nullptr) {
    pred = *predecessor;
    version.version = std::max(version.version, pred->version + 1);
  }
  // The straggler invariant: the predecessor's metadata PUT must be on n-f
  // clouds before this one is launched, so at most f clouds can end up
  // with the older history on top. Its finish launched all of its
  // requests at most HandoffBound() after this write started (the handoff
  // contract, depsky.h), so a RequestBudget() after that none of them can
  // still land.
  if (pred.has_value()) {
    AwaitListed(unit, base.predecessor_copies(), pred->object_id,
                started + RequestBudget() + HandoffBound());
  }
  DepSkyWrite write;
  write.record = version;
  write.finish = [this, unit, md, acls = base.behind_acls(),
                  pred = std::move(pred), version = std::move(version)](
                     std::optional<VirtualTime> handed_off) {
    return FinishWrite(unit, *md, *acls, pred, version, handed_off);
  };
  return write;
}

Future<Status> DepSkyClient::FinishWrite(
    const std::string& unit, const DepSkyMetadata& md,
    const DepSkyMetadata& acls, const std::optional<DepSkyVersion>& pred,
    const DepSkyVersion& version, std::optional<VirtualTime> handed_off) {
  // The successor's listing wait counts on this launch coming at most
  // HandoffBound() after the handoff, hence after its start. Later, its
  // own PUT may already be out: launch nothing, and leave the listing to
  // the successor's merge, as for a writer that crashed before its finish.
  if (handed_off.has_value() && HandoffBound() > 0 &&
      env_->Now() - *handed_off > HandoffBound()) {
    late_handoffs_.fetch_add(1);
    return Future<Status>::Ready(
        TimeoutError("handoff of " + unit + " acknowledged too late to list "
                     "its version; the next write lists it"));
  }
  // History ∪ predecessor ∪ this version, in version order.
  auto merged = std::make_shared<DepSkyMetadata>(md);
  if (pred.has_value() &&
      std::none_of(merged->versions.begin(), merged->versions.end(),
                   [&](const DepSkyVersion& v) {
                     return v.object_id == pred->object_id;
                   })) {
    auto at = std::upper_bound(merged->versions.begin(),
                               merged->versions.end(), pred->version,
                               [](uint64_t number, const DepSkyVersion& v) {
                                 return number < v.version;
                               });
    merged->versions.insert(at, *pred);
  }
  merged->versions.push_back(version);
  // Launched before returning: the PUT, and alongside it the ACLs the
  // metadata adds, on every acknowledged object.
  std::vector<Future<Status>> puts = LaunchMetadataPush(unit, *merged);
  std::vector<Future<Status>> acl_futures;
  for (size_t u = 0; u < version.stripe_units.size(); ++u) {
    const std::vector<int32_t>& cloud_shard =
        version.stripe_units[u].cloud_shard;
    for (unsigned cloud = 0; cloud < cloud_shard.size(); ++cloud) {
      if (cloud_shard[cloud] >= 0) {
        CollectAclFutures(acls, cloud, ValueKey(unit, version, u),
                          &acl_futures);
      }
    }
  }
  return SubmitTracked(&async_ops_, [this, unit, merged, puts, acl_futures]() {
    Status pushed = SettleMetadataPush(unit, *merged, puts);
    WhenAll<Status>(acl_futures).Join();  // max-of-clouds
    return pushed;
  });
}

void DepSkyClient::AwaitListed(const std::string& unit, unsigned listed,
                               uint64_t object_id, VirtualTime deadline) {
  const unsigned quorum = config_.quorum();
  if (listed >= quorum) {
    return;  // steady state: the write's own read saw it
  }
  predecessor_rereads_.fetch_add(1);
  for (int attempt = 0;; ++attempt) {
    PendingMetadataRead reread = LaunchMetadataRead(unit, std::string());
    reread.settled.Wait();
    Environment::AddThreadCharge(reread.settled.charge());
    if (reread.replies->Listing(object_id) >= quorum) {
      return;
    }
    const VirtualTime now = env_->Now();
    if (now >= deadline) {
      predecessor_budget_waits_.fetch_add(1);
      return;
    }
    VirtualDuration delay;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      delay = config_.retry_backoff.Delay(attempt, rng_);
    }
    env_->Sleep(delay > 0 ? std::min(delay, deadline - now) : deadline - now);
  }
}

Status DepSkyClient::ForEachUnit(
    size_t begin, size_t end, const std::function<Status(size_t)>& body) {
  const unsigned depth = config_.stripe_window();
  Status first_error = OkStatus();
  if (end - begin <= 1 || depth <= 1) {
    // Serial: an executor hop would only add a context switch.
    for (size_t i = begin; i < end && first_error.ok(); ++i) {
      first_error = body(i);
    }
    return first_error;
  }
  std::deque<Future<Status>> window;
  auto drain_front = [&]() {
    Status s = window.front().Get();
    window.pop_front();
    if (!s.ok() && first_error.ok()) {
      first_error = s;
    }
  };
  for (size_t i = begin; i < end && first_error.ok(); ++i) {
    while (window.size() >= depth) {
      drain_front();
    }
    window.push_back(
        SubmitTracked(&async_ops_, [&body, i]() { return body(i); }));
  }
  while (!window.empty()) {
    drain_front();
  }
  return first_error;
}

Result<std::vector<int32_t>> DepSkyClient::PlaceObjects(
    WriteBase* base, const std::string& value_key,
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
  Future<QuorumResult<Status>> wave = WhenQuorum<Status>(
      futures, quorum, [](size_t, const Status& s) { return s.ok(); });
  QuorumResult<Status> acks = wave.Get();
  // The version number needs the history: settle the write's metadata
  // read, which ran alongside the wave and is charged only beyond it. A
  // failed read fails the write; nothing has been published. Only the
  // caller's grants are applied before the write returns; the ACLs the
  // metadata adds ride the write-behind.
  ASSIGN_OR_RETURN(std::shared_ptr<const DepSkyMetadata> md_shared,
                   base->Get(wave.charge()));
  const DepSkyMetadata& acls = base->caller_acls();
  unsigned successes = 0;
  std::vector<unsigned> failed_shards;
  std::vector<Future<Status>> acl_futures;
  for (size_t i = 0; i < preferred.size(); ++i) {
    unsigned cloud = preferred[i];
    if (!acks.results[i].has_value()) {
      // Still in flight past the quorum: not recorded as a holder, but its
      // object (if the PUT lands) still gets every grant.
      ApplyAclsWhenWritten(futures[i], cloud, md_shared, value_key);
      continue;
    }
    if (acks.results[i]->ok()) {
      cloud_shard[cloud] = static_cast<int32_t>(cloud);
      CollectAclFutures(acls, cloud, value_key, &acl_futures);
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
      ApplyAclsToObject(acls, spare, value_key);
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
    WriteBase* base, const std::string& value_key,
    ConstByteSpan plaintext, const Bytes& key, const Bytes& nonce,
    const std::vector<SecretShare>& shares, uint32_t counter) {
  // Zero-copy: the plaintext is encrypted straight into the pooled arena's
  // framed data region (the systematic shards alias that frame), parity is
  // derived in place, and shard hashing and wire-object serialization read
  // arena views. The pool keeps a window's buffers cache-warm. In
  // replication mode every object wraps the caller's plaintext.
  std::optional<ShardArena> arena;
  if (config_.mode == DepSkyMode::kSecretSharing) {
    ErasureCodec codec(config_.n(), config_.k());
    arena = codec.PrepareArena(plaintext.size(), &arena_pool_);
    ChaCha20::CryptInto(key, nonce, counter, plaintext, arena->payload());
    codec.ComputeParity(&*arena);
  }

  DepSkyStripeUnit stripe;
  stripe.content_hash = Sha256::Hash(plaintext);
  auto encode_object = [&](unsigned shard_index) -> Bytes {
    // The shard bytes move from the arena (or the caller's plaintext) to the
    // wire buffer in this one serialization copy.
    if (!arena) {
      return DepSkyValueObject::EncodeParts(plaintext, 0, {});
    }
    return DepSkyValueObject::EncodeParts(arena->shard(shard_index),
                                          shares[shard_index].index,
                                          shares[shard_index].data);
  };
  // The recorded hash covers the complete stored object — shard AND key
  // share AND framing — so a faulty cloud cannot slip a poisoned key share
  // past the check by leaving the shard untouched. Share i always rides
  // with shard i, fallback writes included, so the hash per shard index is
  // well-defined.
  const unsigned shard_count = static_cast<unsigned>(clouds_.size());
  std::vector<Bytes> objects(shard_count);
  stripe.shard_hashes.resize(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    objects[i] = encode_object(i);
    stripe.shard_hashes[i] = Sha256::Hash(objects[i]);
  }
  auto placed =
      PlaceObjects(base, value_key, std::move(objects), encode_object);
  if (arena) {
    arena_pool_.Release(std::move(*arena));
  }
  RETURN_IF_ERROR(placed.status());
  stripe.cloud_shard = *std::move(placed);
  return stripe;
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
    const std::shared_ptr<ShardFetchState>& state, unsigned count) {
  // Every holder of the batch is claimed before any GET is issued: a reply
  // that arrives while the batch is still being issued must count the whole
  // batch as outstanding, or it would launch a holder beyond it.
  std::vector<unsigned> claimed;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    while (claimed.size() < count && !state->done &&
           state->next < state->holders.size()) {
      claimed.push_back(state->holders[state->next++]);
      state->outstanding++;
    }
  }
  for (unsigned cloud : claimed) {
    // A holder that fails an attempt is replaced at once by the next holder,
    // while its own retry still runs: failing over costs one round trip to
    // the failed cloud, not its retry backoff and a second round trip.
    auto replaced = std::make_shared<std::atomic<bool>>(false);
    RobustGet(cloud, state->value_key,
              [this, state, replaced] {
                replaced->store(true);
                LaunchShardGet(state);
              })
        .OnReady([this, state, cloud, replaced](const Result<Bytes>& raw,
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
            } else if ((!valid_shard && !replaced->load()) ||
                       state->outstanding == 0) {
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
    const DepSkyStripeUnit& stripe) {
  const std::vector<int32_t>& cloud_shard = stripe.cloud_shard;
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
  state->shard_hashes = stripe.shard_hashes;
  state->started = env_->Now();
  state->shards.resize(clouds_.size());

  // First wave: the k fastest healthy holders in parallel. Each unhelpful
  // reply (unreachable, timed out, corrupted, byzantine) triggers the next
  // unlaunched holder immediately; the hedge timer additionally launches
  // the (f+2)-th holder after an adaptive delay, so one quietly slow cloud
  // does not put its full straggler latency on the read path.
  LaunchShardGet(state, k);
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
                                         const DepSkyVersion& version) {
  // Each unit decodes into its disjoint slice of one buffer. The buffer is
  // sized only once a unit's shards have bounded the record's claims: a
  // full unit bounds the unit size, and so the file to the units the record
  // lists; the only unit of a one-unit version bounds the size itself. The
  // last unit of a longer version, if it comes in first, decodes aside.
  // The whole-file consistency-anchor hash is checked below; per-unit
  // hashes are for range reads that never see the whole file.
  const size_t count = version.stripe_units.size();
  const size_t unit_size = version.stripe_unit_size;
  std::mutex mu;
  Bytes plaintext;
  bool sized = false;
  Bytes last_unit;
  RETURN_IF_ERROR(ForEachUnit(0, count, [&](size_t u) {
    return FetchStripeUnit(
        unit, version, u,
        [&](size_t length) {
          std::lock_guard<std::mutex> lock(mu);
          if (!sized && (count == 1 || u + 1 < count)) {
            plaintext.resize(version.size);
            sized = true;
          }
          if (!sized) {
            last_unit.resize(length);
            return ByteSpan(last_unit);
          }
          return ByteSpan(plaintext).subspan(u * unit_size, length);
        },
        /*verify_unit_hash=*/false);
  }));
  std::copy(last_unit.begin(), last_unit.end(),
            plaintext.begin() + (count - 1) * unit_size);
  if (HexEncode(Sha1::Hash(plaintext)) != version.content_hash) {
    return CorruptionError("content hash mismatch for " + unit);
  }
  return plaintext;
}

Status DepSkyClient::FetchStripeUnit(
    const std::string& unit, const DepSkyVersion& version,
    size_t stripe_index, const std::function<ByteSpan(size_t)>& out_for,
    bool verify_unit_hash) {
  const DepSkyStripeUnit& stripe = version.stripe_units[stripe_index];
  const size_t length = static_cast<size_t>(std::min<uint64_t>(
      version.stripe_unit_size,
      version.size - stripe_index * version.stripe_unit_size));
  const bool secret_sharing = config_.mode == DepSkyMode::kSecretSharing;
  const unsigned n = config_.n();
  const unsigned k = secret_sharing ? config_.k() : 1;
  ASSIGN_OR_RETURN(
      FetchedShards fetched,
      FetchShards(unit, ValueKey(unit, version, stripe_index), k, stripe));
  // Hash-valid shards are what the writer stored, so they bound the unit:
  // a record claiming another length is corrupt, and nothing is sized by
  // its claim before this check.
  size_t shard_size = 0;
  for (const auto& shard : fetched.shards) {
    if (shard.has_value()) {
      shard_size = shard->size();
      break;
    }
  }
  ErasureCodec codec(n, k);
  const bool bounded = secret_sharing
                           ? length <= k * shard_size &&
                                 codec.ShardSize(length) == shard_size
                           : length == shard_size;
  if (!bounded) {
    return CorruptionError("unit size does not match its shards for " + unit);
  }
  ByteSpan out = out_for(length);

  if (!secret_sharing) {
    // Any hash-valid replica is the unit's plaintext.
    for (const auto& replica : fetched.shards) {
      if (replica.has_value()) {
        std::copy(replica->begin(), replica->end(), out.begin());
        break;
      }
    }
  } else {
    // Decode into a pooled arena frame, then decrypt straight into the
    // caller's slice — the decrypt pass is also the move out of the arena.
    std::vector<std::optional<ConstByteSpan>> views(fetched.shards.size());
    for (size_t i = 0; i < fetched.shards.size(); ++i) {
      if (fetched.shards[i].has_value()) {
        views[i] = ConstByteSpan(*fetched.shards[i]);
      }
    }
    ShardArena arena = arena_pool_.Acquire(n, k, shard_size, out.size());
    ReedSolomon rs(n, k);
    Status decoded =
        rs.DecodeInto(views, shard_size, arena.mutable_data_region());
    // The frame header must restate the unit length (hash-valid shards
    // guarantee it; a mismatch means the record and objects disagree).
    ByteReader header(arena.data_region());
    uint64_t framed_size = 0;
    if (decoded.ok() &&
        (!header.ReadU64(&framed_size) || framed_size != out.size())) {
      decoded = CorruptionError("unit frame mismatch for " + unit);
    }
    if (decoded.ok()) {
      Result<Bytes> key = SecretSharing::Combine(fetched.shares, k);
      if (key.ok()) {
        const uint32_t counter = static_cast<uint32_t>(
            stripe_index * version.stripe_unit_size / 64);
        ChaCha20::CryptInto(*key, version.nonce, counter,
                            ConstByteSpan(arena.payload()), out);
      }
      decoded = key.status();
    }
    arena_pool_.Release(std::move(arena));
    RETURN_IF_ERROR(decoded);
  }

  if (verify_unit_hash && Sha256::Hash(out) != stripe.content_hash) {
    return CorruptionError("unit hash mismatch for " + unit);
  }
  return OkStatus();
}

Result<Bytes> DepSkyClient::ReadAnchored(
    const std::string& unit, const std::string& content_hash,
    const std::function<Result<Bytes>(const DepSkyVersion&)>& fetch) {
  ASSIGN_OR_RETURN(MetadataRead read, ReadMetadata(unit, content_hash));
  const DepSkyVersion* version = read.md.FindByHash(content_hash);
  if (version == nullptr) {
    return NotFoundError("version " + content_hash + " not visible yet");
  }
  Result<Bytes> data = fetch(*version);
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
  return fetch(*version);
}

Result<Bytes> DepSkyClient::ReadVersion(const std::string& unit,
                                        const DepSkyVersion& record) {
  Result<Bytes> data = FetchVersion(unit, record);
  if (data.ok()) {
    return data;
  }
  // The record could not deliver its version: its objects were
  // garbage-collected, a scrub relocation left its holder map stale, or it
  // is not the record the clouds hold at all. The content hash is still
  // the anchor: locate the version by the metadata, once.
  anchored_read_fallbacks_.fetch_add(1);
  return ReadByHash(unit, record.content_hash);
}

Result<Bytes> DepSkyClient::ReadVersion(const std::string& unit,
                                        const std::string& content_hash,
                                        const Bytes& encoded_record) {
  Result<DepSkyVersion> record = DepSkyVersion::Decode(encoded_record);
  if (record.ok() && record->content_hash == content_hash) {
    return ReadVersion(unit, *record);
  }
  anchored_read_fallbacks_.fetch_add(1);
  return ReadByHash(unit, content_hash);
}

Result<Bytes> DepSkyClient::ReadAt(const std::string& unit,
                                   const std::string& content_hash,
                                   uint64_t offset, size_t length) {
  return ReadAnchored(unit, content_hash,
                      [&](const DepSkyVersion& version) {
                        return ReadRange(unit, version, offset, length);
                      });
}

Result<Bytes> DepSkyClient::ReadRange(const std::string& unit,
                                      const DepSkyVersion& version,
                                      uint64_t offset, size_t length) {
  if (offset >= version.size || length == 0) {
    return Bytes{};
  }
  length = std::min<uint64_t>(length, version.size - offset);

  // Fetch only the units overlapping [offset, offset+length). Each unit is
  // decoded and decrypted in full (its recorded plaintext hash covers the
  // whole unit) into a buffer its shards have sized, then the overlaps are
  // copied out in order: nothing is sized by the record's claims alone.
  const size_t unit_size = version.stripe_unit_size;
  const size_t first = offset / unit_size;
  const size_t end = (offset + length - 1) / unit_size + 1;
  std::vector<Bytes> units(end - first);
  RETURN_IF_ERROR(ForEachUnit(first, end, [&](size_t u) {
    Bytes& buffer = units[u - first];
    return FetchStripeUnit(
        unit, version, u,
        [&buffer](size_t unit_length) {
          buffer.resize(unit_length);
          return ByteSpan(buffer);
        },
        /*verify_unit_hash=*/true);
  }));
  Bytes out;
  out.reserve(length);
  for (size_t u = first; u < end; ++u) {
    const Bytes& buffer = units[u - first];
    const size_t begin = u * unit_size;
    const size_t copy_begin = std::max<size_t>(offset, begin);
    const size_t copy_end =
        std::min<size_t>(offset + length, begin + buffer.size());
    out.insert(out.end(), buffer.begin() + (copy_begin - begin),
               buffer.begin() + (copy_end - begin));
  }
  return out;
}

Result<Bytes> DepSkyClient::ReadByHash(const std::string& unit,
                                       const std::string& content_hash) {
  return ReadAnchored(unit, content_hash, [&](const DepSkyVersion& version) {
    return FetchVersion(unit, version);
  });
}

Result<Bytes> DepSkyClient::ReadLatest(const std::string& unit) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  const DepSkyVersion* version = md.Latest();
  if (version == nullptr) {
    return NotFoundError("no versions of " + unit);
  }
  return FetchVersion(unit, *version);
}

void DepSkyClient::ScrubStripeUnit(const DepSkyMetadata& md,
                                   const std::string& value_key,
                                   DepSkyStripeUnit* stripe,
                                   DepSkyScrubReport* report,
                                   bool* metadata_dirty) {
  const std::vector<Bytes>& shard_hashes = stripe->shard_hashes;
  std::vector<int32_t>& cloud_shard = stripe->cloud_shard;
  // Probe every recorded holder in parallel through the robust GET path.
  std::vector<unsigned> holders;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (i < cloud_shard.size() && cloud_shard[i] >= 0) {
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
    const unsigned shard = static_cast<unsigned>(cloud_shard[cloud]);
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
  const unsigned n = config_.n();
  const unsigned k = config_.k();
  std::vector<std::optional<ConstByteSpan>> views(n);
  std::vector<SecretShare> shares;
  unsigned valid_count = 0;
  for (unsigned cloud = 0; cloud < clouds_.size(); ++cloud) {
    if (!objects[cloud].has_value()) {
      continue;
    }
    const unsigned shard = static_cast<unsigned>(cloud_shard[cloud]);
    if (shard < views.size()) {
      views[shard] = ConstByteSpan(objects[cloud]->shard);
    }
    if (objects[cloud]->share_index != 0) {
      shares.push_back(SecretShare{objects[cloud]->share_index,
                                   objects[cloud]->share_data});
    }
    ++valid_count;
  }
  if (valid_count < k || config_.mode != DepSkyMode::kSecretSharing) {
    report->repair_failures += bad_holders.size();
    report->fully_redundant = false;
    return;
  }

  ShardArena arena = arena_pool_.Acquire(n, k, shard_size, 0);
  ReedSolomon rs(n, k);
  Status decoded =
      rs.DecodeInto(views, shard_size, arena.mutable_data_region());
  if (decoded.ok()) {
    rs.EncodeParity(arena.data_region(), shard_size, arena.parity_region());
  }

  for (unsigned cloud : bad_holders) {
    const unsigned shard = static_cast<unsigned>(cloud_shard[cloud]);
    if (!decoded.ok() || shard >= n || shard >= shard_hashes.size()) {
      report->repair_failures++;
      report->fully_redundant = false;
      continue;
    }
    // Share for shard s has x-coordinate s+1 (Split's convention).
    auto share =
        SecretSharing::RecoverShare(shares, k, static_cast<uint8_t>(shard + 1));
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
      if (target < cloud_shard.size() && cloud_shard[target] >= 0) {
        continue;
      }
      Status moved = RobustPut(target, value_key, object_bytes).Get();
      if (moved.ok()) {
        ApplyAclsToObject(md, target, value_key);
        cloud_shard[cloud] = -1;
        cloud_shard[target] = static_cast<int32_t>(shard);
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
    for (size_t u = 0; u < version.stripe_units.size(); ++u) {
      ScrubStripeUnit(md, ValueKey(unit, version, u),
                      &version.stripe_units[u], &report, &metadata_dirty);
    }
  }
  if (metadata_dirty) {
    RETURN_IF_ERROR(PushMetadata(unit, md));
  }
  return report;
}

Status DepSkyClient::DeleteVersion(const std::string& unit,
                                   const std::string& content_hash) {
  ASSIGN_OR_RETURN(DepSkyMetadata md, ReadMetadata(unit));
  auto it = std::find_if(md.versions.begin(), md.versions.end(),
                         [&](const DepSkyVersion& v) {
                           return v.content_hash == content_hash;
                         });
  if (it == md.versions.end()) {
    return NotFoundError("version " + content_hash + " not in metadata");
  }
  // Collect the value keys before erasing the record that names them.
  const std::vector<std::string> value_keys = VersionValueKeys(unit, *it);
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
  // List the unit's prefix instead of trusting the metadata: a write that
  // stored its shards but failed before publishing them left objects no
  // version record names, and fresh object names mean no later write ever
  // overwrites them. The prefix also covers the metadata object itself.
  const std::string prefix = "du/" + unit + "/";
  // This client's PUTs under the prefix that are still in flight would
  // land after the listing: a write returns at its quorum, before the last
  // clouds' requests. Wait for them to land first.
  {
    std::unique_lock<std::mutex> lock(puts_in_flight_->mu);
    puts_in_flight_->cv.wait(lock, [&] {
      auto it = puts_in_flight_->keys.lower_bound(prefix);
      return it == puts_in_flight_->keys.end() ||
             it->compare(0, prefix.size(), prefix) != 0;
    });
  }
  std::vector<Future<Result<std::vector<ObjectInfo>>>> listings;
  listings.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    listings.push_back(clouds_[i].store->ListAsync(clouds_[i].creds, prefix));
  }
  const std::vector<Result<std::vector<ObjectInfo>>> listed =
      WhenAll<Result<std::vector<ObjectInfo>>>(std::move(listings)).Get();
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (!listed[i].ok()) {
      continue;  // best effort, like the deletes below
    }
    for (const auto& object : *listed[i]) {
      (void)clouds_[i].store->Delete(clouds_[i].creds, object.key);
    }
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
    for (const auto& value_key : VersionValueKeys(unit, version)) {
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
