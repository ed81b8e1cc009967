#include "src/depsky/depsky.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <numeric>
#include <tuple>

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

// A cloud that answers — even with NOT_FOUND or PERMISSION_DENIED — is
// healthy; only unreachability (and deadline expiry) counts against it.
bool Answered(const Status& s) {
  return s.ok() || s.code() == ErrorCode::kNotFound ||
         s.code() == ErrorCode::kPermissionDenied ||
         s.code() == ErrorCode::kAlreadyExists;
}
template <typename V>
bool Answered(const Result<V>& r) {
  return Answered(r.status());
}

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
  // `what` names the request in a deadline expiry's TIMEOUT status.
  RobustCall(RobustContext ctx, unsigned cloud,
             std::function<Future<T>()> issue, std::string what,
             std::function<void()> on_first_failure = nullptr)
      : ctx_(ctx),
        cloud_(cloud),
        issue_(std::move(issue)),
        what_(std::move(what)),
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
              self->Settle(attempt,
                           T(TimeoutError("deadline expired: " + self->what_)),
                           false);
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
          self->Settle(attempt, value, Answered(value),
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
  std::string what_;
  std::function<void()> on_first_failure_;
  VirtualTime first_start_ = 0;
  Promise<T> promise_;
};

// The parts of a value object's name below du/<unit>/.
struct ObjectName {
  unsigned long long version = 0;
  unsigned long long object_id = 0;
  char content_hash[129] = {};
  unsigned index = 0;  // the unit
  unsigned shard = 0;
};

// Parses "v<16 hex>/o<16 hex>/h<hash>/u<index>/s<shard>"; false for any
// other name (the grant object, or something else put under the prefix).
bool ParseObjectName(const char* name, ObjectName* out) {
  int end = -1;
  return std::sscanf(name, "v%16llx/o%16llx/h%128[^/]/u%u/s%u%n",
                     &out->version, &out->object_id, out->content_hash,
                     &out->index, &out->shard, &end) == 5 &&
         end >= 0 && name[end] == '\0';
}

constexpr const char* kGrantsName = "acl";

std::string UnitPrefix(const std::string& unit) { return "du/" + unit + "/"; }
std::string GrantsKey(const std::string& unit) {
  return UnitPrefix(unit) + kGrantsName;
}

// Lets each of `winners` replace the grant of the same principal in `base`,
// or joins it there.
void OverrideGrants(const std::vector<DepSkyGrant>& winners,
                    std::vector<DepSkyGrant>* base) {
  for (const DepSkyGrant& winner : winners) {
    auto it = std::find_if(base->begin(), base->end(),
                           [&](const DepSkyGrant& g) {
                             return g.cloud_ids == winner.cloud_ids;
                           });
    if (it != base->end()) {
      *it = winner;
    } else {
      base->push_back(winner);
    }
  }
}

}  // namespace

unsigned DepSkyClient::ListedVersion::Listers(size_t unit_count) const {
  unsigned fewest = UINT32_MAX;
  for (uint32_t u = 0; u < unit_count; ++u) {
    auto it = units.find(u);
    fewest = std::min<unsigned>(
        fewest, it == units.end() ? 0
                                  : std::count_if(it->second.begin(),
                                                  it->second.end(),
                                                  [](int32_t s) { return s >= 0; }));
  }
  return fewest;
}

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
  return std::make_shared<RobustCall<Status>>(
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
      "PUT " + key)
      ->Start();
}

Future<Result<Bytes>> DepSkyClient::RobustGet(
    unsigned cloud, const std::string& key,
    std::function<void()> on_first_failure) {
  RobustContext ctx{env_,     &timers_, &health_,  &config_,           &rng_mu_,
                    &rng_,    &async_ops_, &retries_, &deadline_expiries_};
  return std::make_shared<RobustCall<Result<Bytes>>>(
             ctx, cloud,
             [this, cloud, key]() {
               return clouds_[cloud].store->GetAsync(clouds_[cloud].creds,
                                                     key);
             },
             "GET " + key, std::move(on_first_failure))
      ->Start();
}

Future<Result<std::vector<ObjectInfo>>> DepSkyClient::RobustList(
    unsigned cloud, const std::string& prefix) {
  RobustContext ctx{env_,     &timers_, &health_,  &config_,           &rng_mu_,
                    &rng_,    &async_ops_, &retries_, &deadline_expiries_};
  return std::make_shared<RobustCall<Result<std::vector<ObjectInfo>>>>(
             ctx, cloud,
             [this, cloud, prefix]() {
               return clouds_[cloud].store->ListAsync(clouds_[cloud].creds,
                                                      prefix);
             },
             "LIST " + prefix)
      ->Start();
}

void DepSkyClient::ApplyAclsWhenWritten(Future<Status> put, unsigned cloud,
                                        std::shared_ptr<const DepSkyGrants> acls,
                                        const std::string& key) {
  async_ops_.Add();
  put.OnReady([this, cloud, acls, key](const Status& status, VirtualDuration) {
    if (status.ok()) {
      std::vector<Future<Status>> acl;
      CollectAclFutures(*acls, cloud, key, &acl);
      // The ACL requests' own completion is tracked by their store.
    }
    async_ops_.Done();
  });
}

std::string DepSkyClient::ValueKey(const std::string& unit,
                                   const DepSkyVersion& version, size_t index,
                                   unsigned shard) {
  char name[40];
  std::snprintf(name, sizeof(name), "v%016llx/o%016llx/h",
                static_cast<unsigned long long>(version.version),
                static_cast<unsigned long long>(version.object_id));
  return UnitPrefix(unit) + name + version.content_hash + "/u" +
         std::to_string(index) + "/s" + std::to_string(shard);
}

Bytes DepSkyClient::RandomBytesLocked(size_t size) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.RandomBytes(size);
}

void DepSkyClient::CollectAclFutures(const DepSkyGrants& acls, unsigned cloud,
                                     const std::string& key,
                                     std::vector<Future<Status>>* out) {
  // Owner of the data unit always gets read+write on objects we create.
  if (cloud < acls.owner_ids.size() && !acls.owner_ids[cloud].empty() &&
      acls.owner_ids[cloud] != clouds_[cloud].creds.canonical_id) {
    out->push_back(clouds_[cloud].store->SetAclAsync(
        clouds_[cloud].creds, key, acls.owner_ids[cloud],
        ObjectPermissions::ReadWrite()));
  }
  for (const auto& grant : acls.grants) {
    if (cloud >= grant.cloud_ids.size() || grant.cloud_ids[cloud].empty()) {
      continue;
    }
    if (grant.cloud_ids[cloud] == clouds_[cloud].creds.canonical_id ||
        (!grant.read && !grant.write)) {
      continue;  // a revocation: a new object grants nothing to begin with
    }
    ObjectPermissions perms;
    perms.read = grant.read;
    perms.write = grant.write;
    out->push_back(clouds_[cloud].store->SetAclAsync(
        clouds_[cloud].creds, key, grant.cloud_ids[cloud], perms));
  }
}

void DepSkyClient::ApplyAclsToObject(const DepSkyGrants& acls, unsigned cloud,
                                     const std::string& key) {
  std::vector<Future<Status>> futures;
  CollectAclFutures(acls, cloud, key, &futures);
  WhenAll<Status>(std::move(futures)).Join();  // best effort, charge the wait
}

std::vector<Result<std::vector<ObjectInfo>>> DepSkyClient::ListEvery(
    const std::string& prefix) {
  std::vector<Future<Result<std::vector<ObjectInfo>>>> listings;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    listings.push_back(RobustList(i, prefix));
  }
  return WhenAll<Result<std::vector<ObjectInfo>>>(std::move(listings)).Get();
}

Result<DepSkyClient::Listing> DepSkyClient::List(const std::string& unit,
                                                 const std::string& anchor,
                                                 bool all) {
  const std::string prefix = UnitPrefix(unit);
  const unsigned n = cloud_count();
  const unsigned quorum = config_.quorum();
  // Every cloud is asked. The LIST settles at the n-f-th answer, or at the
  // first answer naming the anchor; with `all`, once every cloud answered.
  std::vector<Future<Result<std::vector<ObjectInfo>>>> futures;
  for (unsigned c = 0; c < n; ++c) {
    futures.push_back(RobustList(c, prefix));
  }
  auto answered = std::make_shared<unsigned>(0);
  const std::vector<std::optional<Result<std::vector<ObjectInfo>>>> answers =
      WhenQuorum<Result<std::vector<ObjectInfo>>>(
          std::move(futures), 1,
          [answered, all, quorum, anchor, prefix](
              size_t, const Result<std::vector<ObjectInfo>>& r) {
            if (all || !r.ok()) {
              return false;
            }
            ObjectName name;
            return ++*answered >= quorum ||
                   std::any_of(r->begin(), r->end(), [&](const ObjectInfo& o) {
                     return ParseObjectName(o.key.c_str() + prefix.size(),
                                            &name) &&
                            anchor == name.content_hash;
                   });
          })
          .Get()
          .results;

  Listing listing;
  listing.answered.assign(n, false);
  std::map<std::tuple<uint64_t, uint64_t, std::string>, ListedVersion>
      versions;
  bool names_anchor = false;
  for (unsigned c = 0; c < n; ++c) {
    if (!answers[c].has_value() || !answers[c]->ok()) {
      continue;
    }
    const std::vector<ObjectInfo>& objects = **answers[c];
    listing.answered[c] = true;
    ++listing.answers;
    for (const ObjectInfo& object : objects) {
      const char* name = object.key.c_str() + prefix.size();
      if (std::strcmp(name, kGrantsName) == 0) {
        listing.grants_listed = true;
        continue;
      }
      ObjectName parsed;
      if (!ParseObjectName(name, &parsed) || parsed.shard >= n) {
        continue;
      }
      ListedVersion& version = versions[std::make_tuple(
          parsed.version, parsed.object_id, parsed.content_hash)];
      version.version = parsed.version;
      version.object_id = parsed.object_id;
      version.content_hash = parsed.content_hash;
      auto [holders, added] = version.units.try_emplace(parsed.index);
      if (added) {
        holders->second.assign(n, -1);
      }
      holders->second[c] = static_cast<int32_t>(parsed.shard);
      names_anchor = names_anchor || parsed.content_hash == anchor;
    }
  }
  if (listing.answers < quorum) {
    // Fewer than n-f answers prove nothing — neither the latest version
    // nor that a hash is absent — unless one named the anchor.
    if (anchor.empty() || !names_anchor) {
      return UnavailableError("listing quorum not reached for " + unit);
    }
    listing.early = true;
  }
  for (auto& [name, version] : versions) {
    listing.versions.push_back(std::move(version));
  }
  return listing;
}

Result<DepSkyVersion> DepSkyClient::ResolveRecord(const std::string& unit,
                                                  const Listing& listing,
                                                  const ListedVersion& listed) {
  const unsigned n = config_.n();
  DepSkyVersion named;
  named.version = listed.version;
  named.object_id = listed.object_id;
  named.content_hash = listed.content_hash;
  // Per listed unit, the header of the fastest cloud listing it that
  // certifies its object's name — version, id, hash, unit and shard are all
  // under its HMAC. The next lister is asked only if one fails.
  std::map<uint32_t, Result<DepSkyShardHeader>> headers;
  for (const auto& [index, holders] : listed.units) {
    std::vector<unsigned> listers;
    for (unsigned c = 0; c < holders.size(); ++c) {
      if (holders[c] >= 0) {
        listers.push_back(c);
      }
    }
    Result<DepSkyShardHeader> header = NotFoundError("unit not listed");
    for (unsigned cloud : health_.ReorderByLatency(listers, env_->Now())) {
      const unsigned shard = static_cast<unsigned>(holders[cloud]);
      Result<Bytes> raw =
          RobustGet(cloud, ValueKey(unit, named, index, shard)).Get();
      size_t offset = 0;
      header = raw.ok() ? DepSkyShardHeader::Read(*raw, unit,
                                                  config_.auth_key, &offset)
                        : Result<DepSkyShardHeader>(raw.status());
      if (header.ok() &&
          (header->version != named.version ||
           header->object_id != named.object_id ||
           header->content_hash != named.content_hash ||
           header->unit_index != index || header->shard_index != shard)) {
        header = CorruptionError("header does not match its name in " + unit);
      } else if (header.ok() &&
                 (header->n != n || header->k != config_.k() ||
                  header->mode != config_.mode ||
                  header->shard_hashes.size() != n)) {
        // Fetch and scrub code with this client's n, k and mode.
        header = FailedPreconditionError(
            "version of " + unit + " was written under another n, k or mode");
      }
      if (header.ok()) {
        break;
      }
    }
    headers.emplace(index, std::move(header));
  }

  auto base = std::find_if(headers.begin(), headers.end(), [](const auto& h) {
    return h.second.ok();
  });
  if (base == headers.end()) {
    // No header certifies the name. Objects missing under a listed name
    // are a forgery here, not a version still missing units.
    const Status failure = headers.begin()->second.status();
    return failure.code() == ErrorCode::kNotFound
               ? CorruptionError("no object under a listed name in " + unit)
               : failure;
  }
  DepSkyVersion record = named;
  record.size = base->second->size;
  record.nonce = base->second->nonce;
  record.stripe_unit_size = base->second->stripe_unit_size;
  const uint64_t unit_count =
      DepSkyVersion::UnitCount(record.size, record.stripe_unit_size);
  // Every unit must be listed before the record is sized by the header's
  // claim: a crashed write lacks some, and so does a made-up size.
  for (uint64_t u = 0; u < unit_count; ++u) {
    if (headers.count(static_cast<uint32_t>(u)) == 0) {
      return NotFoundError("version of " + unit + " is missing units");
    }
  }
  record.stripe_units.resize(unit_count);
  for (size_t u = 0; u < unit_count; ++u) {
    const Result<DepSkyShardHeader>& header =
        headers.at(static_cast<uint32_t>(u));
    RETURN_IF_ERROR(header.status());
    if (header->size != record.size || header->nonce != record.nonce ||
        header->stripe_unit_size != record.stripe_unit_size) {
      return CorruptionError("headers of one version of " + unit +
                             " disagree");
    }
    DepSkyStripeUnit& stripe = record.stripe_units[u];
    stripe.content_hash = header->unit_hash;
    stripe.shard_hashes = header->shard_hashes;
    stripe.cloud_shard = listed.units.at(static_cast<uint32_t>(u));
    for (uint32_t c : header->first_wave) {
      const bool held = std::find(stripe.cloud_shard.begin(),
                                  stripe.cloud_shard.end(),
                                  static_cast<int32_t>(c)) !=
                        stripe.cloud_shard.end();
      if (c < n && !listing.answered[c] && !held) {
        stripe.cloud_shard[c] = static_cast<int32_t>(c);
      }
    }
  }
  return record;
}

Result<Bytes> DepSkyClient::ReadListed(
    const std::string& unit, const Listing& listing,
    const std::function<bool(const ListedVersion&)>& pick,
    const std::function<Result<Bytes>(const DepSkyVersion&)>& fetch) {
  for (auto it = listing.versions.rbegin(); it != listing.versions.rend();
       ++it) {
    if (!pick(*it)) {
      continue;
    }
    Result<DepSkyVersion> record =
        ResolveRecord(unit, listing, *it);
    if (record.status().code() == ErrorCode::kNotFound) {
      continue;  // a unit missing: a write that crashed mid-wave
    }
    Result<Bytes> data =
        record.ok() ? fetch(*record) : Result<Bytes>(record.status());
    if (data.ok()) {
      return data;
    }
    // Fewer than k listers cannot be an acknowledged version without f+1
    // faulty clouds: a crashed or forged write, passed over.
    const size_t units = record.ok() ? record->stripe_units.size() : 1;
    if (it->Listers(units) >= config_.k()) {
      return data.status();
    }
  }
  return NotFoundError("no readable version of " + unit + " listed yet");
}

uint64_t DepSkyClient::NextVersionNumber(const std::string& unit,
                                         const Listing& listing) {
  for (auto it = listing.versions.rbegin(); it != listing.versions.rend();
       ++it) {
    // f+1 clouds include a correct one, which lists only what was PUT.
    if (it->Listers(1) >= config_.f + 1) {
      return it->version + 1;
    }
    // Past a header's authentication a resolve fails only with NOT_FOUND
    // (units missing) or FAILED_PRECONDITION (another coding).
    const ErrorCode code = ResolveRecord(unit, listing, *it).status().code();
    if (code == ErrorCode::kOk || code == ErrorCode::kNotFound ||
        code == ErrorCode::kFailedPrecondition) {
      return it->version + 1;  // an authentic header names it
    }
  }
  return 1;
}

Result<DepSkyGrants> DepSkyClient::ReadGrants(const std::string& unit) {
  const std::string key = GrantsKey(unit);
  std::vector<Future<Result<Bytes>>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustGet(i, key));
  }
  QuorumResult<Result<Bytes>> answers =
      WhenQuorum<Result<Bytes>>(std::move(futures), config_.quorum(),
                                [](size_t, const Result<Bytes>& r) {
                                  return Answered(r);
                                })
          .Get();
  if (!answers.quorum_reached) {
    return UnavailableError("grant object quorum not reached for " + unit);
  }
  DepSkyGrants best;
  for (const auto& answer : answers.results) {
    if (!answer.has_value() || !answer->ok()) {
      continue;
    }
    auto grants = DepSkyGrants::Decode(**answer, unit, config_.auth_key);
    if (grants.ok() && grants->sequence > best.sequence) {
      best = std::move(*grants);
    }
  }
  return best;
}

Status DepSkyClient::PushGrants(const std::string& unit,
                                const DepSkyGrants& grants) {
  const std::string key = GrantsKey(unit);
  auto encoded =
      std::make_shared<const Bytes>(grants.Encode(unit, config_.auth_key));
  std::vector<Future<Status>> futures;
  futures.reserve(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    futures.push_back(RobustPut(i, key, encoded));
  }
  QuorumResult<Status> acks =
      WhenQuorum<Status>(futures, config_.quorum(),
                         [](size_t, const Status& s) { return s.ok(); })
          .Get();
  auto acls = std::make_shared<const DepSkyGrants>(grants);
  std::vector<Future<Status>> acl_futures;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (!acks.results[i].has_value()) {
      ApplyAclsWhenWritten(futures[i], i, acls, key);
    } else if (acks.results[i]->ok()) {
      CollectAclFutures(grants, i, key, &acl_futures);
    }
  }
  WhenAll<Status>(std::move(acl_futures)).Join();  // max-of-clouds
  if (!acks.quorum_reached) {
    return UnavailableError("grant object write quorum not reached for " +
                            unit);
  }
  return OkStatus();
}

Result<DepSkyVersion> DepSkyClient::WriteVersion(
    const std::string& unit, const std::string& content_hash,
    ConstByteSpan data, const std::vector<DepSkyGrant>* grants,
    uint64_t version_number) {
  if (content_hash.empty() || content_hash.size() > 128 ||
      content_hash.find('/') != std::string::npos) {
    return InvalidArgumentError("content hash unusable in an object name");
  }
  auto acls = std::make_shared<DepSkyGrants>();
  if (grants != nullptr) {
    acls->grants = *grants;
  }
  DepSkyVersion version;
  version.version = version_number;
  if (version_number == 0) {
    // Unanchored: the LIST numbers the version and shows whether the unit
    // has stored grants, which the caller's replace principal by principal.
    ASSIGN_OR_RETURN(Listing listing, List(unit, std::string(), false));
    version.version = NextVersionNumber(unit, listing);
    if (listing.grants_listed) {
      ASSIGN_OR_RETURN(DepSkyGrants stored, ReadGrants(unit));
      acls->owner_ids = std::move(stored.owner_ids);
      acls->grants = std::move(stored.grants);
      if (grants != nullptr) {
        OverrideGrants(*grants, &acls->grants);
      }
    }
  }
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

  // Step 4 per unit. Each unit writes only its own slot of the record.
  std::shared_ptr<const DepSkyGrants> unit_acls = std::move(acls);
  RETURN_IF_ERROR(ForEachUnit(
      0, version.stripe_units.size(), [&](size_t u) -> Status {
        ASSIGN_OR_RETURN(
            version.stripe_units[u],
            WriteStripeUnit(unit, version, u,
                            data.subspan(u * unit_size, unit_size), key,
                            shares, unit_acls));
        return OkStatus();
      }));
  return version;
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

void DepSkyClient::PlanWave(std::vector<unsigned>* preferred,
                            std::vector<unsigned>* spares) {
  // Preferred quorums: use the first n-f *healthy* clouds — the cost-ordered
  // list with breaker-demoted clouds moved to the back, so a flapping
  // provider drops out of the preferred set and only re-enters once its
  // breaker half-opens.
  std::vector<unsigned> cost_order(clouds_.size());
  std::iota(cost_order.begin(), cost_order.end(), 0u);
  for (unsigned cloud : health_.Reorder(cost_order, env_->Now())) {
    if (config_.preferred_quorums && preferred->size() >= config_.quorum()) {
      spares->push_back(cloud);
    } else {
      preferred->push_back(cloud);
    }
  }
}

Result<std::vector<int32_t>> DepSkyClient::PlaceObjects(
    const std::string& unit, const DepSkyVersion& version, size_t index,
    std::vector<Bytes> objects, const std::vector<unsigned>& preferred,
    const std::vector<unsigned>& spares,
    const std::function<Bytes(unsigned)>& encode_object,
    const std::shared_ptr<const DepSkyGrants>& acls) {
  const unsigned quorum = config_.quorum();
  std::vector<int32_t> cloud_shard(clouds_.size(), -1);

  // First wave: shard i -> preferred cloud i, fanned out through the async
  // ObjectStore API and awaited at the write quorum. (With preferred quorums
  // the wave is exactly quorum-sized, so this waits for all of it; without
  // them, the n-f fastest clouds complete the write.)
  std::vector<Future<Status>> futures;
  futures.reserve(preferred.size());
  for (unsigned cloud : preferred) {
    futures.push_back(RobustPut(
        cloud, ValueKey(unit, version, index, cloud),
        std::make_shared<const Bytes>(std::move(objects[cloud]))));
  }
  QuorumResult<Status> acks =
      WhenQuorum<Status>(futures, quorum,
                         [](size_t, const Status& s) { return s.ok(); })
          .Get();
  unsigned successes = 0;
  std::vector<unsigned> failed_shards;
  std::vector<Future<Status>> acl_futures;
  for (size_t i = 0; i < preferred.size(); ++i) {
    const unsigned cloud = preferred[i];
    const std::string key = ValueKey(unit, version, index, cloud);
    if (!acks.results[i].has_value()) {
      // Still in flight past the quorum: not recorded as a holder, but its
      // object (if the PUT lands) still gets every grant.
      ApplyAclsWhenWritten(futures[i], cloud, acls, key);
      continue;
    }
    if (acks.results[i]->ok()) {
      cloud_shard[cloud] = static_cast<int32_t>(cloud);
      CollectAclFutures(*acls, cloud, key, &acl_futures);
      ++successes;
    } else {
      failed_shards.push_back(cloud);
    }
  }
  WhenAll<Status>(std::move(acl_futures)).Join();  // max-of-clouds
  // Fallback wave: route failed shards to spare clouds. The name carries
  // the shard index, so a LIST shows where each shard went.
  for (unsigned spare : spares) {
    if (successes >= quorum || failed_shards.empty()) {
      break;
    }
    const unsigned shard = failed_shards.back();
    const std::string key = ValueKey(unit, version, index, shard);
    Status s = RobustPut(spare, key,
                         std::make_shared<const Bytes>(encode_object(shard)))
                   .Get();
    if (s.ok()) {
      ApplyAclsToObject(*acls, spare, key);
      cloud_shard[spare] = static_cast<int32_t>(shard);
      failed_shards.pop_back();
      ++successes;
    }
  }
  if (successes < quorum) {
    return UnavailableError("write quorum not reached for unit " +
                            std::to_string(index) + " of " + unit);
  }
  return cloud_shard;
}

Result<DepSkyStripeUnit> DepSkyClient::WriteStripeUnit(
    const std::string& unit, const DepSkyVersion& version, size_t index,
    ConstByteSpan plaintext, const Bytes& key,
    const std::vector<SecretShare>& shares,
    const std::shared_ptr<const DepSkyGrants>& acls) {
  // Zero-copy: the plaintext is encrypted straight into the pooled arena's
  // framed data region (the systematic shards alias that frame), parity is
  // derived in place, and shard hashing and wire-object serialization read
  // arena views. The pool keeps a window's buffers cache-warm. In
  // replication mode every object wraps the caller's plaintext.
  std::optional<ShardArena> arena;
  if (config_.mode == DepSkyMode::kSecretSharing) {
    ErasureCodec codec(config_.n(), config_.k());
    arena = codec.PrepareArena(plaintext.size(), &arena_pool_);
    const uint32_t counter =
        static_cast<uint32_t>(index * version.stripe_unit_size / 64);
    ChaCha20::CryptInto(key, version.nonce, counter, plaintext,
                        arena->payload());
    codec.ComputeParity(&*arena);
  }

  const unsigned shard_count = static_cast<unsigned>(clouds_.size());
  DepSkyStripeUnit stripe;
  stripe.content_hash = Sha256::Hash(plaintext);
  // The header is the same for every shard but its index, and its size
  // does not depend on the hash values: each value object is serialized
  // behind a gap the header is written into once every shard is hashed.
  DepSkyShardHeader header;
  header.n = config_.n();
  header.k = config_.k();
  header.mode = config_.mode;
  header.version = version.version;
  header.object_id = version.object_id;
  header.content_hash = version.content_hash;
  header.size = version.size;
  header.nonce = version.nonce;
  header.stripe_unit_size = version.stripe_unit_size;
  header.unit_index = static_cast<uint32_t>(index);
  header.unit_hash = stripe.content_hash;
  header.shard_hashes.assign(shard_count, Bytes(Sha256::kDigestSize, 0));
  header.acls.owner_ids = acls->owner_ids;
  header.acls.grants = acls->grants;
  std::vector<unsigned> preferred;
  std::vector<unsigned> spares;
  PlanWave(&preferred, &spares);
  header.first_wave.assign(preferred.begin(), preferred.end());
  const size_t front = header.EncodedSize();
  auto encode_value = [&](unsigned shard_index) -> Bytes {
    // The shard bytes move from the arena (or the caller's plaintext) to the
    // wire buffer in this one serialization copy.
    if (!arena) {
      return DepSkyValueObject::EncodeParts(plaintext, 0, {}, front);
    }
    return DepSkyValueObject::EncodeParts(arena->shard(shard_index),
                                          shares[shard_index].index,
                                          shares[shard_index].data, front);
  };
  auto stamp = [&](unsigned shard_index, Bytes* object) {
    DepSkyShardHeader own = header;
    own.shard_index = shard_index;
    own.WriteTo(unit, config_.auth_key, ByteSpan(*object).first(front));
  };
  // The recorded hash covers the complete value object — shard AND key
  // share AND framing — so a faulty cloud cannot slip a poisoned key share
  // past the check by leaving the shard untouched. Share i always rides
  // with shard i, fallback writes included, so the hash per shard index is
  // well-defined.
  std::vector<Bytes> objects(shard_count);
  stripe.shard_hashes.resize(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) {
    objects[i] = encode_value(i);
    stripe.shard_hashes[i] =
        Sha256::Hash(ConstByteSpan(objects[i]).subspan(front));
  }
  header.shard_hashes = stripe.shard_hashes;
  for (unsigned i = 0; i < shard_count; ++i) {
    stamp(i, &objects[i]);
  }
  auto placed = PlaceObjects(
      unit, version, index, std::move(objects), preferred, spares,
      [&](unsigned shard_index) {
        Bytes object = encode_value(shard_index);
        stamp(shard_index, &object);
        return object;
      },
      acls);
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
  std::vector<std::string> keys;  // by cloud: the shard object it holds
  unsigned k = 0;
  std::vector<unsigned> holders;     // latency-ordered launch sequence
  std::vector<int32_t> cloud_shard;  // copy: outlives the caller's record
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
    RobustGet(cloud, state->keys[cloud],
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
            // The header is skipped, not authenticated: the record's hash
            // of the value object behind it is the check.
            auto offset = raw.ok() ? DepSkyShardHeader::ValueOffset(*raw)
                                   : Result<size_t>(raw.status());
            if (offset.ok()) {
              const ConstByteSpan value = ConstByteSpan(*raw).subspan(*offset);
              auto object = DepSkyValueObject::Decode(value);
              if (object.ok() && cloud < state->cloud_shard.size() &&
                  state->cloud_shard[cloud] >= 0) {
                unsigned shard_index =
                    static_cast<unsigned>(state->cloud_shard[cloud]);
                if (shard_index < state->shard_hashes.size() &&
                    Sha256::Hash(value) == state->shard_hashes[shard_index]) {
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
    const std::string& unit, const DepSkyVersion& version, size_t index,
    unsigned k) {
  const DepSkyStripeUnit& stripe = version.stripe_units[index];
  const std::vector<int32_t>& cloud_shard = stripe.cloud_shard;
  // Clouds that hold a shard of this object, in cost order.
  std::vector<unsigned> holders;
  auto state = std::make_shared<ShardFetchState>();
  state->keys.resize(clouds_.size());
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (i < cloud_shard.size() && cloud_shard[i] >= 0) {
      holders.push_back(i);
      state->keys[i] = ValueKey(unit, version, index,
                                static_cast<unsigned>(cloud_shard[i]));
    }
  }
  if (holders.size() < k) {
    return UnavailableError("not enough shard holders recorded");
  }

  state->unit = unit;
  state->k = k;
  // Fastest healthy holders first (the read waits for the k-th launched),
  // breaker-demoted ones at the back: a broken cloud is only asked once the
  // healthy ones cannot supply k valid shards.
  state->holders = health_.ReorderByLatency(holders, env_->Now());
  // Copies, not references: a straggler's collector may run after this
  // frame (and the caller's record) are gone.
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
  ASSIGN_OR_RETURN(FetchedShards fetched,
                   FetchShards(unit, version, stripe_index, k));
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
  auto pick = [&](const ListedVersion& version) {
    return version.content_hash == content_hash;
  };
  ASSIGN_OR_RETURN(Listing listing, List(unit, content_hash, false));
  Result<Bytes> data = ReadListed(unit, listing, pick, fetch);
  if (data.ok() || !listing.early) {
    return data;
  }
  // The answer that settled the LIST early named the hash, but the version
  // could not be read from what it and the guessed holders offered: a
  // Byzantine cloud listing a forged name, or a holder map that the other
  // clouds' answers would complete. LIST once more at the full quorum.
  anchored_read_fallbacks_.fetch_add(1);
  ASSIGN_OR_RETURN(listing, List(unit, std::string(), false));
  return ReadListed(unit, listing, pick, fetch);
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
  // the anchor: locate the version by a LIST, once.
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
  ASSIGN_OR_RETURN(Listing listing, List(unit, std::string(), false));
  return ReadListed(
      unit, listing, [](const ListedVersion&) { return true; },
      [&](const DepSkyVersion& version) { return FetchVersion(unit, version); });
}

void DepSkyClient::ScrubStripeUnit(
    const std::string& unit, const Listing& listing,
    const DepSkyVersion& version, size_t index,
    std::optional<Result<DepSkyGrants>>* stored_grants,
    DepSkyScrubReport* report) {
  const DepSkyStripeUnit& stripe = version.stripe_units[index];
  const std::vector<Bytes>& shard_hashes = stripe.shard_hashes;
  const std::vector<int32_t>& cloud_shard = stripe.cloud_shard;
  const unsigned n = config_.n();
  const unsigned k = config_.k();
  // Probe every listed holder in parallel through the robust GET path.
  std::vector<unsigned> holders;
  std::vector<Future<Result<Bytes>>> probes;
  for (unsigned c = 0; c < clouds_.size(); ++c) {
    if (c < cloud_shard.size() && cloud_shard[c] >= 0) {
      holders.push_back(c);
      probes.push_back(RobustGet(
          c, ValueKey(unit, version, index,
                      static_cast<unsigned>(cloud_shard[c]))));
    }
  }

  // Hash-check each reply exactly like the read path: the recorded hash
  // covers the complete value object, so a poisoned key share or framing
  // swap reads as corrupt even when the shard bytes survive.
  std::vector<std::optional<DepSkyValueObject>> objects(clouds_.size());
  std::optional<DepSkyShardHeader> survivor;  // an authentic valid header
  std::set<unsigned> held;                    // shard indices held validly
  std::vector<std::pair<unsigned, unsigned>> repairs;  // (shard, its cloud)
  size_t shard_size = 0;
  for (size_t h = 0; h < holders.size(); ++h) {
    const unsigned cloud = holders[h];
    const unsigned shard = static_cast<unsigned>(cloud_shard[cloud]);
    report->objects_checked++;
    Result<Bytes> raw = probes[h].Get();
    size_t offset = 0;
    auto header = raw.ok() ? DepSkyShardHeader::Read(*raw, unit,
                                                     config_.auth_key, &offset)
                           : Result<DepSkyShardHeader>(raw.status());
    const ConstByteSpan value =
        header.ok() ? ConstByteSpan(*raw).subspan(offset) : ConstByteSpan();
    auto object = header.ok() ? DepSkyValueObject::Decode(value)
                              : Result<DepSkyValueObject>(header.status());
    if (object.ok() && shard < shard_hashes.size() &&
        header->shard_index == shard &&
        Sha256::Hash(value) == shard_hashes[shard]) {
      shard_size = object->shard.size();
      objects[cloud] = std::move(*object);
      if (!survivor.has_value()) {
        survivor = std::move(*header);
      }
      held.insert(shard);
    } else {
      repairs.emplace_back(shard, cloud);  // corrupt or gone: in place
    }
  }
  // Every listed shard counts as held once repaired; past those, restore
  // missing shard indices until a write quorum's worth is held (n without
  // preferred quorums), each first on the cloud of its own index.
  const unsigned target = config_.preferred_quorums ? config_.quorum() : n;
  for (const auto& repair : repairs) {
    held.insert(repair.first);
  }
  for (unsigned shard = 0; shard < n && held.size() < target; ++shard) {
    if (held.insert(shard).second) {
      repairs.emplace_back(shard, shard);
    }
  }
  if (repairs.empty()) {
    return;
  }
  report->objects_missing += repairs.size();

  // Rebuild from the survivors. Any k hash-valid shards reproduce the whole
  // arena (data region + re-derived parity), and k key shares re-evaluate
  // the split polynomial at any lost share's x-coordinate — so the rebuilt
  // value object is byte-identical to the original and must re-hash to the
  // recorded value before anything is uploaded; its header is the
  // survivor's with its own shard index.
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
  auto failed = [report](size_t count) {
    report->repair_failures += count;
    report->fully_redundant = false;
  };
  if (valid_count < k || config_.mode != DepSkyMode::kSecretSharing) {
    failed(repairs.size());
    return;
  }
  // A rebuilt object gets the grants its header recorded at write time as
  // every SetGrant since left them: the grant object's entries, revocations
  // among them, replace the header's principal by principal.
  DepSkyGrants acls = survivor->acls;
  if (listing.grants_listed) {
    if (!stored_grants->has_value()) {
      *stored_grants = ReadGrants(unit);
    }
    if (!(*stored_grants)->ok()) {
      failed(repairs.size());
      return;
    }
    OverrideGrants((**stored_grants)->grants, &acls.grants);
  }

  ShardArena arena = arena_pool_.Acquire(n, k, shard_size, 0);
  ReedSolomon rs(n, k);
  Status decoded =
      rs.DecodeInto(views, shard_size, arena.mutable_data_region());
  if (decoded.ok()) {
    rs.EncodeParity(arena.data_region(), shard_size, arena.parity_region());
  }
  const size_t front = survivor->EncodedSize();
  std::vector<bool> occupied(clouds_.size(), false);
  for (unsigned cloud : holders) {
    occupied[cloud] = true;
  }
  for (const auto& [shard, home] : repairs) {
    // Share for shard s has x-coordinate s+1 (Split's convention).
    auto share = decoded.ok() ? SecretSharing::RecoverShare(
                                    shares, k, static_cast<uint8_t>(shard + 1))
                              : Result<SecretShare>(decoded);
    Bytes rebuilt = share.ok() ? DepSkyValueObject::EncodeParts(
                                     arena.shard(shard), share->index,
                                     share->data, front)
                               : Bytes();
    if (!share.ok() || Sha256::Hash(ConstByteSpan(rebuilt).subspan(front)) !=
                           shard_hashes[shard]) {
      failed(1);
      continue;
    }
    DepSkyShardHeader header = *survivor;
    header.shard_index = shard;
    header.WriteTo(unit, config_.auth_key, ByteSpan(rebuilt).first(front));
    auto object = std::make_shared<const Bytes>(std::move(rebuilt));
    const std::string key = ValueKey(unit, version, index, shard);
    // Its own cloud first, if that cloud answered and holds nothing else of
    // the unit; else any cloud that answered and holds nothing of it. The
    // name carries the shard index, so the next LIST shows where it went.
    std::vector<unsigned> targets = {home};
    for (unsigned c = 0; c < clouds_.size(); ++c) {
      if (c != home) {
        targets.push_back(c);
      }
    }
    bool placed = false;
    for (unsigned target : targets) {
      if (!listing.answered[target] ||
          (occupied[target] &&
           cloud_shard[target] != static_cast<int32_t>(shard)) ||
          !RobustPut(target, key, object).Get().ok()) {
        continue;
      }
      ApplyAclsToObject(acls, target, key);
      occupied[target] = true;
      ++(target == home ? report->objects_repaired : report->objects_relocated);
      placed = true;
      break;
    }
    if (!placed) {
      failed(1);
    }
  }
  arena_pool_.Release(std::move(arena));
}

std::vector<DepSkyVersion> DepSkyClient::Resolved(const std::string& unit,
                                                  const Listing& listing) {
  std::vector<DepSkyVersion> versions;
  for (const ListedVersion& listed : listing.versions) {
    auto record = ResolveRecord(unit, listing, listed);
    if (record.ok() &&
        listed.Listers(record->stripe_units.size()) >= config_.k()) {
      versions.push_back(*std::move(record));
    }
  }
  return versions;
}

Result<DepSkyScrubReport> DepSkyClient::ScrubUnit(const std::string& unit) {
  // Every cloud's answer: the scrub needs each unit's holders exactly.
  ASSIGN_OR_RETURN(Listing listing, List(unit, std::string(), true));
  DepSkyScrubReport report;
  std::optional<Result<DepSkyGrants>> stored_grants;  // read on first repair
  for (const DepSkyVersion& version : Resolved(unit, listing)) {
    report.versions_checked++;
    for (size_t u = 0; u < version.stripe_units.size(); ++u) {
      ScrubStripeUnit(unit, listing, version, u, &stored_grants, &report);
    }
  }
  return report;
}

Result<std::vector<DepSkyVersion>> DepSkyClient::ListVersions(
    const std::string& unit) {
  ASSIGN_OR_RETURN(Listing listing, List(unit, std::string(), true));
  return Resolved(unit, listing);
}

Status DepSkyClient::DeleteVersion(const std::string& unit,
                                   const std::string& content_hash) {
  ASSIGN_OR_RETURN(Listing listing, List(unit, std::string(), true));
  for (const ListedVersion& listed : listing.versions) {
    if (listed.content_hash != content_hash) {
      continue;
    }
    // Only a name a header certifies: a forged one must not stand in for
    // the version the caller means.
    auto record = ResolveRecord(unit, listing, listed);
    if (!record.ok()) {
      continue;
    }
    std::vector<Future<Status>> futures;
    for (const auto& [index, holders] : listed.units) {
      for (unsigned c = 0; c < holders.size(); ++c) {
        if (holders[c] >= 0) {
          futures.push_back(clouds_[c].store->DeleteAsync(
              clouds_[c].creds, ValueKey(unit, *record, index,
                                         static_cast<unsigned>(holders[c]))));
        }
      }
    }
    WhenAll<Status>(std::move(futures)).Join();
    return OkStatus();  // best effort: missing replicas are fine
  }
  return NotFoundError("version " + content_hash + " of " + unit +
                       " not listed");
}

Status DepSkyClient::DeleteUnit(const std::string& unit) {
  // List the unit's prefix: every version's objects, the grant object, and
  // the objects of writes that failed, which fresh names mean no later
  // write ever overwrites.
  const std::string prefix = UnitPrefix(unit);
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
  const std::vector<Result<std::vector<ObjectInfo>>> listed =
      ListEvery(prefix);
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
  ASSIGN_OR_RETURN(DepSkyGrants stored, ReadGrants(unit));
  stored.sequence++;
  if (stored.owner_ids.empty()) {
    for (const auto& cloud : clouds_) {
      stored.owner_ids.push_back(cloud.creds.canonical_id);
    }
  }
  // A revocation stays stored as a grant of nothing: it must override the
  // grant a version's headers recorded when a scrub rebuilds its objects.
  OverrideGrants({grant}, &stored.grants);
  RETURN_IF_ERROR(PushGrants(unit, stored));

  // Apply to every object the clouds list under the unit.
  ObjectPermissions perms;
  perms.read = grant.read;
  perms.write = grant.write;
  const std::vector<Result<std::vector<ObjectInfo>>> listed =
      ListEvery(UnitPrefix(unit));
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    if (!listed[i].ok() || i >= grant.cloud_ids.size() ||
        grant.cloud_ids[i].empty()) {
      continue;
    }
    for (const auto& object : *listed[i]) {
      (void)clouds_[i].store->SetAcl(clouds_[i].creds, object.key,
                                     grant.cloud_ids[i], perms);
    }
  }
  return OkStatus();
}

}  // namespace scfs
