// SimulatedCloud: an in-process object store that behaves like a 2013-era
// public storage cloud — wide-area latency, limited transfer bandwidth,
// *eventual consistency* on overwrites, per-object ACLs, request pricing and
// injectable faults (outage / corruption / byzantine stale answers).

#ifndef SCFS_CLOUD_SIMULATED_CLOUD_H_
#define SCFS_CLOUD_SIMULATED_CLOUD_H_

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/cloud/cost_meter.h"
#include "src/cloud/object_store.h"
#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/common/timer_queue.h"
#include "src/sim/environment.h"
#include "src/sim/fault.h"
#include "src/sim/latency.h"

namespace scfs {

struct CloudProfile {
  std::string name = "cloud";
  LatencyModel read_latency;
  LatencyModel write_latency;
  LatencyModel control_latency;     // DELETE/LIST/ACL round trips
  VirtualDuration consistency_window_base = 0;   // visibility delay after PUT
  VirtualDuration consistency_window_jitter = 0;
  PriceBook prices;
  VmPricing vm_prices;
};

class SimulatedCloud : public ObjectStore {
 public:
  SimulatedCloud(CloudProfile profile, Environment* env, uint64_t seed);
  // Waits for every in-flight asynchronous request (quorum fan-outs may
  // return to the caller while a straggler request is still modelled).
  ~SimulatedCloud() override;

  // The Bytes convenience overloads live on the base; re-expose them beside
  // the shared-buffer overrides (C++ name hiding would otherwise swallow
  // them for callers holding a SimulatedCloud*).
  using ObjectStore::Put;
  using ObjectStore::PutAsync;

  Status Put(const CloudCredentials& creds, const std::string& key,
             std::shared_ptr<const Bytes> data) override;
  Result<Bytes> Get(const CloudCredentials& creds,
                    const std::string& key) override;
  Status Delete(const CloudCredentials& creds,
                const std::string& key) override;
  Result<std::vector<ObjectInfo>> List(const CloudCredentials& creds,
                                       const std::string& prefix) override;
  Status SetAcl(const CloudCredentials& creds, const std::string& key,
                const CanonicalId& grantee,
                ObjectPermissions permissions) override;
  Result<ObjectAcl> GetAcl(const CloudCredentials& creds,
                           const std::string& key) override;

  const std::string& provider_name() const override { return profile_.name; }

  // True-overlap async API: the returned future carries the request's
  // modelled charge, and all state is internally locked, so any number of
  // requests may be in flight at once. A request holds no thread while its
  // modelled latency passes: the cloud's timer queue wakes it, and only the
  // steps that touch the store (and the future's continuations) run on the
  // shared executor.
  Future<Status> PutAsync(const CloudCredentials& creds, const std::string& key,
                          std::shared_ptr<const Bytes> data) override;
  Future<Result<Bytes>> GetAsync(const CloudCredentials& creds,
                                 const std::string& key) override;
  Future<Status> DeleteAsync(const CloudCredentials& creds,
                             const std::string& key) override;
  Future<Result<std::vector<ObjectInfo>>> ListAsync(
      const CloudCredentials& creds, const std::string& prefix) override;
  Future<Status> SetAclAsync(const CloudCredentials& creds,
                             const std::string& key, const CanonicalId& grantee,
                             ObjectPermissions permissions) override;

  FaultInjector& faults() { return faults_; }
  CostMeter& costs() { return costs_; }
  const CloudProfile& profile() const { return profile_; }

  // Waits for every in-flight asynchronous request to settle. Benchmarks and
  // tests call this before sampling costs()/List(): a quorum fan-out returns
  // to the caller while a straggler PUT may still be modelled, so an
  // unquiesced readout races with it.
  void Quiesce() { async_ops_.AwaitIdle(); }

  // Test/inspection hook: the latest stored version regardless of visibility.
  Result<Bytes> PeekLatest(const std::string& key);

 private:
  struct Version {
    // Shared with the writer that produced it (see ObjectStore::Put): the
    // stored version IS the caller's encoded buffer, no ingest copy.
    std::shared_ptr<const Bytes> data;
    VirtualTime visible_at = 0;
  };
  struct Object {
    std::deque<Version> versions;  // oldest first; pruned as they supersede
    ObjectAcl acl;
    VirtualTime created = 0;
  };

  // An asynchronous request in flight: fulfilled once, then released from
  // the tracker (after its continuations ran, as SubmitTracked does).
  template <typename T>
  struct Pending {
    Promise<T> promise;
    InFlightTracker* tracker;
    void Finish(T value, VirtualDuration charge) const {
      promise.Set(std::move(value), charge);
      tracker->Done();
    }
  };
  template <typename T>
  Pending<T> StartPending() {
    async_ops_.Add();
    return Pending<T>{Promise<T>(), &async_ops_};
  }

  // Returns the newest version visible at `now`, or nullptr.
  const Version* VisibleVersion(const Object& object, VirtualTime now) const;
  VirtualDuration SampleLatency(const LatencyModel& model, size_t bytes);
  void SleepFor(const LatencyModel& model, size_t bytes);
  // A degraded provider answers slowly before it answers at all; the extra
  // delay applies even to operations that then fail.
  void SleepDegradation();
  Status FailIfDown();
  // Runs `step` on the shared executor once `delay` of virtual time has
  // passed, holding no thread meanwhile (in an instant environment, whose
  // timers never fire, the worker advances the logical clock instead).
  void After(VirtualDuration delay, std::function<void()> step);
  // The asynchronous request shape shared by every operation: `latency`,
  // then the provider's degradation delay, then `apply` against the store,
  // called with the modelled time charged so far.
  void AfterRoundTrip(VirtualDuration latency,
                      std::function<void(VirtualDuration)> apply);

  // The store-side effect of each operation once its request arrives (the
  // availability check included), without the modelled delays.
  Status ApplyPut(const CloudCredentials& creds, const std::string& key,
                  std::shared_ptr<const Bytes> data);
  Result<std::shared_ptr<const Bytes>> ApplyGet(const CloudCredentials& creds,
                                                const std::string& key);
  Status ApplyDelete(const CloudCredentials& creds, const std::string& key);
  Result<std::vector<ObjectInfo>> ApplyList(const CloudCredentials& creds,
                                            const std::string& prefix);
  Status ApplySetAcl(const CloudCredentials& creds, const std::string& key,
                     const CanonicalId& grantee,
                     ObjectPermissions permissions);
  // The GET response: a copy of the stored buffer, corrupted when the
  // provider is set to corrupt reads.
  Bytes Respond(const Bytes& stored);
  // The GET round trip, before the payload's transfer time.
  LatencyModel GetRoundTrip() const;

  CloudProfile profile_;
  Environment* env_;
  std::mutex mu_;       // protects objects_
  std::mutex rng_mu_;   // protects rng_
  Rng rng_;
  FaultInjector faults_;
  CostMeter costs_;
  std::map<std::string, Object> objects_;
  uint64_t create_seq_ = 0;  // monotonic creation stamp for LIST ordering

  InFlightTracker async_ops_;
  VirtualTimerQueue timers_;
};

}  // namespace scfs

#endif  // SCFS_CLOUD_SIMULATED_CLOUD_H_
