// The cloud storage abstraction SCFS is allowed to assume (paper §2.1,
// service-agnosticism): on-demand object PUT/GET/DELETE/LIST plus basic ACLs.
// Nothing else — no server-side code, no notifications, no transactions.

#ifndef SCFS_CLOUD_OBJECT_STORE_H_
#define SCFS_CLOUD_OBJECT_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/acl.h"
#include "src/common/bytes.h"
#include "src/common/future.h"
#include "src/common/status.h"
#include "src/sim/time.h"

namespace scfs {

struct ObjectInfo {
  std::string key;
  uint64_t size = 0;
  CanonicalId owner;
  VirtualTime created = 0;  // creation time (S3 LIST exposes LastModified)
};

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // Creates or overwrites `key`. Overwrites of eventually-consistent stores
  // become visible to readers only after the provider's consistency window.
  //
  // The store shares ownership of the payload instead of taking a private
  // copy, so one encoded buffer can back several attempts (robust-call
  // retries, quorum fallback waves) and then become the stored version with
  // zero further copies. Callers must never mutate the buffer after handoff.
  virtual Status Put(const CloudCredentials& creds, const std::string& key,
                     std::shared_ptr<const Bytes> data) = 0;
  Status Put(const CloudCredentials& creds, const std::string& key,
             Bytes data) {
    return Put(creds, key, std::make_shared<const Bytes>(std::move(data)));
  }

  // Returns the latest *visible* version, which may lag the latest write.
  virtual Result<Bytes> Get(const CloudCredentials& creds,
                            const std::string& key) = 0;

  virtual Status Delete(const CloudCredentials& creds,
                        const std::string& key) = 0;

  virtual Result<std::vector<ObjectInfo>> List(const CloudCredentials& creds,
                                               const std::string& prefix) = 0;

  // ACL manipulation; only the object owner may change grants.
  virtual Status SetAcl(const CloudCredentials& creds, const std::string& key,
                        const CanonicalId& grantee,
                        ObjectPermissions permissions) = 0;
  virtual Result<ObjectAcl> GetAcl(const CloudCredentials& creds,
                                   const std::string& key) = 0;

  virtual const std::string& provider_name() const = 0;

  // -- Asynchronous variants ------------------------------------------------
  //
  // The default adapters run the blocking virtual inline and return a ready
  // future with zero charge (the caller was already charged by the inline
  // call), so every existing implementation keeps working unchanged.
  // Implementations that are safe to call from multiple threads
  // (SimulatedCloud) override these: the call returns immediately, the
  // returned future carries the producer's modelled charge, and several
  // requests genuinely overlap — the substrate of DepSky's quorum fan-out
  // and the non-blocking close pipeline.

  virtual Future<Status> PutAsync(const CloudCredentials& creds,
                                  const std::string& key,
                                  std::shared_ptr<const Bytes> data);
  Future<Status> PutAsync(const CloudCredentials& creds, const std::string& key,
                          Bytes data) {
    return PutAsync(creds, key,
                    std::make_shared<const Bytes>(std::move(data)));
  }
  virtual Future<Result<Bytes>> GetAsync(const CloudCredentials& creds,
                                         const std::string& key);
  virtual Future<Status> DeleteAsync(const CloudCredentials& creds,
                                     const std::string& key);
  virtual Future<Result<std::vector<ObjectInfo>>> ListAsync(
      const CloudCredentials& creds, const std::string& prefix);
  virtual Future<Status> SetAclAsync(const CloudCredentials& creds,
                                     const std::string& key,
                                     const CanonicalId& grantee,
                                     ObjectPermissions permissions);
};

}  // namespace scfs

#endif  // SCFS_CLOUD_OBJECT_STORE_H_
