// BlobBackend: the pluggable storage backplane of the SCFS agent.
//
// The agent's storage service talks to one of these; the two provided
// implementations are the paper's two backends (Figure 5):
//   - SingleCloudBackend: Amazon S3-style single provider (SCFS-AWS). Value
//     objects are keyed id|hash, exactly as the consistency-anchor write
//     algorithm prescribes, so they are never overwritten and eventual
//     consistency only affects freshly created keys.
//   - DepSkyBackend: the cloud-of-clouds (SCFS-CoC), tolerating f arbitrary
//     provider faults with encryption, erasure codes and secret sharing.

#ifndef SCFS_SCFS_BLOB_BACKEND_H_
#define SCFS_SCFS_BLOB_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/object_store.h"
#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/depsky/depsky.h"

namespace scfs {

// A grantee's accounts across the backend's clouds (one entry for a single
// cloud backend; one per provider for the CoC).
struct BackendGrant {
  std::vector<CanonicalId> cloud_ids;
  bool read = false;
  bool write = false;
};

struct BlobVersionInfo {
  std::string content_hash;
  uint64_t size = 0;
};

class BlobBackend {
 public:
  virtual ~BlobBackend() = default;

  // Stores a new immutable version of data unit `id` under `content_hash`
  // (hex SHA-1 of `data`), applying `grants` to the created objects. `data`
  // is a borrowed view, valid only for the duration of the call; the backend
  // copies it exactly where the wire format demands ownership.
  //
  // Returns once the version is readable through its locator: opaque bytes
  // the caller anchors next to the hash and hands back to ReadByHash — the
  // encoded DepSky version record for DepSkyBackend (its reads then skip
  // the LIST), empty for SingleCloudBackend (the key id|hash is all it
  // needs). Like the hash, a locator is only as trustworthy as the store
  // that anchors it; a wrong one can fail a read, never change the bytes it
  // returns. An anchored write passes the locator of the version it
  // replaces as `predecessor` (empty if none) and the version its anchor
  // gives it as `anchored_version`; DepSkyBackend numbers the version from
  // them without reading the clouds. Both empty: an unanchored write.
  virtual Result<Bytes> WriteVersion(const std::string& id,
                                     const std::string& content_hash,
                                     ConstByteSpan data,
                                     const std::vector<BackendGrant>& grants,
                                     const Bytes& predecessor,
                                     uint64_t anchored_version) = 0;
  // An unanchored write.
  Result<Bytes> WriteVersion(const std::string& id,
                             const std::string& content_hash,
                             ConstByteSpan data,
                             const std::vector<BackendGrant>& grants) {
    return WriteVersion(id, content_hash, data, grants, Bytes{}, 0);
  }

  // Reads the version with the given hash, starting from the locator
  // WriteVersion returned for it (empty: locate the version by the hash
  // alone); NOT_FOUND while the version is not yet visible (the
  // consistency-anchor read loop retries). Only bytes whose SHA-1 is
  // `content_hash` are returned; others are CORRUPTION.
  virtual Result<Bytes> ReadByHash(const std::string& id,
                                   const std::string& content_hash,
                                   const Bytes& locator) = 0;

  // Reads the newest visible version (used only by private name spaces and
  // the non-sharing mode, which have no consistency anchor).
  virtual Result<Bytes> ReadLatest(const std::string& id) = 0;

  // Probes and repairs the stored redundancy of one unit (see
  // DepSkyClient::ScrubUnit). Backends without background repair return a
  // default (all-healthy) report.
  virtual Result<DepSkyScrubReport> ScrubUnit(const std::string& id) {
    (void)id;
    return DepSkyScrubReport{};
  }

  // Versions oldest-to-newest (for the garbage collector's keep-last-V).
  virtual Result<std::vector<BlobVersionInfo>> ListVersions(
      const std::string& id) = 0;
  virtual Status DeleteVersionByHash(const std::string& id,
                                     const std::string& content_hash) = 0;
  virtual Status DeleteUnit(const std::string& id) = 0;

  // Applies a grant to all existing objects of the unit (setfacl step (i) of
  // paper §2.6).
  virtual Status SetGrant(const std::string& id,
                          const BackendGrant& grant) = 0;

  // Durability level of a completed cloud write (Table 1): 2 for a single
  // cloud, 3 for the cloud-of-clouds.
  virtual int durability_level() const = 0;

  // Number of clouds (for building BackendGrant::cloud_ids).
  virtual unsigned cloud_count() const = 0;
};

// ---------------------------------------------------------------------------

class SingleCloudBackend : public BlobBackend {
 public:
  SingleCloudBackend(ObjectStore* store, CloudCredentials creds)
      : store_(store), creds_(std::move(creds)) {}

  using BlobBackend::WriteVersion;
  // The key id|hash names the version; an anchor adds nothing to it.
  Result<Bytes> WriteVersion(const std::string& id,
                             const std::string& content_hash,
                             ConstByteSpan data,
                             const std::vector<BackendGrant>& grants,
                             const Bytes& predecessor,
                             uint64_t anchored_version) override;
  Result<Bytes> ReadByHash(const std::string& id,
                           const std::string& content_hash,
                           const Bytes& locator) override;
  Result<Bytes> ReadLatest(const std::string& id) override;
  Result<std::vector<BlobVersionInfo>> ListVersions(
      const std::string& id) override;
  Status DeleteVersionByHash(const std::string& id,
                             const std::string& content_hash) override;
  Status DeleteUnit(const std::string& id) override;
  Status SetGrant(const std::string& id, const BackendGrant& grant) override;
  int durability_level() const override { return 2; }
  unsigned cloud_count() const override { return 1; }

 private:
  // Key layout: "du/<id>/<hash>" — value objects are keyed id|hash exactly as
  // the consistency-anchor write prescribes, so they are never overwritten.
  std::string Prefix(const std::string& id) const { return "du/" + id + "/"; }
  std::string VersionKey(const std::string& id, const std::string& hash) const {
    return Prefix(id) + hash;
  }

  ObjectStore* store_;
  CloudCredentials creds_;
};

class DepSkyBackend : public BlobBackend {
 public:
  explicit DepSkyBackend(std::shared_ptr<DepSkyClient> client)
      : client_(std::move(client)) {}

  using BlobBackend::WriteVersion;
  // DepSkyClient::WriteVersion: the locator is the encoded DepSkyVersion
  // record, the predecessor the same encoding (one that does not decode is
  // ignored). The version number is max(predecessor's + 1,
  // `anchored_version`), or, with neither, the client's unanchored LIST.
  Result<Bytes> WriteVersion(const std::string& id,
                             const std::string& content_hash,
                             ConstByteSpan data,
                             const std::vector<BackendGrant>& grants,
                             const Bytes& predecessor,
                             uint64_t anchored_version) override;
  // With a locator: DepSkyClient::ReadVersion, no LIST (a locator
  // that does not decode, or names another hash, costs one counted
  // fallback to the hash). Without: DepSkyClient::ReadByHash.
  Result<Bytes> ReadByHash(const std::string& id,
                           const std::string& content_hash,
                           const Bytes& locator) override;
  Result<Bytes> ReadLatest(const std::string& id) override;
  Result<std::vector<BlobVersionInfo>> ListVersions(
      const std::string& id) override;
  Status DeleteVersionByHash(const std::string& id,
                             const std::string& content_hash) override;
  Status DeleteUnit(const std::string& id) override;
  Status SetGrant(const std::string& id, const BackendGrant& grant) override;
  Result<DepSkyScrubReport> ScrubUnit(const std::string& id) override;
  int durability_level() const override { return 3; }
  unsigned cloud_count() const override { return client_->cloud_count(); }

 private:
  std::shared_ptr<DepSkyClient> client_;
};

}  // namespace scfs

#endif  // SCFS_SCFS_BLOB_BACKEND_H_
