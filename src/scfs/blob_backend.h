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
#include <optional>
#include <string>
#include <vector>

#include "src/cloud/object_store.h"
#include <functional>

#include "src/common/bytes.h"
#include "src/common/future.h"
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

// A version stored up to the backend's data quorum (StartVersion).
struct StartedVersion {
  // Opaque bytes the caller anchors next to the hash (see StartVersion).
  Bytes locator;
  // Starts the rest of the write — for DepSkyBackend its metadata
  // (DepSkyWrite::finish); nothing for a backend with none. Call it once
  // the locator is anchored, never if the anchor failed, with the time the
  // caller handed the id to the next writer (SCFS: sent the publish that
  // releases the file lock), or nullopt while no next writer can start.
  // Recovery tools that list versions rather than follow the anchor
  // (ListVersions, ReadLatest) see the version once the future it returns
  // completes OK.
  std::function<Future<Status>(std::optional<VirtualTime> handed_off)> finish;
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
  // the metadata round), empty for SingleCloudBackend (the key id|hash is
  // all it needs). Like the hash, a locator is only as trustworthy as the
  // store that anchors it; a wrong one can fail a read, never change the
  // bytes it returns. `predecessor` is the locator of the version this one
  // replaces (empty if none or unknown).
  virtual Result<StartedVersion> StartVersion(
      const std::string& id, const std::string& content_hash,
      ConstByteSpan data, const std::vector<BackendGrant>& grants,
      const Bytes& predecessor) = 0;
  // StartVersion with no predecessor, then its finish, waited to its end;
  // returns the locator.
  Result<Bytes> WriteVersion(const std::string& id,
                             const std::string& content_hash,
                             ConstByteSpan data,
                             const std::vector<BackendGrant>& grants);

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

  // The whole write happens before it returns; finish has nothing to do.
  Result<StartedVersion> StartVersion(
      const std::string& id, const std::string& content_hash,
      ConstByteSpan data, const std::vector<BackendGrant>& grants,
      const Bytes& predecessor) override;
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

  // DepSkyClient::StartWrite: the locator is the encoded DepSkyVersion
  // record, the predecessor the same encoding (one that does not decode is
  // ignored), and finish DepSkyWrite::finish, the write-behind of the
  // metadata.
  Result<StartedVersion> StartVersion(
      const std::string& id, const std::string& content_hash,
      ConstByteSpan data, const std::vector<BackendGrant>& grants,
      const Bytes& predecessor) override;
  // With a locator: DepSkyClient::ReadVersion, no metadata round (a locator
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
