#include "src/scfs/blob_backend.h"

#include <algorithm>

#include "src/crypto/sha1.h"

namespace scfs {

// ---------------------------------------------------------------------------
// SingleCloudBackend (SCFS-AWS)
// ---------------------------------------------------------------------------

Result<Bytes> SingleCloudBackend::WriteVersion(
    const std::string& id, const std::string& content_hash, ConstByteSpan data,
    const std::vector<BackendGrant>& grants, const Bytes& /*predecessor*/,
    uint64_t /*anchored_version*/) {
  const std::string key = VersionKey(id, content_hash);
  // The store takes ownership of what it keeps; this is the single
  // materialization on the single-cloud write path.
  RETURN_IF_ERROR(store_->Put(creds_, key, CopyToBytes(data)));
  for (const auto& grant : grants) {
    if (grant.cloud_ids.empty() || grant.cloud_ids[0].empty()) {
      continue;
    }
    ObjectPermissions perms;
    perms.read = grant.read;
    perms.write = grant.write;
    (void)store_->SetAcl(creds_, key, grant.cloud_ids[0], perms);
  }
  // The key id|hash locates the version.
  return Bytes{};
}

Result<Bytes> SingleCloudBackend::ReadByHash(const std::string& id,
                                             const std::string& content_hash,
                                             const Bytes& /*locator*/) {
  ASSIGN_OR_RETURN(Bytes data,
                   store_->Get(creds_, VersionKey(id, content_hash)));
  // The integrity check against the anchored hash (Figure 3, r3): one cloud
  // has no redundancy to mask a corrupted read, so it must surface.
  if (HexEncode(Sha1::Hash(data)) != content_hash) {
    return CorruptionError("version " + content_hash + " of " + id +
                           " does not match its hash");
  }
  return data;
}

Result<Bytes> SingleCloudBackend::ReadLatest(const std::string& id) {
  ASSIGN_OR_RETURN(std::vector<BlobVersionInfo> versions, ListVersions(id));
  if (versions.empty()) {
    return NotFoundError("no versions of " + id);
  }
  return ReadByHash(id, versions.back().content_hash, Bytes{});
}

Result<std::vector<BlobVersionInfo>> SingleCloudBackend::ListVersions(
    const std::string& id) {
  ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                   store_->List(creds_, Prefix(id)));
  std::sort(objects.begin(), objects.end(),
            [](const ObjectInfo& a, const ObjectInfo& b) {
              return a.created < b.created;
            });
  std::vector<BlobVersionInfo> out;
  out.reserve(objects.size());
  const size_t prefix_size = Prefix(id).size();
  for (const auto& object : objects) {
    BlobVersionInfo info;
    info.content_hash = object.key.substr(prefix_size);
    info.size = object.size;
    out.push_back(std::move(info));
  }
  return out;
}

Status SingleCloudBackend::DeleteVersionByHash(
    const std::string& id, const std::string& content_hash) {
  return store_->Delete(creds_, VersionKey(id, content_hash));
}

Status SingleCloudBackend::DeleteUnit(const std::string& id) {
  ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                   store_->List(creds_, Prefix(id)));
  for (const auto& object : objects) {
    (void)store_->Delete(creds_, object.key);
  }
  return OkStatus();
}

Status SingleCloudBackend::SetGrant(const std::string& id,
                                    const BackendGrant& grant) {
  if (grant.cloud_ids.empty() || grant.cloud_ids[0].empty()) {
    return InvalidArgumentError("grant without cloud id");
  }
  ObjectPermissions perms;
  perms.read = grant.read;
  perms.write = grant.write;
  ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                   store_->List(creds_, Prefix(id)));
  for (const auto& object : objects) {
    (void)store_->SetAcl(creds_, object.key, grant.cloud_ids[0], perms);
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// DepSkyBackend (SCFS-CoC)
// ---------------------------------------------------------------------------

namespace {
DepSkyGrant ToDepSkyGrant(const BackendGrant& grant) {
  DepSkyGrant out;
  out.cloud_ids = grant.cloud_ids;
  out.read = grant.read;
  out.write = grant.write;
  return out;
}
}  // namespace

Result<Bytes> DepSkyBackend::WriteVersion(
    const std::string& id, const std::string& content_hash, ConstByteSpan data,
    const std::vector<BackendGrant>& grants, const Bytes& predecessor,
    uint64_t anchored_version) {
  std::vector<DepSkyGrant> depsky_grants;
  depsky_grants.reserve(grants.size());
  for (const auto& grant : grants) {
    depsky_grants.push_back(ToDepSkyGrant(grant));
  }
  uint64_t version = anchored_version;
  Result<DepSkyVersion> pred = DepSkyVersion::Decode(predecessor);
  if (pred.ok()) {
    version = std::max(version, pred->version + 1);
  }
  ASSIGN_OR_RETURN(
      DepSkyVersion record,
      client_->WriteVersion(id, content_hash, data,
                            depsky_grants.empty() ? nullptr : &depsky_grants,
                            version));
  return record.Encode();
}

Result<Bytes> DepSkyBackend::ReadByHash(const std::string& id,
                                        const std::string& content_hash,
                                        const Bytes& locator) {
  if (locator.empty()) {
    return client_->ReadByHash(id, content_hash);
  }
  return client_->ReadVersion(id, content_hash, locator);
}

Result<Bytes> DepSkyBackend::ReadLatest(const std::string& id) {
  return client_->ReadLatest(id);
}

Result<std::vector<BlobVersionInfo>> DepSkyBackend::ListVersions(
    const std::string& id) {
  ASSIGN_OR_RETURN(std::vector<DepSkyVersion> versions,
                   client_->ListVersions(id));
  std::vector<BlobVersionInfo> out;
  out.reserve(versions.size());
  for (const auto& version : versions) {
    out.push_back(BlobVersionInfo{version.content_hash, version.size});
  }
  return out;
}

Status DepSkyBackend::DeleteVersionByHash(const std::string& id,
                                          const std::string& content_hash) {
  return client_->DeleteVersion(id, content_hash);
}

Status DepSkyBackend::DeleteUnit(const std::string& id) {
  return client_->DeleteUnit(id);
}

Status DepSkyBackend::SetGrant(const std::string& id,
                               const BackendGrant& grant) {
  return client_->SetGrant(id, ToDepSkyGrant(grant));
}

Result<DepSkyScrubReport> DepSkyBackend::ScrubUnit(const std::string& id) {
  return client_->ScrubUnit(id);
}

}  // namespace scfs
