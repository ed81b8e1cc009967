#include "src/scfs/consistency_anchor.h"

#include "src/crypto/sha1.h"

namespace scfs {

std::string AnchoredStorage::AnchorHash(ConstByteSpan value) {
  return HexEncode(Sha1::Hash(value));
}

Status AnchoredStorage::Write(const std::string& id, ConstByteSpan value) {
  // w1: hash; w2: store the data under id|h; w3: anchor the hash. Only the
  // hash: this is Figure 3 as published, so the backend's locator is
  // dropped and reads locate the version by the hash alone.
  const std::string hash = AnchorHash(value);
  RETURN_IF_ERROR(storage_->WriteVersion(id, hash, value, {}).status());
  return anchor_->Write(client_, "anchor:" + id, ToBytes(hash));
}

Result<Bytes> AnchoredStorage::ReadWithHash(const std::string& id,
                                            const std::string& hash) {
  // r2: loop until the version becomes visible in the eventually-consistent
  // store; r3: integrity check against the anchored hash.
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    auto value = storage_->ReadByHash(id, hash, Bytes{});
    if (value.ok()) {
      if (AnchorHash(*value) != hash) {
        return CorruptionError("anchored hash mismatch for " + id);
      }
      return value;
    }
    if (value.status().code() != ErrorCode::kNotFound) {
      return value.status();
    }
    env_->Sleep(options_.retry_delay);
  }
  return TimeoutError("version " + hash + " never became visible");
}

Result<Bytes> AnchoredStorage::Read(const std::string& id) {
  // r1: fetch the anchored hash from the strongly consistent store.
  ASSIGN_OR_RETURN(CoordEntry entry, anchor_->Read(client_, "anchor:" + id));
  return ReadWithHash(id, ToString(entry.value));
}

}  // namespace scfs
