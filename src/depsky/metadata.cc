#include "src/depsky/metadata.h"

#include "src/crypto/hmac.h"

namespace scfs {

namespace {

void AppendHashes(Bytes* out, const std::vector<Bytes>& hashes) {
  AppendU32(out, static_cast<uint32_t>(hashes.size()));
  for (const auto& h : hashes) {
    AppendBytes(out, h);
  }
}

void AppendCloudMap(Bytes* out, const std::vector<int32_t>& cloud_shard) {
  AppendU32(out, static_cast<uint32_t>(cloud_shard.size()));
  for (int32_t s : cloud_shard) {
    AppendU32(out, static_cast<uint32_t>(s));
  }
}

// A count followed by that many entries of at least four bytes each; a
// count the remaining input cannot hold is rejected before anything is
// allocated for it.
bool ReadCount(ByteReader* reader, uint32_t* count) {
  return reader->ReadU32(count) && *count <= reader->remaining() / 4;
}

bool ReadHashes(ByteReader* reader, std::vector<Bytes>* hashes) {
  uint32_t count = 0;
  if (!ReadCount(reader, &count)) {
    return false;
  }
  hashes->resize(count);
  for (auto& h : *hashes) {
    if (!reader->ReadBytes(&h)) {
      return false;
    }
  }
  return true;
}

bool ReadCloudMap(ByteReader* reader, std::vector<int32_t>* cloud_shard) {
  uint32_t count = 0;
  if (!ReadCount(reader, &count)) {
    return false;
  }
  cloud_shard->resize(count);
  for (auto& s : *cloud_shard) {
    uint32_t raw = 0;
    if (!reader->ReadU32(&raw)) {
      return false;
    }
    s = static_cast<int32_t>(raw);
  }
  return true;
}

Bytes EncodeBody(const DepSkyMetadata& md) {
  Bytes out;
  AppendU32(&out, md.n);
  AppendU32(&out, md.k);
  out.push_back(static_cast<uint8_t>(md.mode));
  AppendU32(&out, static_cast<uint32_t>(md.owner_ids.size()));
  for (const auto& id : md.owner_ids) {
    AppendString(&out, id);
  }
  AppendU32(&out, static_cast<uint32_t>(md.versions.size()));
  for (const auto& v : md.versions) {
    v.EncodeTo(&out);
  }
  AppendU32(&out, static_cast<uint32_t>(md.grants.size()));
  for (const auto& g : md.grants) {
    AppendU32(&out, static_cast<uint32_t>(g.cloud_ids.size()));
    for (const auto& id : g.cloud_ids) {
      AppendString(&out, id);
    }
    out.push_back(static_cast<uint8_t>((g.read ? 1 : 0) | (g.write ? 2 : 0)));
  }
  return out;
}
}  // namespace

void DepSkyVersion::EncodeTo(Bytes* out) const {
  AppendU64(out, version);
  AppendU64(out, object_id);
  AppendString(out, content_hash);
  AppendU64(out, size);
  AppendBytes(out, nonce);
  AppendU64(out, stripe_unit_size);
  AppendU32(out, static_cast<uint32_t>(stripe_units.size()));
  for (const auto& u : stripe_units) {
    AppendBytes(out, u.content_hash);
    AppendHashes(out, u.shard_hashes);
    AppendCloudMap(out, u.cloud_shard);
  }
}

bool DepSkyVersion::DecodeFrom(ByteReader* reader, DepSkyVersion* out) {
  uint32_t unit_count = 0;
  if (!reader->ReadU64(&out->version) || !reader->ReadU64(&out->object_id) ||
      !reader->ReadString(&out->content_hash) || !reader->ReadU64(&out->size) ||
      !reader->ReadBytes(&out->nonce) ||
      !reader->ReadU64(&out->stripe_unit_size) ||
      out->stripe_unit_size == 0 || out->stripe_unit_size % 64 != 0 ||
      !ReadCount(reader, &unit_count) ||
      unit_count != UnitCount(out->size, out->stripe_unit_size)) {
    return false;
  }
  out->stripe_units.resize(unit_count);
  for (auto& u : out->stripe_units) {
    if (!reader->ReadBytes(&u.content_hash) ||
        !ReadHashes(reader, &u.shard_hashes) ||
        !ReadCloudMap(reader, &u.cloud_shard)) {
      return false;
    }
  }
  return true;
}

Bytes DepSkyVersion::Encode() const {
  Bytes out;
  EncodeTo(&out);
  return out;
}

Result<DepSkyVersion> DepSkyVersion::Decode(const Bytes& data) {
  DepSkyVersion version;
  ByteReader reader(data);
  if (!DecodeFrom(&reader, &version) || !reader.AtEnd()) {
    return CorruptionError("bad depsky version record");
  }
  return version;
}

Bytes DepSkyMetadata::Encode(const Bytes& auth_key) const {
  Bytes body = EncodeBody(*this);
  Bytes mac = HmacSha256(auth_key, body);
  Bytes out;
  AppendBytes(&out, body);
  AppendBytes(&out, mac);
  return out;
}

Result<DepSkyMetadata> DepSkyMetadata::Decode(const Bytes& data,
                                              const Bytes& auth_key) {
  ByteReader outer(data);
  Bytes body;
  Bytes mac;
  if (!outer.ReadBytes(&body) || !outer.ReadBytes(&mac)) {
    return CorruptionError("truncated depsky metadata");
  }
  if (!HmacSha256Verify(auth_key, body, mac)) {
    return CorruptionError("depsky metadata authenticator mismatch");
  }

  DepSkyMetadata md;
  ByteReader reader(body);
  uint8_t mode = 0;
  uint32_t version_count = 0;
  uint32_t owner_count = 0;
  if (!reader.ReadU32(&md.n) || !reader.ReadU32(&md.k) ||
      !reader.ReadU8(&mode) || !reader.ReadU32(&owner_count)) {
    return CorruptionError("bad depsky metadata header");
  }
  md.mode = static_cast<DepSkyMode>(mode);
  md.owner_ids.resize(owner_count);
  for (auto& id : md.owner_ids) {
    if (!reader.ReadString(&id)) {
      return CorruptionError("bad depsky owner id");
    }
  }
  if (!ReadCount(&reader, &version_count)) {
    return CorruptionError("bad depsky metadata header");
  }
  md.versions.resize(version_count);
  for (auto& v : md.versions) {
    if (!DepSkyVersion::DecodeFrom(&reader, &v)) {
      return CorruptionError("bad depsky version record");
    }
  }
  uint32_t grant_count = 0;
  if (!reader.ReadU32(&grant_count)) {
    return CorruptionError("bad depsky grant count");
  }
  md.grants.resize(grant_count);
  for (auto& g : md.grants) {
    uint32_t id_count = 0;
    if (!reader.ReadU32(&id_count)) {
      return CorruptionError("bad depsky grant");
    }
    g.cloud_ids.resize(id_count);
    for (auto& id : g.cloud_ids) {
      if (!reader.ReadString(&id)) {
        return CorruptionError("bad depsky grant id");
      }
    }
    uint8_t perms = 0;
    if (!reader.ReadU8(&perms)) {
      return CorruptionError("bad depsky grant perms");
    }
    g.read = (perms & 1) != 0;
    g.write = (perms & 2) != 0;
  }
  if (!reader.AtEnd()) {
    return CorruptionError("trailing bytes in depsky metadata");
  }
  return md;
}

const DepSkyVersion* DepSkyMetadata::FindByHash(
    const std::string& content_hash) const {
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    if (it->content_hash == content_hash) {
      return &*it;
    }
  }
  return nullptr;
}

Bytes DepSkyValueObject::Encode() const {
  return EncodeParts(shard, share_index, share_data);
}

Bytes DepSkyValueObject::EncodeParts(ConstByteSpan shard, uint8_t share_index,
                                     ConstByteSpan share_data) {
  Bytes out;
  out.reserve(shard.size() + share_data.size() + 9);
  AppendBytes(&out, shard);
  out.push_back(share_index);
  AppendBytes(&out, share_data);
  return out;
}

Result<DepSkyValueObject> DepSkyValueObject::Decode(const Bytes& data) {
  DepSkyValueObject obj;
  ByteReader reader(data);
  if (!reader.ReadBytes(&obj.shard) || !reader.ReadU8(&obj.share_index) ||
      !reader.ReadBytes(&obj.share_data)) {
    return CorruptionError("bad depsky value object");
  }
  return obj;
}

}  // namespace scfs
