#include "src/depsky/metadata.h"

#include "src/crypto/hmac.h"

namespace scfs {

namespace {

// Tag of the trailing stripe-manifest section. The section is appended only
// when some version is striped, so metadata without striped versions encodes
// (and authenticates) byte-identically to the pre-stripe format.
constexpr uint32_t kStripeSectionMagic = 0x53545250;  // "STRP"

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
    AppendU64(&out, v.version);
    AppendU64(&out, v.object_id);
    AppendString(&out, v.content_hash);
    AppendU64(&out, v.size);
    AppendBytes(&out, v.nonce);
    AppendU32(&out, static_cast<uint32_t>(v.shard_hashes.size()));
    for (const auto& h : v.shard_hashes) {
      AppendBytes(&out, h);
    }
    AppendU32(&out, static_cast<uint32_t>(v.cloud_shard.size()));
    for (int32_t s : v.cloud_shard) {
      AppendU32(&out, static_cast<uint32_t>(s));
    }
  }
  AppendU32(&out, static_cast<uint32_t>(md.grants.size()));
  for (const auto& g : md.grants) {
    AppendU32(&out, static_cast<uint32_t>(g.cloud_ids.size()));
    for (const auto& id : g.cloud_ids) {
      AppendString(&out, id);
    }
    out.push_back(static_cast<uint8_t>((g.read ? 1 : 0) | (g.write ? 2 : 0)));
  }
  uint32_t striped_count = 0;
  for (const auto& v : md.versions) {
    if (v.striped()) {
      ++striped_count;
    }
  }
  if (striped_count > 0) {
    AppendU32(&out, kStripeSectionMagic);
    AppendU32(&out, striped_count);
    for (size_t i = 0; i < md.versions.size(); ++i) {
      const auto& v = md.versions[i];
      if (!v.striped()) {
        continue;
      }
      AppendU32(&out, static_cast<uint32_t>(i));
      AppendU64(&out, v.stripe_unit_size);
      AppendU32(&out, static_cast<uint32_t>(v.stripe_units.size()));
      for (const auto& u : v.stripe_units) {
        AppendBytes(&out, u.content_hash);
        AppendU32(&out, static_cast<uint32_t>(u.shard_hashes.size()));
        for (const auto& h : u.shard_hashes) {
          AppendBytes(&out, h);
        }
        AppendU32(&out, static_cast<uint32_t>(u.cloud_shard.size()));
        for (int32_t s : u.cloud_shard) {
          AppendU32(&out, static_cast<uint32_t>(s));
        }
      }
    }
  }
  return out;
}
}  // namespace

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
  if (!reader.ReadU32(&version_count)) {
    return CorruptionError("bad depsky metadata header");
  }
  md.versions.resize(version_count);
  for (auto& v : md.versions) {
    uint32_t shard_count = 0;
    uint32_t cloud_count = 0;
    if (!reader.ReadU64(&v.version) || !reader.ReadU64(&v.object_id) ||
        !reader.ReadString(&v.content_hash) ||
        !reader.ReadU64(&v.size) || !reader.ReadBytes(&v.nonce) ||
        !reader.ReadU32(&shard_count)) {
      return CorruptionError("bad depsky version record");
    }
    v.shard_hashes.resize(shard_count);
    for (auto& h : v.shard_hashes) {
      if (!reader.ReadBytes(&h)) {
        return CorruptionError("bad depsky shard hash");
      }
    }
    if (!reader.ReadU32(&cloud_count)) {
      return CorruptionError("bad depsky cloud map");
    }
    v.cloud_shard.resize(cloud_count);
    for (auto& s : v.cloud_shard) {
      uint32_t raw = 0;
      if (!reader.ReadU32(&raw)) {
        return CorruptionError("bad depsky cloud map entry");
      }
      s = static_cast<int32_t>(raw);
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
  // Trailing stripe-manifest section; absent in pre-stripe encodings and for
  // metadata whose versions are all monolithic.
  if (!reader.AtEnd()) {
    uint32_t magic = 0;
    uint32_t striped_count = 0;
    if (!reader.ReadU32(&magic) || magic != kStripeSectionMagic ||
        !reader.ReadU32(&striped_count)) {
      return CorruptionError("bad depsky stripe section");
    }
    for (uint32_t s = 0; s < striped_count; ++s) {
      uint32_t version_index = 0;
      if (!reader.ReadU32(&version_index) ||
          version_index >= md.versions.size()) {
        return CorruptionError("bad depsky stripe version index");
      }
      auto& v = md.versions[version_index];
      uint32_t unit_count = 0;
      if (!reader.ReadU64(&v.stripe_unit_size) || v.stripe_unit_size == 0 ||
          !reader.ReadU32(&unit_count)) {
        return CorruptionError("bad depsky stripe manifest");
      }
      v.stripe_units.resize(unit_count);
      for (auto& u : v.stripe_units) {
        uint32_t shard_count = 0;
        uint32_t cloud_count = 0;
        if (!reader.ReadBytes(&u.content_hash) ||
            !reader.ReadU32(&shard_count)) {
          return CorruptionError("bad depsky stripe unit");
        }
        u.shard_hashes.resize(shard_count);
        for (auto& h : u.shard_hashes) {
          if (!reader.ReadBytes(&h)) {
            return CorruptionError("bad depsky stripe shard hash");
          }
        }
        if (!reader.ReadU32(&cloud_count)) {
          return CorruptionError("bad depsky stripe cloud map");
        }
        u.cloud_shard.resize(cloud_count);
        for (auto& c : u.cloud_shard) {
          uint32_t raw = 0;
          if (!reader.ReadU32(&raw)) {
            return CorruptionError("bad depsky stripe cloud entry");
          }
          c = static_cast<int32_t>(raw);
        }
      }
    }
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
