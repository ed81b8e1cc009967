#include "src/depsky/metadata.h"

#include <algorithm>
#include <string_view>

#include "src/crypto/hmac.h"

namespace scfs {

namespace {

template <typename T, typename AppendOne>
void AppendList(Bytes* out, const std::vector<T>& items, AppendOne append) {
  AppendU32(out, static_cast<uint32_t>(items.size()));
  for (const T& item : items) {
    append(out, item);
  }
}

// A count followed by that many entries of at least four bytes each; a
// count the remaining input cannot hold is rejected before anything is
// allocated for it.
template <typename T, typename ReadOne>
bool ReadList(ByteReader* reader, std::vector<T>* items, ReadOne read) {
  uint32_t count = 0;
  if (!reader->ReadU32(&count) || count > reader->remaining() / 4) {
    return false;
  }
  items->resize(count);
  return std::all_of(items->begin(), items->end(),
                     [&](T& item) { return read(reader, &item); });
}

void AppendOneBytes(Bytes* out, const Bytes& bytes) { AppendBytes(out, bytes); }
bool ReadOneBytes(ByteReader* reader, Bytes* bytes) {
  return reader->ReadBytes(bytes);
}
void AppendOneString(Bytes* out, const std::string& text) {
  AppendString(out, text);
}
bool ReadOneString(ByteReader* reader, std::string* text) {
  return reader->ReadString(text);
}
template <typename Int>
void AppendOneU32(Bytes* out, Int value) {
  AppendU32(out, static_cast<uint32_t>(value));
}
template <typename Int>
bool ReadOneU32(ByteReader* reader, Int* value) {
  uint32_t raw = 0;
  const bool ok = reader->ReadU32(&raw);
  *value = static_cast<Int>(raw);
  return ok;
}

void AppendGrant(Bytes* out, const DepSkyGrant& grant) {
  AppendList(out, grant.cloud_ids, AppendOneString);
  out->push_back(
      static_cast<uint8_t>((grant.read ? 1 : 0) | (grant.write ? 2 : 0)));
}

bool ReadGrant(ByteReader* reader, DepSkyGrant* grant) {
  uint8_t perms = 0;
  if (!ReadList(reader, &grant->cloud_ids, ReadOneString) ||
      !reader->ReadU8(&perms)) {
    return false;
  }
  grant->read = (perms & 1) != 0;
  grant->write = (perms & 2) != 0;
  return true;
}

void AppendAcls(Bytes* out, const DepSkyGrants& acls) {
  AppendList(out, acls.owner_ids, AppendOneString);
  AppendList(out, acls.grants, AppendGrant);
}

bool ReadAcls(ByteReader* reader, DepSkyGrants* acls) {
  return ReadList(reader, &acls->owner_ids, ReadOneString) &&
         ReadList(reader, &acls->grants, ReadGrant);
}

// Authenticated objects are [u32 size][body][HMAC-SHA256]. The HMAC covers a
// tag naming the object kind, the unit and the body, so neither a header nor
// a grant object verifies as the other, or under another unit.
constexpr size_t kMacSize = 32;
constexpr std::string_view kHeaderTag = "depsky-shard";
constexpr std::string_view kGrantsTag = "depsky-grants";

Bytes Mac(std::string_view tag, const std::string& unit, const Bytes& key,
          ConstByteSpan body) {
  Bytes message;
  AppendString(&message, tag);
  AppendString(&message, unit);
  message.insert(message.end(), body.begin(), body.end());
  return HmacSha256(key, message);
}

Bytes Seal(std::string_view tag, const std::string& unit, const Bytes& key,
           const Bytes& body) {
  Bytes out;
  AppendU32(&out, static_cast<uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  const Bytes mac = Mac(tag, unit, key, body);
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

// The body of the sealed object at the front of `data`, if authentic;
// `*end` is where the sealed object ends.
Result<ConstByteSpan> Open(std::string_view tag, const std::string& unit,
                           const Bytes& key, ConstByteSpan data, size_t* end) {
  ByteReader reader(data);
  uint32_t size = 0;
  if (!reader.ReadU32(&size) || reader.remaining() < size + kMacSize) {
    return CorruptionError("truncated depsky object");
  }
  const ConstByteSpan body = data.subspan(4, size);
  if (!ConstantTimeEquals(Mac(tag, unit, key, body),
                          data.subspan(4 + size, kMacSize))) {
    return CorruptionError("depsky authenticator mismatch");
  }
  *end = 4 + size + kMacSize;
  return body;
}

Bytes EncodeHeaderBody(const DepSkyShardHeader& h) {
  Bytes out;
  AppendU32(&out, h.n);
  AppendU32(&out, h.k);
  out.push_back(static_cast<uint8_t>(h.mode));
  AppendU64(&out, h.version);
  AppendU64(&out, h.object_id);
  AppendString(&out, h.content_hash);
  AppendU64(&out, h.size);
  AppendBytes(&out, h.nonce);
  AppendU64(&out, h.stripe_unit_size);
  AppendU32(&out, h.unit_index);
  AppendU32(&out, h.shard_index);
  AppendBytes(&out, h.unit_hash);
  AppendList(&out, h.shard_hashes, AppendOneBytes);
  AppendList(&out, h.first_wave, AppendOneU32<uint32_t>);
  AppendAcls(&out, h.acls);
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
  AppendList(out, stripe_units, [](Bytes* out, const DepSkyStripeUnit& u) {
    AppendBytes(out, u.content_hash);
    AppendList(out, u.shard_hashes, AppendOneBytes);
    AppendList(out, u.cloud_shard, AppendOneU32<int32_t>);
  });
}

bool DepSkyVersion::DecodeFrom(ByteReader* reader, DepSkyVersion* out) {
  return reader->ReadU64(&out->version) && reader->ReadU64(&out->object_id) &&
         reader->ReadString(&out->content_hash) &&
         reader->ReadU64(&out->size) && reader->ReadBytes(&out->nonce) &&
         reader->ReadU64(&out->stripe_unit_size) &&
         out->stripe_unit_size != 0 && out->stripe_unit_size % 64 == 0 &&
         ReadList(reader, &out->stripe_units,
                  [](ByteReader* r, DepSkyStripeUnit* u) {
                    return r->ReadBytes(&u->content_hash) &&
                           ReadList(r, &u->shard_hashes, ReadOneBytes) &&
                           ReadList(r, &u->cloud_shard, ReadOneU32<int32_t>);
                  }) &&
         out->stripe_units.size() ==
             UnitCount(out->size, out->stripe_unit_size);
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

size_t DepSkyShardHeader::EncodedSize() const {
  return 4 + EncodeHeaderBody(*this).size() + kMacSize;
}

void DepSkyShardHeader::WriteTo(const std::string& unit, const Bytes& auth_key,
                                ByteSpan front) const {
  const Bytes sealed =
      Seal(kHeaderTag, unit, auth_key, EncodeHeaderBody(*this));
  std::copy(sealed.begin(), sealed.end(), front.begin());
}

Result<size_t> DepSkyShardHeader::ValueOffset(ConstByteSpan stored) {
  ByteReader reader(stored);
  uint32_t size = 0;
  if (!reader.ReadU32(&size) || reader.remaining() < size + kMacSize) {
    return CorruptionError("truncated depsky shard header");
  }
  return 4 + size + kMacSize;
}

Result<DepSkyShardHeader> DepSkyShardHeader::Read(ConstByteSpan stored,
                                                  const std::string& unit,
                                                  const Bytes& auth_key,
                                                  size_t* value_offset) {
  ASSIGN_OR_RETURN(ConstByteSpan body,
                   Open(kHeaderTag, unit, auth_key, stored, value_offset));
  DepSkyShardHeader h;
  ByteReader reader(body);
  uint8_t mode = 0;
  if (!reader.ReadU32(&h.n) || !reader.ReadU32(&h.k) ||
      !reader.ReadU8(&mode) || !reader.ReadU64(&h.version) ||
      !reader.ReadU64(&h.object_id) || !reader.ReadString(&h.content_hash) ||
      !reader.ReadU64(&h.size) || !reader.ReadBytes(&h.nonce) ||
      !reader.ReadU64(&h.stripe_unit_size) || !reader.ReadU32(&h.unit_index) ||
      !reader.ReadU32(&h.shard_index) || !reader.ReadBytes(&h.unit_hash) ||
      !ReadList(&reader, &h.shard_hashes, ReadOneBytes) ||
      !ReadList(&reader, &h.first_wave, ReadOneU32<uint32_t>) ||
      !ReadAcls(&reader, &h.acls) || !reader.AtEnd() ||
      h.stripe_unit_size == 0 || h.stripe_unit_size % 64 != 0 ||
      h.unit_index >= DepSkyVersion::UnitCount(h.size, h.stripe_unit_size) ||
      h.shard_index >= h.shard_hashes.size()) {
    return CorruptionError("bad depsky shard header");
  }
  h.mode = static_cast<DepSkyMode>(mode);
  return h;
}

Bytes DepSkyGrants::Encode(const std::string& unit,
                           const Bytes& auth_key) const {
  Bytes body;
  AppendU64(&body, sequence);
  AppendAcls(&body, *this);
  return Seal(kGrantsTag, unit, auth_key, body);
}

Result<DepSkyGrants> DepSkyGrants::Decode(const Bytes& data,
                                          const std::string& unit,
                                          const Bytes& auth_key) {
  size_t end = 0;
  ASSIGN_OR_RETURN(ConstByteSpan body,
                   Open(kGrantsTag, unit, auth_key, data, &end));
  DepSkyGrants out;
  ByteReader reader(body);
  if (end != data.size() || !reader.ReadU64(&out.sequence) ||
      !ReadAcls(&reader, &out) || !reader.AtEnd()) {
    return CorruptionError("bad depsky grant object");
  }
  return out;
}

Bytes DepSkyValueObject::EncodeParts(ConstByteSpan shard, uint8_t share_index,
                                     ConstByteSpan share_data, size_t front) {
  Bytes out;
  out.reserve(front + shard.size() + share_data.size() + 9);
  out.resize(front);
  AppendBytes(&out, shard);
  out.push_back(share_index);
  AppendBytes(&out, share_data);
  return out;
}

Result<DepSkyValueObject> DepSkyValueObject::Decode(ConstByteSpan data) {
  DepSkyValueObject obj;
  ByteReader reader(data);
  if (!reader.ReadBytes(&obj.shard) || !reader.ReadU8(&obj.share_index) ||
      !reader.ReadBytes(&obj.share_data)) {
    return CorruptionError("bad depsky value object");
  }
  return obj;
}

}  // namespace scfs
