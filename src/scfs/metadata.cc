#include "src/scfs/metadata.h"

namespace scfs {

bool FileMetadata::AllowsRead(const std::string& user) const {
  if (user == owner) {
    return true;
  }
  auto it = acl.find(user);
  return it != acl.end() && (it->second & 1) != 0;
}

bool FileMetadata::AllowsWrite(const std::string& user) const {
  if (user == owner) {
    return true;
  }
  auto it = acl.find(user);
  return it != acl.end() && (it->second & 2) != 0;
}

FileStat FileMetadata::ToStat() const {
  FileStat stat;
  stat.type = type;
  stat.size = size;
  stat.mtime = mtime;
  stat.ctime = ctime;
  stat.owner = owner;
  stat.version = version;
  return stat;
}

Bytes FileMetadata::Encode() const {
  Bytes out;
  AppendString(&out, path);
  out.push_back(static_cast<uint8_t>(type));
  AppendU64(&out, size);
  AppendU64(&out, static_cast<uint64_t>(mtime));
  AppendU64(&out, static_cast<uint64_t>(ctime));
  AppendString(&out, owner);
  AppendString(&out, object_id);
  AppendString(&out, content_hash);
  AppendBytes(&out, locator);
  AppendU64(&out, version);
  AppendU32(&out, static_cast<uint32_t>(acl.size()));
  for (const auto& [user, bits] : acl) {
    AppendString(&out, user);
    out.push_back(bits);
  }
  return out;
}

Result<FileMetadata> FileMetadata::Decode(const Bytes& data) {
  FileMetadata md;
  ByteReader reader(data);
  uint8_t type = 0;
  uint64_t mtime = 0;
  uint64_t ctime = 0;
  uint32_t acl_count = 0;
  if (!reader.ReadString(&md.path) || !reader.ReadU8(&type) ||
      !reader.ReadU64(&md.size) || !reader.ReadU64(&mtime) ||
      !reader.ReadU64(&ctime) || !reader.ReadString(&md.owner) ||
      !reader.ReadString(&md.object_id) ||
      !reader.ReadString(&md.content_hash) || !reader.ReadBytes(&md.locator) ||
      !reader.ReadU64(&md.version) ||
      !reader.ReadU32(&acl_count)) {
    return CorruptionError("bad file metadata");
  }
  md.type = static_cast<FileType>(type);
  md.mtime = static_cast<VirtualTime>(mtime);
  md.ctime = static_cast<VirtualTime>(ctime);
  for (uint32_t i = 0; i < acl_count; ++i) {
    std::string user;
    uint8_t bits = 0;
    if (!reader.ReadString(&user) || !reader.ReadU8(&bits)) {
      return CorruptionError("bad file metadata acl");
    }
    md.acl[user] = bits;
  }
  return md;
}

Bytes PrivateNameSpace::Encode() const {
  Bytes out;
  AppendU32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& [path, md] : entries) {
    AppendBytes(&out, md.Encode());
  }
  AppendU32(&out, static_cast<uint32_t>(tombstones.size()));
  for (const auto& id : tombstones) {
    AppendString(&out, id);
  }
  return out;
}

Result<PrivateNameSpace> PrivateNameSpace::Decode(const Bytes& data) {
  PrivateNameSpace pns;
  ByteReader reader(data);
  uint32_t entry_count = 0;
  if (!reader.ReadU32(&entry_count)) {
    return CorruptionError("bad pns header");
  }
  for (uint32_t i = 0; i < entry_count; ++i) {
    Bytes blob;
    if (!reader.ReadBytes(&blob)) {
      return CorruptionError("bad pns entry");
    }
    ASSIGN_OR_RETURN(FileMetadata md, FileMetadata::Decode(blob));
    std::string path = md.path;
    pns.entries.emplace(std::move(path), std::move(md));
  }
  uint32_t tombstone_count = 0;
  if (!reader.ReadU32(&tombstone_count)) {
    return CorruptionError("bad pns tombstones");
  }
  pns.tombstones.resize(tombstone_count);
  for (auto& id : pns.tombstones) {
    if (!reader.ReadString(&id)) {
      return CorruptionError("bad pns tombstone");
    }
  }
  return pns;
}

// Trailing slash so that the prefix "m:<dir>/" covers the directory's own
// entry plus its whole subtree and nothing else (e.g. not "/ab" when renaming
// "/a") — this is what makes rename a single atomic RenamePrefix trigger.
std::string MetadataKey(const std::string& path) { return "m:" + path + "/"; }
std::string LockKey(const std::string& path) { return "lk:" + path; }
std::string PnsTupleKey(const std::string& user) { return "pns:" + user; }
std::string UserRegistryKey(const std::string& user) { return "user:" + user; }
std::string TombstoneKey(const std::string& user,
                         const std::string& object_id) {
  return "t:" + user + ":" + object_id;
}

Bytes EncodePnsAnchor(const PnsAnchor& anchor) {
  Bytes out;
  AppendString(&out, anchor.hash);
  AppendBytes(&out, anchor.locator);
  return out;
}

Result<PnsAnchor> DecodePnsAnchor(const Bytes& data) {
  ByteReader reader(data);
  PnsAnchor anchor;
  if (!reader.ReadString(&anchor.hash) || !reader.ReadBytes(&anchor.locator) ||
      !reader.AtEnd()) {
    return CorruptionError("bad pns anchor");
  }
  return anchor;
}

std::string RenameIntentKey(const std::string& from_path) {
  return kRenameIntentPrefix + MetadataKey(from_path);
}

std::string RenameCommitKey(const std::string& to_path) {
  return kRenameCommitPrefix + MetadataKey(to_path);
}

Bytes EncodeRenameIntent(const std::string& from, const std::string& to) {
  Bytes out;
  AppendString(&out, from);
  AppendString(&out, to);
  return out;
}

Result<RenameIntent> DecodeRenameIntent(const Bytes& data) {
  ByteReader reader(data);
  RenameIntent intent;
  if (!reader.ReadString(&intent.from) || !reader.ReadString(&intent.to) ||
      !reader.AtEnd()) {
    return CorruptionError("bad rename intent");
  }
  return intent;
}

}  // namespace scfs
