// SCFS file-system metadata (paper §2.5.1, metadata service).
//
// Each file system object is represented by a metadata tuple holding: name,
// type, parent (implicit in the hierarchical path key), object metadata
// (size, dates, owner, ACLs), the opaque identifier of the data unit in the
// storage backend, and the collision-resistant hash of the current content —
// the last two being exactly the (id, hash) pair of the consistency anchor —
// plus the storage backend's locator of that content (for the
// cloud-of-clouds, its DepSky version record).

#ifndef SCFS_SCFS_METADATA_H_
#define SCFS_SCFS_METADATA_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/fsapi/file_system.h"

namespace scfs {

struct FileMetadata {
  std::string path;  // normalized absolute path — the namespace key
  FileType type = FileType::kFile;
  uint64_t size = 0;
  VirtualTime mtime = 0;
  VirtualTime ctime = 0;
  std::string owner;        // SCFS user name
  std::string object_id;    // data unit id in the storage backend (files)
  std::string content_hash; // hex SHA-1 of current content ("" = empty file)
  // BlobBackend locator of the content_hash version, published with it;
  // empty for an empty file, a single-cloud backend, or an entry whose
  // upload has not completed (reads then locate the version by hash).
  Bytes locator;
  uint64_t version = 0;     // bumps on every completed close-with-update
  // user -> permission bits (1 = read, 2 = write). The owner is implicit.
  std::map<std::string, uint8_t> acl;
  // Not encoded: the version of the coordination entry this copy was read
  // at or published as, which a guarded remove names; 0 when unknown (a
  // private entry, a pending local override, an unconditional write).
  uint64_t entry_version = 0;

  bool AllowsRead(const std::string& user) const;
  bool AllowsWrite(const std::string& user) const;
  bool IsShared() const { return !acl.empty(); }

  FileStat ToStat() const;

  Bytes Encode() const;
  static Result<FileMetadata> Decode(const Bytes& data);
};

// A Private Name Space (paper §2.7): the serialized metadata of all
// non-shared files of one user, stored as a single object in the cloud
// storage instead of one coordination-service tuple per file. Tombstones
// remember data units of deleted private files until the garbage collector
// reclaims them.
struct PrivateNameSpace {
  std::map<std::string, FileMetadata> entries;  // path -> metadata
  std::vector<std::string> tombstones;          // orphaned object ids

  Bytes Encode() const;
  static Result<PrivateNameSpace> Decode(const Bytes& data);
};

// Coordination-service key naming scheme.
std::string MetadataKey(const std::string& path);           // "m:<path>"
std::string LockKey(const std::string& path);               // "lk:<path>"
std::string PnsTupleKey(const std::string& user);           // "pns:<user>"
std::string UserRegistryKey(const std::string& user);       // "user:<user>"
std::string TombstoneKey(const std::string& user, const std::string& object_id);

// The value of the "pns:<user>" tuple: the anchor of the PNS object, its
// content hash and locator.
struct PnsAnchor {
  std::string hash;
  Bytes locator;
};
Bytes EncodePnsAnchor(const PnsAnchor& anchor);
Result<PnsAnchor> DecodePnsAnchor(const Bytes& data);

// Cross-partition rename records (see DESIGN.md "Partitioned
// coordination"). Both prefixes are co-location prefixes for the
// partitioned router (PartitionRoutingKey): the intent record lives on the
// partition of the source subtree ("prepare on the source partition"), the
// commit marker on the destination's.
inline constexpr char kRenameIntentPrefix[] = "ri:";
inline constexpr char kRenameCommitPrefix[] = "rc:";
std::string RenameIntentKey(const std::string& from_path);  // "ri:m:<from>/"
std::string RenameCommitKey(const std::string& to_path);    // "rc:m:<to>/"
// The record value: the (from, to) paths, so any session of the user can
// replay a crashed rename from the record alone.
Bytes EncodeRenameIntent(const std::string& from, const std::string& to);
struct RenameIntent {
  std::string from;
  std::string to;
};
Result<RenameIntent> DecodeRenameIntent(const Bytes& data);

}  // namespace scfs

#endif  // SCFS_SCFS_METADATA_H_
