// DepSky's stored formats (paper §3.2, [15]): the version record, the
// self-certifying header every stored object begins with, the value object
// behind it, and the unit's grant object.
//
// There is no per-unit metadata object. A version's objects are named
// du/<unit>/v<version>/o<object_id>/h<content hash>/u<i>/s<j> (unit i,
// shard j), so a LIST of du/<unit>/ is the version list and the holder map;
// each object's header, authenticated with HMAC-SHA256 under the deployment
// key (a substitute for DepSky's RSA signatures, same verify-on-read path),
// says what the name claims and carries the per-shard hashes a reader needs
// (DESIGN.md "Self-certifying shards").
//
// One version's description — the DepSkyVersion record — is everything a
// reader needs to fetch that version from the clouds. SCFS publishes it next
// to the content hash in the file's coordination entry, so an anchored read
// goes straight to the shard holders (DepSkyClient::ReadVersion); readers
// without a record rebuild it from the LIST and the headers.

#ifndef SCFS_DEPSKY_METADATA_H_
#define SCFS_DEPSKY_METADATA_H_

#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace scfs {

enum class DepSkyMode : uint8_t {
  kReplication = 0,    // DepSky-A: full replicas, no confidentiality
  kSecretSharing = 1,  // DepSky-CA: encrypt + erasure-code + secret-share key
};

// One unit of a version (see DESIGN.md "Units"): a slice of the file,
// erasure-coded and quorum-written on its own, sharing the version's key,
// nonce and key shares. Its SHA-256 lets a range read verify the unit
// without the whole file.
struct DepSkyStripeUnit {
  Bytes content_hash;  // SHA-256 of the unit's plaintext
  // SHA-256 of the value object (shard + key share + framing) per shard
  // index — covers the share, so a faulty cloud cannot poison key
  // reconstruction while leaving the shard bytes intact.
  std::vector<Bytes> shard_hashes;
  std::vector<int32_t> cloud_shard;  // cloud i holds shard cloud_shard[i], -1 if none
};

// The version record: what WriteVersion returns to be published in the
// consistency anchor, and what an unanchored read rebuilds from a LIST and
// the headers. Every field is checked on use — value objects against their
// SHA-256 here, the plaintext against the SHA-1 content hash — so a stale or
// wrong record can fail a read, never make it return other bytes.
struct DepSkyVersion {
  uint64_t version = 0;
  // Names the version's objects, with the version number and content hash.
  // Chosen by the writer from a per-client counter mixed with a per-client
  // salt, so two writers that pick the same number never share a name, and
  // no name is ever reused.
  uint64_t object_id = 0;
  std::string content_hash;          // hex SHA-1 of the plaintext (CA hash)
  uint64_t size = 0;                 // plaintext size
  Bytes nonce;                       // cipher nonce (CA mode)
  // The units: UnitCount(size, stripe_unit_size) of them, unit i holding
  // plaintext bytes [i * stripe_unit_size, (i + 1) * stripe_unit_size). An
  // empty file is one unit of 0 bytes. One version number and one record
  // cover all units.
  uint64_t stripe_unit_size = 0;
  std::vector<DepSkyStripeUnit> stripe_units;

  // max(1, ceil(size / unit_size)); unit_size must be non-zero.
  static uint64_t UnitCount(uint64_t size, uint64_t unit_size) {
    return size == 0 ? 1 : size / unit_size + (size % unit_size != 0);
  }

  // The record codec: the coordination entry of an SCFS file stores the
  // record of the anchored version (see DESIGN.md "Record-carrying reads").
  // It carries no authenticator of its own: whoever stores it vouches for
  // it (the BFT coordination service). It carries no secret either: the key
  // shares live in the value objects. Decoding rejects a record whose unit
  // size is 0 or not a multiple of 64 bytes, or whose unit count does not
  // match its size, so readers never check either.
  void EncodeTo(Bytes* out) const;
  static bool DecodeFrom(ByteReader* reader, DepSkyVersion* out);
  Bytes Encode() const;
  // CORRUPTION unless `data` is exactly one valid record.
  static Result<DepSkyVersion> Decode(const Bytes& data);
};

struct DepSkyGrant {
  // Canonical id of the grantee at each cloud, in cloud order.
  std::vector<std::string> cloud_ids;
  bool read = false;
  bool write = false;
};

// The unit's grant object (du/<unit>/acl), written only by SetGrant: the
// owner's ids and the stored grants (a revocation is a grant of nothing)
// that an unanchored writer and a scrub repair apply to their objects. The
// highest authentic sequence among n-f copies wins.
struct DepSkyGrants {
  uint64_t sequence = 0;
  // Canonical id of the data-unit owner at each cloud; writers grant the
  // owner access to every object they create so shared writes stay readable.
  std::vector<std::string> owner_ids;
  std::vector<DepSkyGrant> grants;

  Bytes Encode(const std::string& unit, const Bytes& auth_key) const;
  // CORRUPTION unless `data` is an authentic grant object of `unit`.
  static Result<DepSkyGrants> Decode(const Bytes& data,
                                     const std::string& unit,
                                     const Bytes& auth_key);
};

// The header at the front of every stored object: what its name claims,
// plus what a reader without a record needs to check the object and its
// siblings. Authenticated for one data unit (the unit name is under the
// HMAC, not stored).
struct DepSkyShardHeader {
  uint32_t n = 0;
  uint32_t k = 0;
  DepSkyMode mode = DepSkyMode::kSecretSharing;
  uint64_t version = 0;
  uint64_t object_id = 0;
  std::string content_hash;
  uint64_t size = 0;
  Bytes nonce;
  uint64_t stripe_unit_size = 0;
  uint32_t unit_index = 0;
  uint32_t shard_index = 0;
  Bytes unit_hash;                  // SHA-256 of the unit's plaintext
  std::vector<Bytes> shard_hashes;  // the unit's, one per shard index
  // The clouds the unit's first wave targeted, cloud c with shard c: where
  // a reader looks for the shards of clouds whose LIST it did not wait for.
  std::vector<uint32_t> first_wave;
  // The ACLs the writer applied to the version's objects (owner ids and
  // grants; no sequence), which a scrub repair starts from.
  DepSkyGrants acls;

  // Bytes the header takes at the front of a stored object. Does not depend
  // on the shard index or on the hash values, only on their sizes.
  size_t EncodedSize() const;
  // Writes the header, authenticated for `unit`, into `front`, which must
  // be EncodedSize() bytes.
  void WriteTo(const std::string& unit, const Bytes& auth_key,
               ByteSpan front) const;
  // Decodes and authenticates the header of a stored object of `unit`, and
  // sets `*value_offset` to where its value object begins. CORRUPTION on
  // any mismatch.
  static Result<DepSkyShardHeader> Read(ConstByteSpan stored,
                                        const std::string& unit,
                                        const Bytes& auth_key,
                                        size_t* value_offset);
  // Where a stored object's value object begins, without authenticating
  // the header: a record read checks the value object against the record.
  static Result<size_t> ValueOffset(ConstByteSpan stored);
};

// The per-cloud value object: one erasure shard (or full replica) plus this
// cloud's Shamir share of the file key (CA mode). Stored behind the header.
struct DepSkyValueObject {
  Bytes shard;
  uint8_t share_index = 0;  // 0 = no share (replication mode)
  Bytes share_data;

  // Serializes without materializing a DepSkyValueObject, behind `front`
  // zero bytes left for the header: the shard (an arena view on the write
  // path) is copied exactly once, into the wire buffer.
  static Bytes EncodeParts(ConstByteSpan shard, uint8_t share_index,
                           ConstByteSpan share_data, size_t front = 0);
  static Result<DepSkyValueObject> Decode(ConstByteSpan data);
};

}  // namespace scfs

#endif  // SCFS_DEPSKY_METADATA_H_
