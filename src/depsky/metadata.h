// DepSky data-unit metadata (paper §3.2, [15]).
//
// Each data unit (one SCFS file) has a metadata object replicated in every
// cloud. It records the version history — for each version: the SCFS content
// hash (the consistency-anchor hash), the random id that names the version's
// value objects, the cipher nonce and the version's units. A version is cut
// into fixed-size units (a file no larger than one unit is one unit); each
// unit records the per-object SHA-256 hashes used to detect corrupted
// clouds, which cloud holds which erasure shard (preferred quorums leave one
// cloud empty) and the SHA-256 of its plaintext. The whole record carries an
// HMAC-SHA256 authenticator so a byzantine cloud cannot forge versions
// (substitution for DepSky's RSA signatures; same verify-on-read path).
//
// One version's entry — the DepSkyVersion record — is everything a reader
// needs to fetch that version from the clouds. SCFS publishes it next to the
// content hash in the file's coordination entry, so an anchored read goes
// straight to the shard holders (DepSkyClient::ReadVersion).

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
  // SHA-256 of the complete stored object (shard + key share + framing) per
  // shard index — covers the share, so a faulty cloud cannot poison key
  // reconstruction while leaving the shard bytes intact.
  std::vector<Bytes> shard_hashes;
  std::vector<int32_t> cloud_shard;  // cloud i holds shard cloud_shard[i], -1 if none
};

// The version record: what the metadata object lists per version, and what
// WriteVersion returns to be published in the consistency anchor. Every
// field is checked on use — value objects against their SHA-256 here, the
// plaintext against the SHA-1 content hash — so a stale or wrong record can
// fail a read, never make it return other bytes.
struct DepSkyVersion {
  uint64_t version = 0;
  // Names the version's value objects (du/<unit>/o<id>/u<i>, one per unit).
  // Chosen by the writer before it knows the version number, from a
  // per-client counter mixed with a per-client salt, so two writers that
  // pick the same number never share a name, and no name is ever reused.
  // Covered by the metadata HMAC.
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

  // The record codec, shared by the metadata object (one record per
  // version) and the coordination entry of an SCFS file (the record of the
  // anchored version, see DESIGN.md "Record-carrying reads"). It carries no
  // authenticator of its own: whoever stores it vouches for it — the
  // metadata HMAC, or the BFT coordination service. It carries no secret
  // either: the key shares live in the value objects. Decoding rejects a
  // record whose unit size is 0 or not a multiple of 64 bytes, or whose
  // unit count does not match its size, so readers never check either.
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

struct DepSkyMetadata {
  // The coding the unit was written with. Readers code with their own
  // config (the record carries neither), so they never use a copy whose
  // n, k or mode differ from it.
  uint32_t n = 4;
  uint32_t k = 2;
  DepSkyMode mode = DepSkyMode::kSecretSharing;
  // Canonical id of the data-unit owner at each cloud; writers grant the
  // owner access to every object they create so shared writes stay readable.
  std::vector<std::string> owner_ids;
  std::vector<DepSkyVersion> versions;  // ascending version order
  std::vector<DepSkyGrant> grants;

  // Serializes and appends the HMAC authenticator.
  Bytes Encode(const Bytes& auth_key) const;
  // Decodes and verifies the authenticator; CORRUPTION on any mismatch.
  static Result<DepSkyMetadata> Decode(const Bytes& data,
                                       const Bytes& auth_key);

  const DepSkyVersion* Latest() const {
    return versions.empty() ? nullptr : &versions.back();
  }
  const DepSkyVersion* FindByHash(const std::string& content_hash) const;
  uint64_t NextVersionNumber() const {
    return versions.empty() ? 1 : versions.back().version + 1;
  }
};

// The per-cloud value object: one erasure shard (or full replica) plus this
// cloud's Shamir share of the file key (CA mode).
struct DepSkyValueObject {
  Bytes shard;
  uint8_t share_index = 0;  // 0 = no share (replication mode)
  Bytes share_data;

  Bytes Encode() const;
  // Serializes without materializing a DepSkyValueObject: the shard (an arena
  // view on the write path) is copied exactly once, into the wire buffer.
  static Bytes EncodeParts(ConstByteSpan shard, uint8_t share_index,
                           ConstByteSpan share_data);
  static Result<DepSkyValueObject> Decode(const Bytes& data);
};

}  // namespace scfs

#endif  // SCFS_DEPSKY_METADATA_H_
