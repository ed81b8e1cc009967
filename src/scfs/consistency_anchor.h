// Consistency anchor (paper §2.4, Figure 3) — the key innovation of SCFS,
// decoupled from the file system.
//
// Two stores compose into one: a small strongly-consistent store (the CA —
// here, the coordination service) anchors the consistency of a large
// eventually-consistent one (the SS — a storage cloud). The composite
// inherits the CA's consistency even though the bulk data lives in the SS:
//
//   WRITE(id, v):  h <- Hash(v); SS.write(id|h, v); CA.write(id, h)
//   READ(id):      h <- CA.read(id); loop v <- SS.read(id|h) until v != null;
//                  return Hash(v) == h ? v : fail
//
// The read loop absorbs the SS's eventual consistency: after a write, the new
// hash is immediately visible in the CA, while the data becomes visible in
// the SS only eventually.

#ifndef SCFS_SCFS_CONSISTENCY_ANCHOR_H_
#define SCFS_SCFS_CONSISTENCY_ANCHOR_H_

#include <string>

#include "src/coord/coordination_service.h"
#include "src/scfs/blob_backend.h"
#include "src/sim/environment.h"

namespace scfs {

struct AnchorOptions {
  VirtualDuration retry_delay = FromMillis(100);  // SS read-loop backoff
  int max_retries = 100;
};

class AnchoredStorage {
 public:
  AnchoredStorage(Environment* env, CoordinationService* anchor,
                  std::string client, BlobBackend* storage,
                  AnchorOptions options = {})
      : env_(env),
        anchor_(anchor),
        client_(std::move(client)),
        storage_(storage),
        options_(options) {}

  // Figure 3, WRITE: every write creates a new version in the SS, then
  // publishes its hash in the CA.
  Status Write(const std::string& id, ConstByteSpan value);

  // Figure 3, READ: returns the version whose hash the CA currently anchors.
  Result<Bytes> Read(const std::string& id);

  // Computes the anchor hash of a value (hex SHA-1, as in SCFS).
  static std::string AnchorHash(ConstByteSpan value);

  // Retries SS.read(id|h) until the version is visible — usable directly by
  // callers that obtained `h` some other way (SCFS's metadata service).
  Result<Bytes> ReadWithHash(const std::string& id, const std::string& hash);

 private:
  Environment* env_;
  CoordinationService* anchor_;
  std::string client_;
  BlobBackend* storage_;
  AnchorOptions options_;
};

}  // namespace scfs

#endif  // SCFS_SCFS_CONSISTENCY_ANCHOR_H_
