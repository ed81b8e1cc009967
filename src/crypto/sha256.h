// SHA-256 (FIPS 180-4). Used for DepSky block hashes and as the PRF behind
// the HMAC authenticators.
//
// Buffering, padding and the kernel choice are MdHash's (md_hash.h), shared
// with Sha1; whole blocks are compressed straight from the caller's buffer.
// On x86 CPUs with the SHA extensions the block compression runs on the
// SHA-NI instructions, selected once at startup with a portable fallback.
// Shard hashing is a large share of the DepSky PUT pipeline's CPU time, so
// this kernel matters as much as the GF(2^8) one.

#ifndef SCFS_CRYPTO_SHA256_H_
#define SCFS_CRYPTO_SHA256_H_

#include "src/crypto/md_hash.h"

namespace scfs {

class Sha256 : public MdHash<Sha256, 8> {
 public:
  Sha256();

  // Pins the portable block function (disables SHA-NI) for hashers built
  // afterwards, so tests can check both kernels on one host and benchmarks
  // can measure the fallback. Not thread-safe; call before hashing starts.
  static void ForcePortableForTesting(bool force);
};

}  // namespace scfs

#endif  // SCFS_CRYPTO_SHA256_H_
