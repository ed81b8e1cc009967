// SHA-1 (FIPS 180-4). SCFS names every file version by the SHA-1 of its
// contents, the collision-resistant hash stored in the consistency anchor
// (paper §2.5.1). SHA-256 is kept alongside for new integrity checks.
//
// SHA-1 sits on both ends of the data path: the agent hashes the whole file
// on every close that publishes a new version, and DepSky's cold read checks
// the decrypted plaintext against the anchored hash before returning it. So
// its throughput is a per-op cost on every cold read and every write-back.
//
// Buffering, padding and the kernel choice are MdHash's (md_hash.h), shared
// with Sha256; whole blocks are compressed straight from the caller's
// buffer. sha1.cc holds the two block functions: on x86 CPUs with the SHA
// extensions a fully unrolled SHA-NI kernel (sha1rnds4, sha1nexte, sha1msg1,
// sha1msg2), chosen once through __builtin_cpu_supports; elsewhere a
// portable one whose 80 rounds are unrolled at compile time.

#ifndef SCFS_CRYPTO_SHA1_H_
#define SCFS_CRYPTO_SHA1_H_

#include "src/crypto/md_hash.h"

namespace scfs {

class Sha1 : public MdHash<Sha1, 5> {
 public:
  Sha1();

  // Pins the portable block function (disables SHA-NI) for hashers built
  // afterwards, so tests can check both kernels on one host and benchmarks
  // can measure the fallback. Not thread-safe; call before hashing starts.
  static void ForcePortableForTesting(bool force);
};

}  // namespace scfs

#endif  // SCFS_CRYPTO_SHA1_H_
