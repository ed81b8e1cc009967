// Merkle–Damgård framing shared by Sha1 and Sha256 (FIPS 180-4): block
// buffering, padding, the big-endian digest, and the runtime choice between
// a hash's SHA-NI block function and its portable one. Each hash supplies
// only its block functions and its initial state.
//
// Bulk input is compressed in multi-block runs straight from the caller's
// buffer; only a partial block at either end is staged through the 64-byte
// block buffer.

#ifndef SCFS_CRYPTO_MD_HASH_H_
#define SCFS_CRYPTO_MD_HASH_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "src/common/bytes.h"

namespace scfs {

// Compresses `count` consecutive 64-byte blocks into `state`.
using HashBlockFn = void (*)(uint32_t* state, const uint8_t* blocks,
                             size_t count);

// True when the CPU has the SHA extensions and the SSSE3/SSE4.1 shuffles the
// SHA-NI kernels use. Probed once through __builtin_cpu_supports.
bool CpuHasShaNi();

// One hash's block functions. Get() returns the SHA-NI one (null where it is
// not compiled in) when the CPU has the extensions, else the portable one.
class HashKernel {
 public:
  constexpr HashKernel(HashBlockFn portable, HashBlockFn sha_ni)
      : portable_(portable), sha_ni_(sha_ni) {}

  HashBlockFn Get() const {
    return sha_ni_ != nullptr && !force_portable_ && CpuHasShaNi() ? sha_ni_
                                                                   : portable_;
  }

  // Pins the portable block function so tests can check both kernels on one
  // host and benchmarks can measure the fallback. Not thread-safe; call
  // before hashing starts. A hasher keeps the kernel it was built with.
  void ForcePortable(bool force) { force_portable_ = force; }

 private:
  HashBlockFn portable_;
  HashBlockFn sha_ni_;
  bool force_portable_ = false;
};

// `Hasher` derives from MdHash<Hasher, kStateWords> and is default
// constructible. The digest is the whole final state, big-endian, as for
// SHA-1 and SHA-256.
template <typename Hasher, size_t kStateWords>
class MdHash {
 public:
  static constexpr size_t kDigestSize = 4 * kStateWords;
  static constexpr size_t kBlockSize = 64;

  void Update(const uint8_t* data, size_t size) {
    total_bytes_ += size;
    // Top up a partially filled block buffer first.
    if (buffered_ > 0) {
      size_t take = kBlockSize - buffered_;
      if (take > size) {
        take = size;
      }
      std::memcpy(buffer_ + buffered_, data, take);
      buffered_ += take;
      data += take;
      size -= take;
      if (buffered_ < kBlockSize) {
        return;
      }
      block_fn_(state_.data(), buffer_, 1);
      buffered_ = 0;
    }
    // Bulk: compress whole blocks straight from the caller's buffer.
    const size_t whole = size / kBlockSize;
    if (whole > 0) {
      block_fn_(state_.data(), data, whole);
      data += whole * kBlockSize;
      size -= whole * kBlockSize;
    }
    if (size > 0) {
      std::memcpy(buffer_, data, size);
      buffered_ = size;
    }
  }
  void Update(ConstByteSpan data) { Update(data.data(), data.size()); }

  std::array<uint8_t, kDigestSize> Finish() {
    // Pad: 0x80, zeros up to 56 bytes into a block, the 64-bit bit length.
    const uint64_t bit_length = total_bytes_ * 8;
    buffer_[buffered_++] = 0x80;
    if (buffered_ > kBlockSize - 8) {
      std::memset(buffer_ + buffered_, 0, kBlockSize - buffered_);
      block_fn_(state_.data(), buffer_, 1);
      buffered_ = 0;
    }
    std::memset(buffer_ + buffered_, 0, kBlockSize - 8 - buffered_);
    for (int i = 0; i < 8; ++i) {
      buffer_[kBlockSize - 8 + i] =
          static_cast<uint8_t>(bit_length >> (56 - i * 8));
    }
    block_fn_(state_.data(), buffer_, 1);
    buffered_ = 0;

    std::array<uint8_t, kDigestSize> digest;
    for (size_t i = 0; i < kStateWords; ++i) {
      digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
      digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
      digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
      digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
    }
    return digest;
  }

  static Bytes Hash(ConstByteSpan data) {
    Hasher h;
    h.Update(data);
    auto d = h.Finish();
    return Bytes(d.begin(), d.end());
  }
  static Bytes Hash(std::string_view data) {
    return Hash(ConstByteSpan(reinterpret_cast<const uint8_t*>(data.data()),
                              data.size()));
  }

 protected:
  MdHash(const HashKernel& kernel,
         const std::array<uint32_t, kStateWords>& initial_state)
      : block_fn_(kernel.Get()), state_(initial_state) {}

 private:
  HashBlockFn block_fn_;
  std::array<uint32_t, kStateWords> state_;
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[kBlockSize] = {};
  size_t buffered_ = 0;
};

}  // namespace scfs

#endif  // SCFS_CRYPTO_MD_HASH_H_
