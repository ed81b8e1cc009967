// Systematic Reed-Solomon erasure coding over GF(2^8).
//
// RS(n, k): data is split into k shards; n-k parity shards are derived; any k
// of the n shards reconstruct the data. DepSky uses this with n = 3f+1 clouds
// and k = f+1, so each cloud stores ~|F|/(f+1) bytes instead of |F|.
//
// The encode/decode cores are span-based and striped: all n shards of one
// encode live in a single contiguous ShardArena (the k systematic shards
// alias the framed payload — they are never sliced out or copied), and the
// GF(2^8) row kernels walk the encode matrix once per cache-resident stripe
// with per-entry nibble tables built once per matrix row.

#ifndef SCFS_CODEC_REED_SOLOMON_H_
#define SCFS_CODEC_REED_SOLOMON_H_

#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/math/matrix.h"

namespace scfs {

// One contiguous buffer holding all n shards of an encode, laid out
// [shard 0 | shard 1 | ... | shard n-1]. The first k shards are the framed
// payload (8-byte length header + payload + zero padding): systematic shards
// are views into that frame, so building them costs nothing.
class ShardArena {
 public:
  ShardArena() = default;
  ShardArena(unsigned n, unsigned k, size_t shard_size, size_t payload_size)
      : buffer_(static_cast<size_t>(n) * shard_size, 0),
        n_(n),
        k_(k),
        shard_size_(shard_size),
        payload_size_(payload_size) {}

  // Rebinds a recycled buffer (ArenaPool reuse) to a new geometry. The buffer
  // grows if needed, but recycled bytes are NOT re-zeroed — the pool-aware
  // ErasureCodec::PrepareArena re-zeroes only what the framing depends on.
  ShardArena(Bytes buffer, unsigned n, unsigned k, size_t shard_size,
             size_t payload_size)
      : buffer_(std::move(buffer)),
        n_(n),
        k_(k),
        shard_size_(shard_size),
        payload_size_(payload_size) {
    buffer_.resize(static_cast<size_t>(n) * shard_size);
  }

  // Surrenders the underlying buffer for recycling; leaves the arena empty.
  Bytes TakeBuffer() {
    n_ = 0;
    k_ = 0;
    shard_size_ = 0;
    payload_size_ = 0;
    return std::move(buffer_);
  }

  unsigned n() const { return n_; }
  unsigned k() const { return k_; }
  size_t shard_size() const { return shard_size_; }
  size_t payload_size() const { return payload_size_; }

  ConstByteSpan shard(unsigned i) const {
    return ConstByteSpan(buffer_.data() + static_cast<size_t>(i) * shard_size_,
                         shard_size_);
  }

  // The k data shards as one contiguous region (the frame).
  ConstByteSpan data_region() const {
    return ConstByteSpan(buffer_.data(), static_cast<size_t>(k_) * shard_size_);
  }
  ByteSpan mutable_data_region() {
    return ByteSpan(buffer_.data(), static_cast<size_t>(k_) * shard_size_);
  }
  // The payload bytes inside the frame (after the 8-byte length header).
  ByteSpan payload() {
    return ByteSpan(buffer_.data() + 8, payload_size_);
  }
  // The n-k parity shards as one contiguous region.
  ByteSpan parity_region() {
    return ByteSpan(buffer_.data() + static_cast<size_t>(k_) * shard_size_,
                    static_cast<size_t>(n_ - k_) * shard_size_);
  }

 private:
  Bytes buffer_;
  unsigned n_ = 0;
  unsigned k_ = 0;
  size_t shard_size_ = 0;
  size_t payload_size_ = 0;
};

// Thread-safe recycler of ShardArena buffers. Encoding a 256 MB file in one
// piece allocates (and page-faults in) a fresh 512 MB zeroed arena every
// call; DepSky's unit pipeline instead cycles a window of pooled arenas of
// one unit each, so steady-state encode touches only cache-warm memory. Acquire
// reshapes a retired buffer to the requested geometry; only the framing
// padding is re-zeroed (by the pool-aware PrepareArena), since payload and
// parity are fully overwritten by the producer and EncodeParity.
class ArenaPool {
 public:
  explicit ArenaPool(size_t max_retained = 8) : max_retained_(max_retained) {}

  ShardArena Acquire(unsigned n, unsigned k, size_t shard_size,
                     size_t payload_size);
  // Retires an arena's buffer for reuse; beyond max_retained it is freed.
  void Release(ShardArena&& arena);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t retained() const;

 private:
  const size_t max_retained_;
  mutable std::mutex mu_;
  std::vector<Bytes> free_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

class ReedSolomon {
 public:
  // n = total shards, k = data shards; 1 <= k <= n <= 255.
  ReedSolomon(unsigned n, unsigned k);

  unsigned n() const { return n_; }
  unsigned k() const { return k_; }

  // Core encode: derives the n-k parity shards from k contiguous data shards.
  // `data` holds k * shard_size bytes (shard i at offset i * shard_size);
  // `parity` holds (n-k) * shard_size bytes and is overwritten.
  void EncodeParity(ConstByteSpan data, size_t shard_size,
                    ByteSpan parity) const;

  // Core decode: reconstructs the k data shards into `out` (k * shard_size
  // contiguous bytes). `shards` has n slots (missing ones empty); surviving
  // systematic shards are copied into place once, missing rows are rebuilt by
  // striped accumulation reading the survivors' spans in place.
  Status DecodeInto(const std::vector<std::optional<ConstByteSpan>>& shards,
                    size_t shard_size, ByteSpan out) const;

  // Encodes equally-sized data shards into n shards (the first k are the
  // inputs verbatim; systematic code). All shards share the input size.
  Result<std::vector<Bytes>> EncodeShards(
      const std::vector<Bytes>& data_shards) const;

  // Reconstructs the k data shards from any subset of >= k shards. `shards`
  // has n slots; missing shards are nullopt.
  Result<std::vector<Bytes>> DecodeShards(
      const std::vector<std::optional<Bytes>>& shards) const;

 private:
  unsigned n_;
  unsigned k_;
  GfMatrix encode_matrix_;
};

// File-level convenience API: frames a byte string (8-byte length header +
// padding) into k equal shards, then erasure-codes to n shards.
class ErasureCodec {
 public:
  ErasureCodec(unsigned n, unsigned k) : rs_(n, k) {}

  // Zero-copy encode pipeline, in two steps so producers (e.g. a stream
  // cipher) can write the payload straight into the frame:
  //   ShardArena arena = codec.PrepareArena(size);   // header+padding done
  //   fill arena.payload();                          // producer writes here
  //   codec.ComputeParity(&arena);                   // derive parity shards
  ShardArena PrepareArena(size_t payload_size) const;
  // Pool-aware variant: draws the buffer from `pool` (fresh allocation on
  // miss) and zeroes only the frame's padding tail instead of the whole
  // region. Null pool falls back to the plain variant.
  ShardArena PrepareArena(size_t payload_size, ArenaPool* pool) const;
  void ComputeParity(ShardArena* arena) const;

  // One-step arena encode for payloads that already exist contiguously
  // (copies the payload into the frame once, then computes parity).
  ShardArena EncodeToArena(ConstByteSpan data) const;

  // Legacy owning API: materializes each shard as its own buffer.
  Result<std::vector<Bytes>> Encode(const Bytes& data) const;

  // Any k of the n shards (others nullopt) reproduce the original bytes.
  // Reassembles into a single preallocated buffer; surviving systematic
  // shards are read in place (aliased), not staged through copies.
  Result<Bytes> Decode(const std::vector<std::optional<Bytes>>& shards) const;

  unsigned n() const { return rs_.n(); }
  unsigned k() const { return rs_.k(); }

  // Size of each shard for a payload of `data_size` bytes.
  size_t ShardSize(size_t data_size) const;

 private:
  ReedSolomon rs_;
};

}  // namespace scfs

#endif  // SCFS_CODEC_REED_SOLOMON_H_
