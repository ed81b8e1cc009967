// Byte-buffer vocabulary types and hex/string conversions.
//
// `Bytes` is the owning buffer; `ConstByteSpan`/`ByteSpan` are the non-owning
// views the data plane passes between pipeline stages so each payload byte is
// touched once per stage instead of being re-materialized at every API
// boundary. Spans convert implicitly from `Bytes`, never the other way
// around: materializing a copy is an explicit `CopyToBytes` call, which keeps
// every allocation on the write/read path visible at the call site.

#ifndef SCFS_COMMON_BYTES_H_
#define SCFS_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scfs {

using Bytes = std::vector<uint8_t>;

// Non-owning read-only view over contiguous bytes (std::span<const uint8_t>
// stand-in for C++17). The viewed storage must outlive the span.
class ConstByteSpan {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  constexpr ConstByteSpan() noexcept : data_(nullptr), size_(0) {}
  constexpr ConstByteSpan(const uint8_t* data, size_t size) noexcept
      : data_(data), size_(size) {}
  ConstByteSpan(const Bytes& bytes) noexcept  // NOLINT: implicit by design
      : data_(bytes.data()), size_(bytes.size()) {}

  constexpr const uint8_t* data() const noexcept { return data_; }
  constexpr size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr const uint8_t* begin() const noexcept { return data_; }
  constexpr const uint8_t* end() const noexcept { return data_ + size_; }
  constexpr uint8_t operator[](size_t i) const { return data_[i]; }

  // View of [offset, offset+count); both clamped to the span's bounds.
  constexpr ConstByteSpan subspan(size_t offset, size_t count = npos) const {
    if (offset > size_) {
      offset = size_;
    }
    size_t rest = size_ - offset;
    return ConstByteSpan(data_ + offset, count < rest ? count : rest);
  }
  constexpr ConstByteSpan first(size_t count) const {
    return ConstByteSpan(data_, count < size_ ? count : size_);
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

// Mutable counterpart; converts implicitly to ConstByteSpan.
class ByteSpan {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  constexpr ByteSpan() noexcept : data_(nullptr), size_(0) {}
  constexpr ByteSpan(uint8_t* data, size_t size) noexcept
      : data_(data), size_(size) {}
  ByteSpan(Bytes& bytes) noexcept  // NOLINT: implicit by design
      : data_(bytes.data()), size_(bytes.size()) {}

  constexpr operator ConstByteSpan() const noexcept {  // NOLINT
    return ConstByteSpan(data_, size_);
  }

  constexpr uint8_t* data() const noexcept { return data_; }
  constexpr size_t size() const noexcept { return size_; }
  constexpr bool empty() const noexcept { return size_ == 0; }
  constexpr uint8_t* begin() const noexcept { return data_; }
  constexpr uint8_t* end() const noexcept { return data_ + size_; }
  constexpr uint8_t& operator[](size_t i) const { return data_[i]; }

  constexpr ByteSpan subspan(size_t offset, size_t count = npos) const {
    if (offset > size_) {
      offset = size_;
    }
    size_t rest = size_ - offset;
    return ByteSpan(data_ + offset, count < rest ? count : rest);
  }
  constexpr ByteSpan first(size_t count) const {
    return ByteSpan(data_, count < size_ ? count : size_);
  }

 private:
  uint8_t* data_;
  size_t size_;
};

// The one sanctioned way to materialize an owning copy of a span.
Bytes CopyToBytes(ConstByteSpan span);

// UTF-8/string <-> bytes.
Bytes ToBytes(std::string_view text);
std::string ToString(ConstByteSpan bytes);

// Lower-case hex encoding ("deadbeef"). Decode returns empty on malformed
// input of odd length or non-hex characters.
std::string HexEncode(ConstByteSpan bytes);
std::string HexEncode(const uint8_t* data, size_t size);
Bytes HexDecode(std::string_view hex);

// Constant-time comparison (used for authenticator checks).
bool ConstantTimeEquals(ConstByteSpan a, ConstByteSpan b);

// Append helpers for hand-rolled serialization.
void AppendU32(Bytes* out, uint32_t v);
void AppendU64(Bytes* out, uint64_t v);
void AppendBytes(Bytes* out, ConstByteSpan data);
void AppendString(Bytes* out, std::string_view text);

// Cursor-based reader for the serialization above. Returns false on
// truncation instead of throwing. Views the input; the storage behind the
// span must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(ConstByteSpan data) : data_(data) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadBytes(Bytes* out);          // length-prefixed, copies out
  bool ReadBytesSpan(ConstByteSpan* out);  // length-prefixed, zero-copy view
  bool ReadString(std::string* out);
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  ConstByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace scfs

#endif  // SCFS_COMMON_BYTES_H_
