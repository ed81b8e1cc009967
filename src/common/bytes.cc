#include "src/common/bytes.h"

#include <cstring>

namespace scfs {

Bytes CopyToBytes(ConstByteSpan span) {
  return Bytes(span.begin(), span.end());
}

Bytes ToBytes(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string ToString(ConstByteSpan bytes) {
  return std::string(bytes.begin(), bytes.end());
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}
}  // namespace

std::string HexEncode(const uint8_t* data, size_t size) {
  std::string out;
  out.reserve(size * 2);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0x0f]);
  }
  return out;
}

std::string HexEncode(ConstByteSpan bytes) {
  return HexEncode(bytes.data(), bytes.size());
}

Bytes HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return {};
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return {};
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool ConstantTimeEquals(ConstByteSpan a, ConstByteSpan b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

void AppendU32(Bytes* out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void AppendU64(Bytes* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<uint8_t>(v >> shift));
  }
}

void AppendBytes(Bytes* out, ConstByteSpan data) {
  AppendU32(out, static_cast<uint32_t>(data.size()));
  out->insert(out->end(), data.begin(), data.end());
}

void AppendString(Bytes* out, std::string_view text) {
  AppendU32(out, static_cast<uint32_t>(text.size()));
  out->insert(out->end(), text.begin(), text.end());
}

bool ByteReader::ReadU8(uint8_t* v) {
  if (remaining() < 1) {
    return false;
  }
  *v = data_[pos_++];
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  if (remaining() < 4) {
    return false;
  }
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out = (out << 8) | data_[pos_++];
  }
  *v = out;
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  if (remaining() < 8) {
    return false;
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out = (out << 8) | data_[pos_++];
  }
  *v = out;
  return true;
}

bool ByteReader::ReadBytesSpan(ConstByteSpan* out) {
  uint32_t len = 0;
  if (!ReadU32(&len) || remaining() < len) {
    return false;
  }
  *out = data_.subspan(pos_, len);
  pos_ += len;
  return true;
}

bool ByteReader::ReadBytes(Bytes* out) {
  ConstByteSpan span;
  if (!ReadBytesSpan(&span)) {
    return false;
  }
  out->assign(span.begin(), span.end());
  return true;
}

bool ByteReader::ReadString(std::string* out) {
  ConstByteSpan span;
  if (!ReadBytesSpan(&span)) {
    return false;
  }
  out->assign(span.begin(), span.end());
  return true;
}

}  // namespace scfs
