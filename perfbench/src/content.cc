#include "perfbench/src/content.h"

#include <algorithm>
#include <cstring>

#include "src/common/rng.h"

namespace perfbench {

namespace {

constexpr uint32_t kRecordMagic = 0x50425243;  // "PBRC"
constexpr size_t kRecordHeader = 16;           // magic, file, index, op
constexpr uint64_t kBaseStream = 0x62617365ULL;     // "base"
constexpr uint64_t kCreateStream = 0x637265617465ULL;  // "create"
constexpr uint64_t kRecordStream = 0x7265636f7264ULL;  // "record"

void PutU32(uint8_t* out, uint32_t v) { std::memcpy(out, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* in) {
  uint32_t v = 0;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

}  // namespace

Contents::Contents(uint64_t seed, uint64_t files, size_t file_size,
                   size_t append_size)
    : seed_(seed), file_size_(file_size), append_size_(append_size) {
  base_.reserve(files);
  for (uint64_t f = 0; f < files; ++f) {
    base_.push_back(Payload(kBaseStream, f, file_size));
  }
}

scfs::Bytes Contents::Payload(uint64_t stream, uint64_t salt,
                              size_t size) const {
  scfs::Rng rng(scfs::MixSeed(scfs::MixSeed(seed_, stream), salt));
  return rng.RandomBytes(size);
}

scfs::Bytes Contents::Created(uint64_t op) const {
  return Payload(kCreateStream, op, file_size_);
}

scfs::Bytes Contents::Record(uint64_t file, uint64_t index,
                             uint64_t op) const {
  scfs::Bytes out(kRecordHeader);
  PutU32(out.data(), kRecordMagic);
  PutU32(out.data() + 4, static_cast<uint32_t>(file));
  PutU32(out.data() + 8, static_cast<uint32_t>(index));
  PutU32(out.data() + 12, static_cast<uint32_t>(op));
  const scfs::Bytes payload = Payload(kRecordStream ^ (file << 32), op,
                                      append_size_ - kRecordHeader);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool Contents::Verify(uint64_t file, const scfs::Bytes& data,
                      std::vector<uint64_t>* ops) const {
  ops->clear();
  const scfs::Bytes& base = base_[file];
  if (data.size() < base.size() ||
      (data.size() - base.size()) % append_size_ != 0 ||
      !std::equal(base.begin(), base.end(), data.begin())) {
    return false;
  }
  const size_t records = (data.size() - base.size()) / append_size_;
  for (size_t k = 0; k < records; ++k) {
    const uint8_t* rec = data.data() + base.size() + k * append_size_;
    if (GetU32(rec) != kRecordMagic ||
        GetU32(rec + 4) != static_cast<uint32_t>(file) ||
        GetU32(rec + 8) != static_cast<uint32_t>(k)) {
      return false;
    }
    const uint64_t op = GetU32(rec + 12);
    const scfs::Bytes expected = Record(file, k, op);
    if (!std::equal(expected.begin(), expected.end(), rec)) {
      return false;
    }
    ops->push_back(op);
  }
  return true;
}

}  // namespace perfbench
