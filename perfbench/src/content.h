// Seeded file contents. Everything the benchmark writes derives from the run
// seed, so every read can be checked against what was written:
//
//   - a fileset file starts as Base(file);
//   - each append adds one self-describing record (magic, file, record index,
//     the id of the op that wrote it), whose payload derives from (seed, file,
//     op) — any read of a file must parse as Base + whole valid records;
//   - a created file holds Created(op).

#ifndef PERFBENCH_SRC_CONTENT_H_
#define PERFBENCH_SRC_CONTENT_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"

namespace perfbench {

class Contents {
 public:
  // Precomputes the base contents of `files` fileset files.
  Contents(uint64_t seed, uint64_t files, size_t file_size,
           size_t append_size);

  const scfs::Bytes& Base(uint64_t file) const { return base_[file]; }
  scfs::Bytes Created(uint64_t op) const;
  // Record number `index` of `file`, written by op `op`.
  scfs::Bytes Record(uint64_t file, uint64_t index, uint64_t op) const;

  // True iff `data` is Base(file) followed by whole valid records of `file`
  // (record k carrying index k). On success `ops` lists the writing op of
  // every record, in file order.
  bool Verify(uint64_t file, const scfs::Bytes& data,
              std::vector<uint64_t>* ops) const;

  size_t file_size() const { return file_size_; }
  size_t append_size() const { return append_size_; }

 private:
  scfs::Bytes Payload(uint64_t stream, uint64_t salt, size_t size) const;

  uint64_t seed_;
  size_t file_size_;
  size_t append_size_;
  std::vector<scfs::Bytes> base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CONTENT_H_
