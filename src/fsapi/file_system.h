// fsapi::FileSystem — the POSIX-like virtual file system interface.
//
// This is the call surface FUSE would forward to (the paper mounts the SCFS
// Agent through FUSE-J; this container cannot mount FUSE, so the interface is
// consumed in-process — see DESIGN.md substitution table). SCFS and every
// baseline (LocalFS, S3FS-like, S3QL-like) implement it, which is what lets
// the benchmark harness run identical workloads over all nine systems of
// Table 3.

#ifndef SCFS_FSAPI_FILE_SYSTEM_H_
#define SCFS_FSAPI_FILE_SYSTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/future.h"
#include "src/common/status.h"
#include "src/sim/time.h"

namespace scfs {

enum OpenFlags : uint32_t {
  kOpenRead = 1u << 0,
  kOpenWrite = 1u << 1,
  kOpenCreate = 1u << 2,
  kOpenTruncate = 1u << 3,
};

using FileHandle = uint64_t;

enum class FileType : uint8_t { kFile = 0, kDirectory = 1 };

struct FileStat {
  FileType type = FileType::kFile;
  uint64_t size = 0;
  VirtualTime mtime = 0;
  VirtualTime ctime = 0;
  std::string owner;
  uint64_t version = 0;  // bumps on every completed (closed) update
};

struct DirEntry {
  std::string name;
  FileType type = FileType::kFile;
};

// Per-user access rights, managed with setfacl/getfacl (paper §2.6 uses ACLs
// instead of Unix modes).
struct AclEntry {
  std::string user;
  bool read = false;
  bool write = false;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // -- File lifecycle ------------------------------------------------------

  // Opens (optionally creating) a file. Opening for write takes the file
  // lock; a concurrent writer gets BUSY. Consistency-on-close: the returned
  // snapshot reflects all updates of previously *closed* writes.
  virtual Result<FileHandle> Open(const std::string& path,
                                  uint32_t flags) = 0;

  // Reads up to `size` bytes at `offset` from the open file.
  virtual Result<Bytes> Read(FileHandle handle, uint64_t offset,
                             size_t size) = 0;

  // Writes into the open file at `offset` (durability level 0 — memory).
  virtual Status Write(FileHandle handle, uint64_t offset,
                       const Bytes& data) = 0;

  // Truncates the open file to `size` bytes.
  virtual Status Truncate(FileHandle handle, uint64_t size) = 0;

  // Flushes the open file to the local disk (durability level 1).
  virtual Status Fsync(FileHandle handle) = 0;

  // Closes the file; a modified file is synchronized with the backend
  // (durability level 2/3) per the file system's mode.
  virtual Status Close(FileHandle handle) = 0;

  // Asynchronous close: the handle is retired immediately and the returned
  // future completes when the close reaches the file system's first
  // durability point — level 1 (local disk) for SCFS's non-blocking mode,
  // whose upload -> metadata -> unlock chain then proceeds in background in
  // that order (paper §3.1); level 2/3 for blocking implementations. The
  // default adapter runs the blocking Close inline and returns a ready
  // future.
  virtual Future<Status> CloseAsync(FileHandle handle);

  // Flush point for the asynchronous pipeline: blocks until every close
  // issued so far is fully synchronized with the backend (durability 2/3,
  // metadata published, locks released). Default: no-op for fully
  // synchronous implementations.
  virtual Status SyncBarrier();

  // -- Namespace -----------------------------------------------------------

  virtual Status Mkdir(const std::string& path) = 0;
  virtual Status Rmdir(const std::string& path) = 0;
  virtual Status Unlink(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Result<FileStat> Stat(const std::string& path) = 0;
  virtual Result<std::vector<DirEntry>> ReadDir(const std::string& path) = 0;

  // -- Access control ------------------------------------------------------

  virtual Status SetFacl(const std::string& path, const std::string& user,
                         bool read, bool write) = 0;
  virtual Result<std::vector<AclEntry>> GetFacl(const std::string& path) = 0;

  // -- Convenience (non-virtual) -------------------------------------------

  // Creates/overwrites a whole file: open(create|write|trunc) + write + close.
  Status WriteFile(const std::string& path, const Bytes& data);
  // Opens, reads the opened version to EOF, closes.
  Result<Bytes> ReadFile(const std::string& path);
};

}  // namespace scfs

#endif  // SCFS_FSAPI_FILE_SYSTEM_H_
