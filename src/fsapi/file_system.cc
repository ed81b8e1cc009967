#include "src/fsapi/file_system.h"

#include <cstdint>

namespace scfs {

Future<Status> FileSystem::CloseAsync(FileHandle handle) {
  // Synchronous adapter: the caller was charged inline by Close itself.
  return Future<Status>::Ready(Close(handle));
}

Status FileSystem::SyncBarrier() { return OkStatus(); }

Status FileSystem::WriteFile(const std::string& path, const Bytes& data) {
  ASSIGN_OR_RETURN(FileHandle handle,
                   Open(path, kOpenWrite | kOpenCreate | kOpenTruncate));
  Status write_status = Write(handle, 0, data);
  // Close runs even when the write failed: it retires the handle and, in
  // implementations with per-file locks, releases the lock — a failed write
  // must never leave the file locked.
  Status close_status = Close(handle);
  if (!write_status.ok()) {
    return write_status;
  }
  return close_status;
}

Result<Bytes> FileSystem::ReadFile(const std::string& path) {
  ASSIGN_OR_RETURN(FileHandle handle, Open(path, kOpenRead));
  // Read the handle to EOF rather than sizing the read with a path Stat: the
  // path may already name a newer version (or none, after a concurrent
  // unlink) than the one this handle opened.
  auto data = Read(handle, 0, SIZE_MAX);
  Status close_status = Close(handle);
  if (!data.ok()) {
    return data.status();
  }
  if (!close_status.ok()) {
    return close_status;
  }
  return std::move(*data);
}

}  // namespace scfs
