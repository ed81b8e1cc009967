// Tracing for the benchmark's traced run: a FileSystem decorator that records
// one span per call at the agent's public boundary, in the style of FuseSim
// in bench/harness.h. Spans go to the calling thread's SpanLog (one per
// worker, so recording takes no lock), stay in memory, and are written out
// when the run ends. Spans inside coordination, DepSky and the clouds need
// hooks in the library and are not recorded here.

#ifndef PERFBENCH_SRC_TRACING_H_
#define PERFBENCH_SRC_TRACING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fsapi/file_system.h"
#include "src/sim/environment.h"

namespace perfbench {

// Nanoseconds of CPU consumed by the calling thread / the whole process.
int64_t ThreadCpuNs();
int64_t ProcessCpuNs();
// Monotonic wall clock, in seconds.
double WallSeconds();

struct Span {
  uint64_t op = 0;            // id shared by every span of one operation
  const char* name = "";      // static string: "open", "op.read", ...
  scfs::VirtualTime start = 0;  // virtual microseconds
  scfs::VirtualTime end = 0;
  int64_t charged_us = 0;     // modelled (slept) virtual time inside the span
  int64_t cpu_ns = 0;         // calling-thread CPU inside the span
  bool ok = true;
};

class SpanLog {
 public:
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }
  // Host time spent recording spans (the tracing overhead), nanoseconds.
  int64_t overhead_ns() const { return overhead_ns_; }
  void AddOverhead(int64_t ns) { overhead_ns_ += ns; }

 private:
  std::vector<Span> spans_;
  int64_t overhead_ns_ = 0;
};

// Binds the calling thread's spans to `log` under operation id `op`; a null
// log turns recording off for the thread.
void BindSpanLog(SpanLog* log, uint64_t op);

// Writes every span of `logs` as CSV (op,name,start_us,end_us,charged_us,
// cpu_us,ok). Returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs);

class TracingFileSystem : public scfs::FileSystem {
 public:
  TracingFileSystem(scfs::Environment* env, scfs::FileSystem* inner)
      : env_(env), inner_(inner) {}

  scfs::Result<scfs::FileHandle> Open(const std::string& path,
                                      uint32_t flags) override;
  scfs::Result<scfs::Bytes> Read(scfs::FileHandle h, uint64_t off,
                                 size_t n) override;
  scfs::Status Write(scfs::FileHandle h, uint64_t off,
                     const scfs::Bytes& data) override;
  scfs::Status Truncate(scfs::FileHandle h, uint64_t size) override;
  scfs::Status Fsync(scfs::FileHandle h) override;
  scfs::Status Close(scfs::FileHandle h) override;
  scfs::Status SyncBarrier() override;
  scfs::Status Mkdir(const std::string& p) override;
  scfs::Status Rmdir(const std::string& p) override;
  scfs::Status Unlink(const std::string& p) override;
  scfs::Status Rename(const std::string& a, const std::string& b) override;
  scfs::Result<scfs::FileStat> Stat(const std::string& p) override;
  scfs::Result<std::vector<scfs::DirEntry>> ReadDir(
      const std::string& p) override;
  scfs::Status SetFacl(const std::string& p, const std::string& u, bool r,
                       bool w) override;
  scfs::Result<std::vector<scfs::AclEntry>> GetFacl(
      const std::string& p) override;

 private:
  template <typename Call>
  auto Traced(const char* name, Call&& call) -> decltype(call());

  scfs::Environment* env_;
  scfs::FileSystem* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACING_H_
