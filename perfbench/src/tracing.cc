#include "perfbench/src/tracing.h"

#include <time.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

thread_local SpanLog* t_log = nullptr;
thread_local uint64_t t_op = 0;

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void BindSpanLog(SpanLog* log, uint64_t op) {
  t_log = log;
  t_op = op;
}

bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "op,name,start_us,end_us,charged_us,cpu_us,ok\n");
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::fprintf(out, "%llu,%s,%lld,%lld,%lld,%.3f,%d\n",
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.charged_us), s.cpu_ns / 1e3,
                   s.ok ? 1 : 0);
    }
  }
  return std::fclose(out) == 0;
}

template <typename Call>
auto TracingFileSystem::Traced(const char* name, Call&& call)
    -> decltype(call()) {
  SpanLog* log = t_log;
  if (log == nullptr) {
    return call();
  }
  const int64_t mark0 = ThreadCpuNs();
  Span span;
  span.op = t_op;
  span.name = name;
  span.start = env_->Now();
  const scfs::VirtualDuration charged0 = scfs::Environment::ThreadCharged();
  const int64_t cpu0 = ThreadCpuNs();
  log->AddOverhead(cpu0 - mark0);

  auto result = call();

  const int64_t cpu1 = ThreadCpuNs();
  span.end = env_->Now();
  span.charged_us = scfs::Environment::ThreadCharged() - charged0;
  span.cpu_ns = cpu1 - cpu0;
  span.ok = result.ok();
  log->Add(span);
  log->AddOverhead(ThreadCpuNs() - cpu1);
  return result;
}

scfs::Result<scfs::FileHandle> TracingFileSystem::Open(const std::string& path,
                                                       uint32_t flags) {
  return Traced("open", [&] { return inner_->Open(path, flags); });
}
scfs::Result<scfs::Bytes> TracingFileSystem::Read(scfs::FileHandle h,
                                                  uint64_t off, size_t n) {
  return Traced("read", [&] { return inner_->Read(h, off, n); });
}
scfs::Status TracingFileSystem::Write(scfs::FileHandle h, uint64_t off,
                                      const scfs::Bytes& data) {
  return Traced("write", [&] { return inner_->Write(h, off, data); });
}
scfs::Status TracingFileSystem::Truncate(scfs::FileHandle h, uint64_t size) {
  return Traced("truncate", [&] { return inner_->Truncate(h, size); });
}
scfs::Status TracingFileSystem::Fsync(scfs::FileHandle h) {
  return Traced("fsync", [&] { return inner_->Fsync(h); });
}
scfs::Status TracingFileSystem::Close(scfs::FileHandle h) {
  return Traced("close", [&] { return inner_->Close(h); });
}
scfs::Status TracingFileSystem::SyncBarrier() { return inner_->SyncBarrier(); }
scfs::Status TracingFileSystem::Mkdir(const std::string& p) {
  return Traced("mkdir", [&] { return inner_->Mkdir(p); });
}
scfs::Status TracingFileSystem::Rmdir(const std::string& p) {
  return Traced("rmdir", [&] { return inner_->Rmdir(p); });
}
scfs::Status TracingFileSystem::Unlink(const std::string& p) {
  return Traced("unlink", [&] { return inner_->Unlink(p); });
}
scfs::Status TracingFileSystem::Rename(const std::string& a,
                                       const std::string& b) {
  return Traced("rename", [&] { return inner_->Rename(a, b); });
}
scfs::Result<scfs::FileStat> TracingFileSystem::Stat(const std::string& p) {
  return Traced("stat", [&] { return inner_->Stat(p); });
}
scfs::Result<std::vector<scfs::DirEntry>> TracingFileSystem::ReadDir(
    const std::string& p) {
  return Traced("readdir", [&] { return inner_->ReadDir(p); });
}
scfs::Status TracingFileSystem::SetFacl(const std::string& p,
                                        const std::string& u, bool r, bool w) {
  return Traced("setfacl", [&] { return inner_->SetFacl(p, u, r, w); });
}
scfs::Result<std::vector<scfs::AclEntry>> TracingFileSystem::GetFacl(
    const std::string& p) {
  return Traced("getfacl", [&] { return inner_->GetFacl(p); });
}

}  // namespace perfbench
