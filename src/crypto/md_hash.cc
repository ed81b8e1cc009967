#include "src/crypto/md_hash.h"

namespace scfs {

bool CpuHasShaNi() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("sha") &&
                          __builtin_cpu_supports("ssse3") &&
                          __builtin_cpu_supports("sse4.1");
  return has;
#else
  return false;
#endif
}

}  // namespace scfs
