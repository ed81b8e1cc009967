// Shared by the example programs: a step that fails prints its status and
// ends the program with exit code 1, so no example dereferences a failed
// Result.

#ifndef SCFS_EXAMPLES_MUST_H_
#define SCFS_EXAMPLES_MUST_H_

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/status.h"

namespace scfs {

inline void Must(const Status& status, const char* step) {
  if (!status.ok()) {
    std::printf("%s failed: %s\n", step, status.ToString().c_str());
    std::fflush(stdout);
    // Without running destructors: the deployment's threads are still up.
    std::_Exit(1);
  }
}

template <typename T>
T Must(Result<T> result, const char* step) {
  Must(result.status(), step);
  return std::move(*result);
}

}  // namespace scfs

#endif  // SCFS_EXAMPLES_MUST_H_
