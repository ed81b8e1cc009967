// BackgroundScrubber: client-transparent redundancy repair for DepSky's
// units (DESIGN.md "Units", repair protocol).
//
// A cloud outage or data-loss event leaves stored objects missing or corrupt
// while reads keep succeeding off the surviving quorum — redundancy has
// silently degraded from n holders to as few as k. The scrubber walks the
// tracked data units in the background and asks the backend to probe and
// repair each one (BlobBackend::ScrubUnit → DepSkyClient::ScrubUnit for the
// cloud-of-clouds): lost shards are rebuilt byte-identically from k
// survivors and re-uploaded, unreachable holders are relocated to spare
// clouds. Clients never participate — repair traffic rides the same
// robust-call envelope as regular I/O and no read ever blocks on a pass.
//
// Passes ride a (serialized) BackgroundUploader lane, the same bounded
// pipeline that carries non-blocking uploads, so scrub work is subject to
// the same backpressure and drain discipline as every other background
// stage.

#ifndef SCFS_SCFS_SCRUBBER_H_
#define SCFS_SCFS_SCRUBBER_H_

#include <mutex>
#include <set>
#include <string>

#include "src/common/future.h"
#include "src/common/status.h"
#include "src/scfs/background.h"
#include "src/scfs/blob_backend.h"

namespace scfs {

class BackgroundScrubber {
 public:
  // Aggregate over all completed passes.
  struct Stats {
    uint64_t passes = 0;
    uint64_t units_scrubbed = 0;
    uint64_t versions_checked = 0;
    uint64_t objects_checked = 0;
    uint64_t objects_missing = 0;
    uint64_t objects_repaired = 0;
    uint64_t objects_relocated = 0;
    uint64_t repair_failures = 0;
  };

  // `backend` and `uploader` must outlive the scrubber. The uploader should
  // be a serialized lane so passes never overlap (overlapping passes would
  // race their relocation metadata pushes).
  BackgroundScrubber(BlobBackend* backend, BackgroundUploader* uploader)
      : backend_(backend), uploader_(uploader) {}

  // Registers a data unit for scrubbing (idempotent). SCFS tracks every file
  // id it has written through the backend.
  void Track(const std::string& id);
  void Untrack(const std::string& id);
  size_t tracked() const;

  // Enqueues one pass over all tracked units on the uploader lane. The
  // returned future completes when the pass has finished; its status is the
  // first backend error (individual repair failures are counted in stats,
  // not surfaced as errors — the pass continues).
  Future<Status> SchedulePass();

  // Runs one pass synchronously on the caller (tests and fault drills);
  // returns the report aggregated over this pass only.
  Result<DepSkyScrubReport> RunPassNow();

  Stats stats() const;

 private:
  DepSkyScrubReport ScrubTracked(Status* first_error);

  BlobBackend* backend_;
  BackgroundUploader* uploader_;
  mutable std::mutex mu_;
  std::set<std::string> units_;
  Stats stats_;
};

}  // namespace scfs

#endif  // SCFS_SCFS_SCRUBBER_H_
