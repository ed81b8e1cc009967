// Cloud pricing and cost accounting.
//
// The paper's economics (Figure 11, and the always-write/avoid-reading design
// principle) rest on the 2013/2014 cloud price book: inbound transfer free,
// outbound ~$0.12/GB, storage ~$0.09/GB-month, per-request micro-charges and
// flat daily VM prices. The meter records every charged event per account so
// experiments can report cost-per-operation in microdollars, exactly like
// Figure 11(b).

#ifndef SCFS_CLOUD_COST_METER_H_
#define SCFS_CLOUD_COST_METER_H_

#include <map>
#include <mutex>
#include <string>

#include "src/cloud/acl.h"

namespace scfs {

struct PriceBook {
  double outbound_per_gb = 0.12;      // USD per GB downloaded
  double inbound_per_gb = 0.0;        // uploads are free (the paper's insight)
  double storage_per_gb_month = 0.09;  // USD per GB stored per month
  double put_per_10k = 0.05;          // USD per 10k PUT/LIST requests (S3-like)
  double get_per_10k = 0.004;         // USD per 10k GET requests
  double delete_per_10k = 0.0;        // deletes are free on all four clouds

  static PriceBook AmazonS3();
  static PriceBook GoogleStorage();
  static PriceBook AzureBlob();
  static PriceBook RackspaceFiles();
};

// Flat daily VM prices for the coordination service (Figure 11a), per
// provider and instance size, in USD/day.
struct VmPricing {
  double large_per_day = 6.24;
  double extra_large_per_day = 12.96;
};

struct UsageTotals {
  double outbound_cost = 0.0;
  double inbound_cost = 0.0;
  double request_cost = 0.0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t lists = 0;
  uint64_t deletes = 0;

  double TotalCost() const {
    return outbound_cost + inbound_cost + request_cost;
  }
};

class CostMeter {
 public:
  explicit CostMeter(PriceBook prices) : prices_(prices) {}

  void RecordPut(const CanonicalId& account, uint64_t bytes);
  void RecordGet(const CanonicalId& account, uint64_t bytes);
  void RecordList(const CanonicalId& account);
  void RecordDelete(const CanonicalId& account);

  // Current stored footprint, maintained by the object store.
  void AddStoredBytes(const CanonicalId& account, int64_t delta);
  uint64_t StoredBytes(const CanonicalId& account) const;

  // USD/day to keep the account's current bytes stored.
  double StorageCostPerDay(const CanonicalId& account) const;

  UsageTotals Totals(const CanonicalId& account) const;
  UsageTotals GrandTotals() const;
  const PriceBook& prices() const { return prices_; }

 private:
  PriceBook prices_;
  mutable std::mutex mu_;
  std::map<CanonicalId, UsageTotals> usage_;
  std::map<CanonicalId, uint64_t> stored_bytes_;
};

// One million microdollars per dollar; Figure 11(b) reports microdollars.
inline double ToMicrodollars(double usd) { return usd * 1e6; }

}  // namespace scfs

#endif  // SCFS_CLOUD_COST_METER_H_
