#include "src/cloud/cost_meter.h"

namespace scfs {

namespace {
constexpr double kGb = 1024.0 * 1024.0 * 1024.0;
}  // namespace

PriceBook PriceBook::AmazonS3() {
  PriceBook p;
  p.outbound_per_gb = 0.12;
  p.storage_per_gb_month = 0.09;
  p.put_per_10k = 0.05;
  p.get_per_10k = 0.004;
  return p;
}

PriceBook PriceBook::GoogleStorage() {
  PriceBook p;
  p.outbound_per_gb = 0.12;
  p.storage_per_gb_month = 0.085;
  p.put_per_10k = 0.10;
  p.get_per_10k = 0.01;
  return p;
}

PriceBook PriceBook::AzureBlob() {
  PriceBook p;
  p.outbound_per_gb = 0.12;
  p.storage_per_gb_month = 0.095;
  p.put_per_10k = 0.0005;
  p.get_per_10k = 0.0005;
  return p;
}

PriceBook PriceBook::RackspaceFiles() {
  PriceBook p;
  p.outbound_per_gb = 0.12;
  p.storage_per_gb_month = 0.10;
  p.put_per_10k = 0.0;
  p.get_per_10k = 0.0;
  return p;
}

void CostMeter::RecordPut(const CanonicalId& account, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  UsageTotals& u = usage_[account];
  u.puts++;
  u.bytes_in += bytes;
  u.inbound_cost += static_cast<double>(bytes) / kGb * prices_.inbound_per_gb;
  u.request_cost += prices_.put_per_10k / 10000.0;
}

void CostMeter::RecordGet(const CanonicalId& account, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  UsageTotals& u = usage_[account];
  u.gets++;
  u.bytes_out += bytes;
  u.outbound_cost += static_cast<double>(bytes) / kGb * prices_.outbound_per_gb;
  u.request_cost += prices_.get_per_10k / 10000.0;
}

void CostMeter::RecordList(const CanonicalId& account) {
  std::lock_guard<std::mutex> lock(mu_);
  UsageTotals& u = usage_[account];
  u.lists++;
  u.request_cost += prices_.put_per_10k / 10000.0;  // LIST billed like PUT
}

void CostMeter::RecordDelete(const CanonicalId& account) {
  std::lock_guard<std::mutex> lock(mu_);
  UsageTotals& u = usage_[account];
  u.deletes++;
  u.request_cost += prices_.delete_per_10k / 10000.0;
}

void CostMeter::AddStoredBytes(const CanonicalId& account, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& stored = stored_bytes_[account];
  if (delta < 0 && static_cast<uint64_t>(-delta) > stored) {
    stored = 0;
  } else {
    stored = static_cast<uint64_t>(static_cast<int64_t>(stored) + delta);
  }
}

uint64_t CostMeter::StoredBytes(const CanonicalId& account) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stored_bytes_.find(account);
  return it == stored_bytes_.end() ? 0 : it->second;
}

double CostMeter::StorageCostPerDay(const CanonicalId& account) const {
  return static_cast<double>(StoredBytes(account)) / kGb *
         prices_.storage_per_gb_month / 30.0;
}

UsageTotals CostMeter::Totals(const CanonicalId& account) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = usage_.find(account);
  return it == usage_.end() ? UsageTotals{} : it->second;
}

UsageTotals CostMeter::GrandTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  UsageTotals out;
  for (const auto& [account, u] : usage_) {
    out.outbound_cost += u.outbound_cost;
    out.inbound_cost += u.inbound_cost;
    out.request_cost += u.request_cost;
    out.bytes_out += u.bytes_out;
    out.bytes_in += u.bytes_in;
    out.puts += u.puts;
    out.gets += u.gets;
    out.lists += u.lists;
    out.deletes += u.deletes;
  }
  return out;
}

}  // namespace scfs
