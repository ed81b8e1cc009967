#include "src/cloud/providers.h"

#include <algorithm>
#include <tuple>

namespace scfs {

CloudProfile ProviderProfile(ProviderId id) {
  CloudProfile p;
  switch (id) {
    case ProviderId::kAmazonS3:
      p.name = "amazon-s3";
      // Portugal -> us-east: high RTT, decent throughput.
      p.read_latency = LatencyModel::WideArea(FromMillis(220), FromMillis(120), 2.5);
      p.write_latency = LatencyModel::WideArea(FromMillis(260), FromMillis(140), 1.8);
      p.control_latency = LatencyModel::WideArea(FromMillis(200), FromMillis(80), 0);
      p.consistency_window_base = FromMillis(150);
      p.consistency_window_jitter = FromMillis(1200);
      p.prices = PriceBook::AmazonS3();
      break;
    case ProviderId::kGoogleStorage:
      p.name = "google-storage";
      p.read_latency = LatencyModel::WideArea(FromMillis(240), FromMillis(130), 2.2);
      p.write_latency = LatencyModel::WideArea(FromMillis(280), FromMillis(150), 1.6);
      p.control_latency = LatencyModel::WideArea(FromMillis(210), FromMillis(90), 0);
      p.consistency_window_base = FromMillis(120);
      p.consistency_window_jitter = FromMillis(900);
      p.prices = PriceBook::GoogleStorage();
      break;
    case ProviderId::kAzureBlob:
      p.name = "azure-blob";
      // Portugal -> Europe: lower RTT, better throughput.
      p.read_latency = LatencyModel::WideArea(FromMillis(120), FromMillis(60), 3.5);
      p.write_latency = LatencyModel::WideArea(FromMillis(150), FromMillis(70), 2.6);
      p.control_latency = LatencyModel::WideArea(FromMillis(110), FromMillis(50), 0);
      p.consistency_window_base = FromMillis(80);
      p.consistency_window_jitter = FromMillis(600);
      p.prices = PriceBook::AzureBlob();
      break;
    case ProviderId::kRackspaceFiles:
      p.name = "rackspace-files";
      p.read_latency = LatencyModel::WideArea(FromMillis(140), FromMillis(70), 3.0);
      p.write_latency = LatencyModel::WideArea(FromMillis(170), FromMillis(90), 2.2);
      p.control_latency = LatencyModel::WideArea(FromMillis(130), FromMillis(60), 0);
      p.consistency_window_base = FromMillis(100);
      p.consistency_window_jitter = FromMillis(800);
      p.prices = PriceBook::RackspaceFiles();
      break;
  }
  return p;
}

std::vector<CloudProfile> CocStorageProfiles() {
  std::vector<CloudProfile> profiles = {
      ProviderProfile(ProviderId::kAmazonS3),
      ProviderProfile(ProviderId::kGoogleStorage),
      ProviderProfile(ProviderId::kAzureBlob),
      ProviderProfile(ProviderId::kRackspaceFiles)};
  // DepSky's preferred quorum is the first n-f clouds of this list, so the
  // list is the cost order: by PUT price (every shard is a PUT on a
  // preferred cloud), then by GET price (a read gets k of those shards).
  auto request_prices = [](const CloudProfile& p) {
    return std::tie(p.prices.put_per_10k, p.prices.get_per_10k);
  };
  std::stable_sort(profiles.begin(), profiles.end(),
                   [&](const CloudProfile& a, const CloudProfile& b) {
                     return request_prices(a) < request_prices(b);
                   });
  return profiles;
}

std::unique_ptr<SimulatedCloud> MakeCloud(ProviderId id, Environment* env,
                                          uint64_t seed) {
  return std::make_unique<SimulatedCloud>(ProviderProfile(id), env, seed);
}

LatencyModel CoordinationLinkLatency(unsigned replica_index) {
  // {EC2 Ireland, Rackspace UK, Azure Europe, Elastichosts UK}.
  switch (replica_index % 4) {
    case 0:
      return LatencyModel::WideArea(FromMillis(34), FromMillis(14), 8.0);
    case 1:
      return LatencyModel::WideArea(FromMillis(28), FromMillis(12), 8.0);
    case 2:
      return LatencyModel::WideArea(FromMillis(30), FromMillis(12), 8.0);
    default:
      return LatencyModel::WideArea(FromMillis(36), FromMillis(16), 8.0);
  }
}

double CoordinationVmPricePerDay(unsigned replica_index, bool extra_large) {
  // Figure 11a: one EC2 Large is $6.24/day ($12.96 XL); the 4-provider CoC
  // setup totals $39.60/day Large and $77.04/day XL, with Rackspace and
  // Elastichosts charging almost 100% more than EC2/Azure.
  static constexpr double kLarge[4] = {6.24, 13.20, 6.48, 13.68};
  static constexpr double kExtraLarge[4] = {12.96, 25.20, 13.20, 25.68};
  return extra_large ? kExtraLarge[replica_index % 4]
                     : kLarge[replica_index % 4];
}

uint64_t CoordinationCapacityTuples(bool extra_large) {
  // Figure 11a: ~7M 1KB tuples on a Large instance, ~15M on an Extra Large.
  return extra_large ? 15ULL * 1000 * 1000 : 7ULL * 1000 * 1000;
}

}  // namespace scfs
