// Provider profiles calibrated to the paper's testbed (clients in Portugal;
// Table 3, Figures 8-9 latencies): Amazon S3 and Google Cloud Storage in the
// US, Rackspace Cloud Files and Windows Azure in the UK/Europe, plus the VM
// providers used for the coordination service (EC2 Ireland, Rackspace UK,
// Azure Europe, Elastichosts UK).

#ifndef SCFS_CLOUD_PROVIDERS_H_
#define SCFS_CLOUD_PROVIDERS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cloud/simulated_cloud.h"

namespace scfs {

enum class ProviderId {
  kAmazonS3,        // US
  kGoogleStorage,   // US
  kAzureBlob,       // UK/Europe
  kRackspaceFiles,  // UK
};

// Storage profile for one provider, as observed from the paper's cluster.
CloudProfile ProviderProfile(ProviderId id);

// All four storage providers of the CoC backend, cheapest first by request
// price (PUT, then GET): {Rackspace, Azure, S3, GCS}. DepSky takes its list
// in cost order, so its preferred quorum is the first n-f of these.
std::vector<CloudProfile> CocStorageProfiles();

// Creates a simulated cloud for the given provider.
std::unique_ptr<SimulatedCloud> MakeCloud(ProviderId id, Environment* env,
                                          uint64_t seed);

// Round-trip latency from the client cluster to the coordination-service
// replica hosted at each computing cloud (EC2 Ireland, Rackspace UK, Azure
// Europe, Elastichosts UK). The paper reports 60-100 ms per coordination
// access.
LatencyModel CoordinationLinkLatency(unsigned replica_index);

// Daily VM price for a coordination replica at `replica_index`
// (Figure 11a: Rackspace and Elastichosts charge ~2x EC2/Azure).
double CoordinationVmPricePerDay(unsigned replica_index, bool extra_large);

// DepSpace memory capacity in 1KB metadata tuples (Figure 11a).
uint64_t CoordinationCapacityTuples(bool extra_large);

}  // namespace scfs

#endif  // SCFS_CLOUD_PROVIDERS_H_
