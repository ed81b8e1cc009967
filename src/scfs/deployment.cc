#include "src/scfs/deployment.h"

#include "src/common/rng.h"

namespace scfs {

namespace {
Bytes DeploymentAuthKey() { return ToBytes("scfs-deployment-auth-key"); }
}  // namespace

Deployment::~Deployment() = default;

std::unique_ptr<Deployment> Deployment::Create(Environment* env,
                                               DeploymentOptions options) {
  auto deployment = std::unique_ptr<Deployment>(new Deployment());
  deployment->env_ = env;
  deployment->options_ = options;

  if (options.backend == ScfsBackendKind::kAws) {
    CloudProfile profile = ProviderProfile(ProviderId::kAmazonS3);
    if (options.zero_latency) {
      profile.read_latency = LatencyModel::None();
      profile.write_latency = LatencyModel::None();
      profile.control_latency = LatencyModel::None();
      profile.consistency_window_base = 0;
      profile.consistency_window_jitter = 0;
    }
    deployment->clouds_.push_back(
        std::make_unique<SimulatedCloud>(profile, env, options.seed));
  } else {
    auto profiles = CocStorageProfiles();
    for (unsigned i = 0; i < profiles.size(); ++i) {
      if (options.zero_latency) {
        profiles[i].read_latency = LatencyModel::None();
        profiles[i].write_latency = LatencyModel::None();
        profiles[i].control_latency = LatencyModel::None();
        profiles[i].consistency_window_base = 0;
        profiles[i].consistency_window_jitter = 0;
      }
      deployment->clouds_.push_back(std::make_unique<SimulatedCloud>(
          profiles[i], env, options.seed + i));
    }
  }

  if (options.zero_latency) {
    auto coord = std::make_unique<LocalCoordination>(env, LatencyModel::None(),
                                                     options.seed);
    deployment->local_coord_ = coord.get();
    deployment->coord_ = std::move(coord);
  } else if (options.backend == ScfsBackendKind::kAws) {
    // One DepSpace server on an EC2 VM in Ireland: ~30-50 ms one-way, 60-100
    // ms per coordination access, as the paper reports.
    auto coord = std::make_unique<LocalCoordination>(
        env, CoordinationLinkLatency(0), options.seed);
    deployment->local_coord_ = coord.get();
    deployment->coord_ = std::move(coord);
  } else {
    SmrConfig config;
    config.f = options.f;
    config.byzantine = true;
    config.client_links.clear();
    for (unsigned i = 0; i < config.replica_count(); ++i) {
      config.client_links.push_back(CoordinationLinkLatency(i));
    }
    // Replicas sit in different European computing clouds: ~10 ms apart.
    config.replica_link = LatencyModel::WideArea(FromMillis(9), FromMillis(5), 16.0);
    // Benchmarks run at aggressive time scales where real scheduling noise
    // maps to large virtual delays; keep failure detection timeouts generous
    // so no spurious view changes fire (fault experiments build their own
    // SmrConfig).
    config.client_timeout = 20 * kSecond;
    config.order_timeout = 8 * kSecond;
    if (options.coord_max_batch > 0) {
      config.max_batch = options.coord_max_batch;
    }
    if (options.coord_max_inflight_instances > 0) {
      config.max_inflight_instances = options.coord_max_inflight_instances;
    }
    if (options.coord_replica_link_one_way > 0) {
      config.replica_link =
          LatencyModel::Fixed(options.coord_replica_link_one_way);
    }
    if (options.coord_partitions > 1) {
      PartitionedCoordinationConfig pconfig;
      pconfig.partitions = options.coord_partitions;
      pconfig.smr = config;
      pconfig.spare_partitions = options.coord_spare_partitions;
      pconfig.auto_split = options.coord_auto_split;
      pconfig.split_hot_share = options.coord_split_hot_share;
      pconfig.split_window = options.coord_split_window;
      pconfig.split_min_total_ops_s = options.coord_split_min_total_ops_s;
      pconfig.merge_cold_share = options.coord_merge_cold_share;
      // A committed migration revokes delegated caches on the moved keys
      // through the deployment's lease manager: the controller executes
      // below the LeasedCoordination decorator, so the piggybacked
      // revocation path never sees the migration's mutations.
      LeaseManager* leases = &deployment->lease_manager_;
      pconfig.on_migration_commit =
          [leases](const std::vector<LeaseRevocation>& revoked) {
            leases->NotifyRevocations(revoked);
          };
      auto coord = std::make_unique<PartitionedCoordination>(env, pconfig,
                                                             options.seed);
      deployment->partitioned_coord_ = coord.get();
      deployment->coord_ = std::move(coord);
    } else {
      auto coord =
          std::make_unique<ReplicatedCoordination>(env, config, options.seed);
      deployment->replicated_coord_ = coord.get();
      deployment->coord_ = std::move(coord);
    }
  }
  if (options.lease_ttl > 0) {
    // Wrap the coordination stub so every mutation reply's revocation
    // notices reach the lease holders before the mutation acks. The raw
    // introspection pointers (local_coord_, replicated_coord_,
    // partitioned_coord_) keep pointing at the inner implementation.
    deployment->coord_ = std::make_unique<LeasedCoordination>(
        std::move(deployment->coord_), &deployment->lease_manager_);
  }
  return deployment;
}

Status Deployment::SplitPartition(unsigned src) {
  if (partitioned_coord_ == nullptr) {
    return NotSupportedError(
        "elastic repartitioning needs a partitioned coordination plane");
  }
  return partitioned_coord_->SplitPartition(src);
}

Status Deployment::MergePartitions(unsigned src, unsigned dst) {
  if (partitioned_coord_ == nullptr) {
    return NotSupportedError(
        "elastic repartitioning needs a partitioned coordination plane");
  }
  return partitioned_coord_->MergePartitions(src, dst);
}

uint64_t Deployment::CoordReplyBytes() const {
  if (local_coord_ != nullptr) {
    return local_coord_->reply_bytes_out();
  }
  if (replicated_coord_ != nullptr) {
    return replicated_coord_->cluster().reply_bytes_out();
  }
  if (partitioned_coord_ != nullptr) {
    return partitioned_coord_->reply_bytes_out();
  }
  return 0;
}

std::vector<CanonicalId> Deployment::CloudIdsFor(
    const std::string& user) const {
  std::vector<CanonicalId> ids;
  ids.reserve(clouds_.size());
  for (const auto& cloud : clouds_) {
    ids.push_back(cloud->provider_name() + ":" + user);
  }
  return ids;
}

Result<std::unique_ptr<ScfsFileSystem>> Deployment::Mount(
    const std::string& user, ScfsOptions options) {
  options.user = user;
  options.user_cloud_ids = CloudIdsFor(user);
  if (options_.lease_ttl > 0) {
    options.leases = &lease_manager_;
    options.lease_ttl = options_.lease_ttl;
    options.lease_max_prefixes = options_.lease_max_prefixes;
  }

  BlobBackend* backend = nullptr;
  if (options_.backend == ScfsBackendKind::kAws) {
    auto owned = std::make_unique<SingleCloudBackend>(
        clouds_[0].get(), CloudCredentials{options.user_cloud_ids[0]});
    backend = owned.get();
    backends_.push_back(std::move(owned));
  } else {
    DepSkyConfig config;
    config.f = options_.f;
    config.mode = DepSkyMode::kSecretSharing;
    config.preferred_quorums = true;
    config.auth_key = DeploymentAuthKey();
    std::vector<DepSkyCloud> set;
    for (unsigned i = 0; i < clouds_.size(); ++i) {
      set.push_back(DepSkyCloud{clouds_[i].get(),
                                CloudCredentials{options.user_cloud_ids[i]}});
    }
    // One random stream per mount, not per user: two agents of one user
    // must never draw the same file keys or value-object ids.
    auto client = std::make_shared<DepSkyClient>(
        env_, std::move(set), config,
        MixSeed(options_.seed ^ std::hash<std::string>{}(user),
                depsky_clients_.size()));
    depsky_clients_.push_back(client);
    auto owned = std::make_unique<DepSkyBackend>(std::move(client));
    backend = owned.get();
    backends_.push_back(std::move(owned));
  }

  auto fs = std::make_unique<ScfsFileSystem>(env_, coord_.get(), backend,
                                             std::move(options));
  RETURN_IF_ERROR(fs->Mount());
  return fs;
}

UsageTotals Deployment::CloudUsage(const std::string& user) const {
  UsageTotals out;
  for (unsigned i = 0; i < clouds_.size(); ++i) {
    UsageTotals u =
        clouds_[i]->costs().Totals(clouds_[i]->provider_name() + ":" + user);
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

uint64_t Deployment::StoredBytes(const std::string& user) const {
  uint64_t out = 0;
  for (const auto& cloud : clouds_) {
    out += cloud->costs().StoredBytes(cloud->provider_name() + ":" + user);
  }
  return out;
}

}  // namespace scfs
