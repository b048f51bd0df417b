// Parallel parity stress (ctest label: scale). Placement runs on one
// thread; what is still parallel feeds it records, and must be invisible
// in every result:
//
//   * The serial fleet-scale churn end state — per-server committed and
//     allocated CPU plus ClusterStats, flat and 4-shard — matches a digest
//     recorded before the pooled placement scan, the pooled view drains
//     and the shard-refresh pool were deleted: deleting them moved no
//     decision.
//   * A sharded replay whose arrival stream prefetches windows on 1, 4 or
//     16 workers produces bit-identical SimMetrics and CostReport.
//   * AzureTraceGenerator::generate() (a parallel_for over the global
//     pool) equals a serial generate_vm loop, record for record.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/sharded_manager.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "trace/replay.hpp"
#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace res = deflate::res;
namespace sc = deflate::simcluster;
namespace tr = deflate::trace;
namespace util = deflate::util;

namespace {

hv::VmSpec churn_spec(util::Rng& rng, std::uint64_t id) {
  static const int kCores[] = {8, 16, 16, 24, 32};
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = kCores[rng.uniform_int(0, 4)];
  spec.memory_mib = spec.vcpus * 2048.0;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = rng.bernoulli(0.6);
  spec.priority =
      spec.deflatable ? 0.2 * static_cast<double>(rng.uniform_int(1, 4)) : 1.0;
  return spec;
}

/// FNV-1a over 64-bit words: doubles by bit pattern, so the digest pins
/// every per-server value exactly.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct ChurnEndState {
  std::uint64_t digest = 0;  ///< per-server CPU columns + every stats field
  cl::ClusterStats stats;
};

/// Seeded warm + churn with revocations/restores mixed in: exercises the
/// placement scan, the deflation path, take_server_offline/restore (which
/// flip scan-table eligibility) and the flush barrier.
ChurnEndState run_churn(std::size_t servers, std::size_t shards) {
  cl::ShardedClusterConfig config;
  config.cluster.server_count = servers;
  config.cluster.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.shard_count = shards;
  const std::unique_ptr<cl::ClusterManagerBase> owned =
      cl::make_cluster_manager(config);
  cl::ClusterManagerBase& manager = *owned;

  util::Rng rng(2020);
  std::vector<std::uint64_t> live;
  std::vector<std::size_t> revoked;
  std::uint64_t next_id = 1;

  const double target = 0.55 * 48.0 * static_cast<double>(servers);
  double committed = 0.0;
  while (committed < target) {
    const hv::VmSpec spec = churn_spec(rng, next_id++);
    if (manager.place_vm(spec).ok()) {
      live.push_back(spec.id);
      committed += static_cast<double>(spec.vcpus);
    }
  }

  for (std::size_t op = 0; op < 1500; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 5 && !live.empty()) {  // replace a resident
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      manager.remove_vm(live[pick]);
      live[pick] = live.back();
      live.pop_back();
      const hv::VmSpec spec = churn_spec(rng, next_id++);
      if (manager.place_vm(spec).ok()) live.push_back(spec.id);
    } else if (kind < 8) {  // fresh arrival (pressure builds)
      const hv::VmSpec spec = churn_spec(rng, next_id++);
      if (manager.place_vm(spec).ok()) live.push_back(spec.id);
    } else if (kind == 8) {  // revoke a random active server
      const std::size_t server = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(servers) - 1));
      if (manager.server_active(server)) {
        manager.revoke_server(server);
        revoked.push_back(server);
      }
    } else if (!revoked.empty()) {  // restore the oldest revocation
      manager.restore_server(revoked.front());
      revoked.erase(revoked.begin());
    }
    if (op % 64 == 0) manager.flush_views();
  }
  manager.flush_views();

  ChurnEndState state;
  state.stats = manager.stats();
  Digest digest;
  for (std::size_t i = 0; i < servers; ++i) {
    digest.add(manager.host(i).committed()[res::Resource::Cpu]);
    digest.add(manager.host(i).allocated()[res::Resource::Cpu]);
  }
  const cl::ClusterStats& s = state.stats;
  for (const std::uint64_t counter :
       {s.placements, s.reclamation_attempts, s.reclamation_failures,
        s.deflated_launches, s.preemptions, s.rejections, s.revocations,
        s.restorations, s.revocation_migrations, s.revocation_kills,
        s.admission_deferrals, s.admission_expired}) {
    digest.add(counter);
  }
  state.digest = digest.value();
  return state;
}

/// The market-on sharded replay of the simulator parity cases, fed by a
/// stream that prefetches `window`-record batches on `prefetch_workers`.
sc::SimMetrics run_sharded_replay(std::size_t prefetch_workers) {
  tr::ReplayConfig replay;
  replay.azure.vm_count = 500;
  replay.azure.seed = 77;
  replay.azure.duration = deflate::sim::SimTime::from_hours(48);
  replay.window = 64;  // many refills, each split across the workers
  replay.worker_threads = prefetch_workers;
  const std::unique_ptr<tr::VmArrivalStream> stream =
      tr::make_arrival_stream(replay);

  sc::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count =
      tr::servers_for_overcommit(*stream, config.server_capacity, -0.2);
  config.shard_count = 8;
  config.market_enabled = true;
  config.market.seed = 13;
  config.market.revocation.model = "poisson";
  config.market.revocation.poisson_rate_per_hour = 1.0 / 18.0;
  config.market.portfolio.on_demand_floor = 0.25;
  return sc::TraceDrivenSimulator(*stream, config).run();
}

}  // namespace

// Digests recorded from the serial churn before the pooled placement paths
// were deleted. A mismatch means a placement decision moved.
TEST(ParallelParity, SerialFlatChurnMatchesRecordedDigest) {
  const ChurnEndState flat = run_churn(10000, 1);
  EXPECT_EQ(flat.stats.placements, 15152U);
  EXPECT_EQ(flat.stats.rejections, 0U);
  EXPECT_EQ(flat.stats.revocations, 145U);
  EXPECT_EQ(flat.digest, 0x14b59a759e0545eaULL);
}

TEST(ParallelParity, SerialShardedChurnMatchesRecordedDigest) {
  const ChurnEndState sharded = run_churn(10000, 4);
  EXPECT_EQ(sharded.stats.placements, 15145U);
  EXPECT_EQ(sharded.stats.rejections, 0U);
  EXPECT_EQ(sharded.stats.revocations, 145U);
  EXPECT_EQ(sharded.digest, 0x8453cfe8222ece9aULL);
}

// The stream's prefetch pool is the placement layer's one parallel input:
// the replay's every metric, cost integrals included, must be independent
// of its worker count.
TEST(ParallelParity, ShardedReplayIsPrefetchWorkerInvariant) {
  const sc::SimMetrics serial = run_sharded_replay(1);
  EXPECT_GT(serial.revocations, 0U);
  for (const std::size_t workers : {std::size_t{4}, std::size_t{16}}) {
    const sc::SimMetrics pooled = run_sharded_replay(workers);
    EXPECT_EQ(serial.vm_count, pooled.vm_count);
    EXPECT_EQ(serial.reclamation_attempts, pooled.reclamation_attempts);
    EXPECT_EQ(serial.reclamation_failures, pooled.reclamation_failures);
    EXPECT_EQ(serial.preemptions, pooled.preemptions);
    EXPECT_EQ(serial.rejections, pooled.rejections);
    EXPECT_EQ(serial.revocations, pooled.revocations);
    EXPECT_EQ(serial.revocation_migrations, pooled.revocation_migrations);
    EXPECT_EQ(serial.revocation_kills, pooled.revocation_kills);
    EXPECT_EQ(serial.failure_probability, pooled.failure_probability);
    EXPECT_EQ(serial.throughput_loss, pooled.throughput_loss);
    EXPECT_EQ(serial.unserved_core_hours, pooled.unserved_core_hours);
    EXPECT_EQ(serial.mean_cpu_deflation, pooled.mean_cpu_deflation);
    EXPECT_EQ(serial.achieved_overcommit, pooled.achieved_overcommit);
    EXPECT_EQ(serial.transient_server_share, pooled.transient_server_share);
    EXPECT_EQ(serial.cost.on_demand_core_hours,
              pooled.cost.on_demand_core_hours);
    EXPECT_EQ(serial.cost.transient_core_hours,
              pooled.cost.transient_core_hours);
    EXPECT_EQ(serial.cost.on_demand_cost, pooled.cost.on_demand_cost);
    EXPECT_EQ(serial.cost.transient_cost, pooled.cost.transient_cost);
    EXPECT_EQ(serial.cost.all_on_demand_cost, pooled.cost.all_on_demand_cost);
  }
}

// generate() fills records in parallel chunks; each record is a pure
// function of (seed, id), so the batch equals the serial loop.
TEST(ParallelParity, AzureGenerateMatchesSerialGenerateVm) {
  tr::AzureTraceConfig config;
  config.vm_count = 2000;
  config.seed = 77;
  config.duration = deflate::sim::SimTime::from_hours(48);
  const tr::AzureTraceGenerator generator(config);
  const std::vector<tr::VmRecord> batch = generator.generate();
  ASSERT_EQ(batch.size(), config.vm_count);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const tr::VmRecord serial = generator.generate_vm(i);
    ASSERT_EQ(batch[i].id, serial.id) << "record " << i;
    ASSERT_EQ(batch[i].workload, serial.workload) << "record " << i;
    ASSERT_EQ(batch[i].vcpus, serial.vcpus) << "record " << i;
    ASSERT_EQ(batch[i].memory_mib, serial.memory_mib) << "record " << i;
    ASSERT_EQ(batch[i].disk_bw_mbps, serial.disk_bw_mbps) << "record " << i;
    ASSERT_EQ(batch[i].net_bw_mbps, serial.net_bw_mbps) << "record " << i;
    ASSERT_EQ(batch[i].start, serial.start) << "record " << i;
    ASSERT_EQ(batch[i].end, serial.end) << "record " << i;
    ASSERT_EQ(batch[i].cpu.samples(), serial.cpu.samples()) << "record " << i;
  }
}
