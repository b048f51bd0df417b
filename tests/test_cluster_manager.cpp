#include "cluster/cluster_manager.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace res = deflate::res;

namespace {

hv::VmSpec make_spec(std::uint64_t id, int vcpus, double mem_mib,
                     bool deflatable, double priority = 0.5) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = mem_mib;
  spec.disk_bw_mbps = 0.0;
  spec.net_bw_mbps = 0.0;
  spec.deflatable = deflatable;
  spec.priority = priority;
  return spec;
}

cl::ClusterConfig small_cluster(std::size_t servers = 2,
                                cl::ReclamationMode mode =
                                    cl::ReclamationMode::Deflation) {
  cl::ClusterConfig config;
  config.server_count = servers;
  config.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  config.mode = mode;
  return config;
}

}  // namespace

TEST(ClusterManager, PlacesVmOnEmptyCluster) {
  cl::ClusterManager manager(small_cluster());
  const auto result = manager.place_vm(make_spec(1, 8, 16384.0, false));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.status, cl::PlacementResult::Status::Placed);
  EXPECT_FALSE(result.needed_reclamation);
  EXPECT_NE(manager.find_vm(1), nullptr);
}

TEST(ClusterManager, SpreadsLoadAcrossServers) {
  cl::ClusterManager manager(small_cluster(2));
  manager.place_vm(make_spec(1, 8, 16384.0, false));
  const auto second = manager.place_vm(make_spec(2, 8, 16384.0, false));
  // The fitness term prefers the emptier server.
  EXPECT_NE(manager.server_of(1).value(), second.host_id);
}

TEST(ClusterManager, DeflatesResidentsToFitOnDemand) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 16, 32768.0, /*deflatable=*/true));
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, false));
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.needed_reclamation);
  EXPECT_EQ(manager.stats().reclamation_attempts, 1U);
  EXPECT_EQ(manager.stats().reclamation_failures, 0U);
  // The deflatable VM shrank to make room.
  EXPECT_GT(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, RejectsWhenNothingDeflatable) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 16, 32768.0, /*deflatable=*/false));
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, false));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(manager.stats().reclamation_failures, 1U);
  EXPECT_EQ(manager.stats().rejections, 1U);
}

TEST(ClusterManager, DeflatableVmLaunchesDeflatedUnderPressure) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 12, 24576.0, /*deflatable=*/false));
  // 16-core deflatable VM cannot fit at full size (only 4 cores left).
  const auto result = manager.place_vm(make_spec(2, 16, 32768.0, true, 0.2));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.status, cl::PlacementResult::Status::PlacedDeflated);
  EXPECT_LT(result.launch_fraction, 1.0);
  EXPECT_EQ(manager.stats().deflated_launches, 1U);
  const hv::Vm* vm = manager.find_vm(2);
  ASSERT_NE(vm, nullptr);
  EXPECT_GT(vm->max_deflation_fraction(), 0.0);
}

// Pins a quirk of the deflated-launch ladder without endorsing it: the
// ladder walks the deflated_launch_step grid and stops at the last step at
// or above the policy minimum, so a minimum off the grid is never tried.
// Trying it would move placement decisions (a design change, tracked in
// ROADMAP.md).
TEST(ClusterManager, DeflatedLaunchNeverTriesOffGridMinimum) {
  std::vector<double> tried;
  const double last = cl::walk_launch_ladder(0.05, 0.42, [&](double f) {
    tried.push_back(f);
    return false;
  });
  ASSERT_FALSE(tried.empty());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(last),
            std::bit_cast<std::uint64_t>(tried.back()));
  EXPECT_GT(last, 0.42 + 0.01);  // the 0.45 step; 0.40 is below the minimum
  for (const double f : tried) EXPECT_NE(f, 0.42);
  // On the grid, raising a step to the minimum moves it by at most 1e-9.
  const double on_grid =
      cl::walk_launch_ladder(0.05, 0.5, [](double) { return false; });
  EXPECT_GE(on_grid, 0.5);
  EXPECT_LE(on_grid - 0.5, 1e-9);
  // A policy above the whole grid tries full size only.
  EXPECT_EQ(cl::walk_launch_ladder(0.05, 0.97, [](double) { return false; }),
            1.0);

  // The priority policy's minimum pi * M = 0.42 of an 8-core VM is 3.36
  // cores, which fits the 3.5 free cores; the 0.45 step (3.6) does not, and
  // the ladder stops there, so the VM is rejected.
  cl::ClusterConfig config = small_cluster(1);
  config.server_capacity = {15.5, 32768.0, 1e9, 1e9};
  config.policy = deflate::core::PolicyKind::Priority;
  cl::ClusterManager manager(config);
  ASSERT_TRUE(manager.place_vm(make_spec(1, 12, 1024.0, false)).ok());
  const hv::VmSpec squeezed = make_spec(2, 8, 4096.0, true, 0.42);
  const auto rejected = manager.place_vm(squeezed);
  EXPECT_EQ(rejected.status, cl::PlacementResult::Status::Rejected);
  EXPECT_EQ(manager.stats().rejections, 1U);

  // With 3.7 free cores the 0.45 step fits, and that grid step, not the
  // minimum, is the launch fraction.
  config.server_capacity = {15.7, 32768.0, 1e9, 1e9};
  cl::ClusterManager roomier(config);
  ASSERT_TRUE(roomier.place_vm(make_spec(1, 12, 1024.0, false)).ok());
  const auto placed = roomier.place_vm(squeezed);
  EXPECT_EQ(placed.status, cl::PlacementResult::Status::PlacedDeflated);
  EXPECT_NEAR(placed.launch_fraction, 0.45, 1e-9);
}

TEST(ClusterManager, RemoveVmReinflatesSurvivors) {
  cl::ClusterManager manager(small_cluster(1));
  manager.place_vm(make_spec(1, 16, 32768.0, true));
  manager.place_vm(make_spec(2, 8, 16384.0, false));
  ASSERT_GT(manager.find_vm(1)->max_deflation_fraction(), 0.0);
  EXPECT_TRUE(manager.remove_vm(2));
  EXPECT_DOUBLE_EQ(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, RemoveUnknownVmReturnsFalse) {
  cl::ClusterManager manager(small_cluster());
  EXPECT_FALSE(manager.remove_vm(404));
}

TEST(ClusterManager, TotalsTrackPlacements) {
  cl::ClusterManager manager(small_cluster(2));
  manager.place_vm(make_spec(1, 8, 16384.0, false));
  manager.place_vm(make_spec(2, 4, 8192.0, true));
  const auto committed = manager.total_committed();
  EXPECT_DOUBLE_EQ(committed.cpu(), 12.0);
  EXPECT_DOUBLE_EQ(manager.total_capacity().cpu(), 32.0);
  EXPECT_DOUBLE_EQ(manager.total_allocated().cpu(), 12.0);
}

TEST(ClusterManager, DeflationNotificationsSurface) {
  cl::ClusterManager manager(small_cluster(1));
  int events = 0;
  manager.subscribe_deflation([&](const hv::Vm&, const res::ResourceVector&,
                                  const res::ResourceVector&) { ++events; });
  manager.place_vm(make_spec(1, 16, 32768.0, true));
  manager.place_vm(make_spec(2, 8, 16384.0, false));
  EXPECT_GE(events, 1);
}

TEST(ClusterManager, PreemptionModeEvictsLowPriority) {
  cl::ClusterManager manager(
      small_cluster(1, cl::ReclamationMode::Preemption));
  manager.place_vm(make_spec(1, 8, 16384.0, true, /*priority=*/0.2));
  manager.place_vm(make_spec(2, 8, 16384.0, true, /*priority=*/0.8));
  std::vector<std::uint64_t> preempted;
  manager.subscribe_preemption([&](const hv::VmSpec& spec, std::uint64_t host) {
    EXPECT_EQ(host, 0U);  // single-server cluster
    preempted.push_back(spec.id);
  });

  const auto result = manager.place_vm(make_spec(3, 8, 16384.0, false));
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(preempted.size(), 1U);
  EXPECT_EQ(preempted[0], 1U);  // lowest priority evicted first
  EXPECT_EQ(manager.find_vm(1), nullptr);
  EXPECT_NE(manager.find_vm(2), nullptr);
  EXPECT_EQ(manager.stats().preemptions, 1U);
}

TEST(ClusterManager, PreemptionModeDeflatableNeverEvicts) {
  cl::ClusterManager manager(
      small_cluster(1, cl::ReclamationMode::Preemption));
  manager.place_vm(make_spec(1, 16, 32768.0, true, 0.2));
  // A deflatable VM must not preempt others; it is simply rejected.
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, true, 0.4));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(manager.stats().preemptions, 0U);
  EXPECT_NE(manager.find_vm(1), nullptr);
}

TEST(ClusterManager, PartitionedPlacementSeparatesPriorities) {
  cl::ClusterConfig config = small_cluster(5);
  config.partitioned = true;
  config.pool_weights = {0.2, 0.2, 0.2, 0.2, 0.2};
  cl::ClusterManager manager(config);

  const auto od = manager.place_vm(make_spec(1, 4, 8192.0, false));
  const auto low = manager.place_vm(make_spec(2, 4, 8192.0, true, 0.2));
  const auto high = manager.place_vm(make_spec(3, 4, 8192.0, true, 0.8));
  ASSERT_TRUE(od.ok());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_NE(od.host_id, low.host_id);
  EXPECT_NE(low.host_id, high.host_id);
  EXPECT_NE(od.host_id, high.host_id);
}

TEST(ClusterManager, PartitionFullRejectsEvenIfClusterHasRoom) {
  cl::ClusterConfig config = small_cluster(2);
  config.partitioned = true;
  config.pool_weights = {0.5, 0.5};
  cl::ClusterManager manager(config);
  // Fill the on-demand pool (one server).
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, false)).ok());
  const auto result = manager.place_vm(make_spec(2, 8, 16384.0, false));
  // §5.2.1: "if a partition becomes full ... new VMs may have to be
  // rejected using the admission control mechanism".
  EXPECT_FALSE(result.ok());
}

// --- server-level revocations (transient market) ---------------------------

TEST(ClusterManager, RevokeServerMigratesVmsInDeflationMode) {
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 16384.0, true)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 8, 16384.0, true)).ok());
  const std::size_t victim_server = manager.server_of(1).value();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> migrations;
  manager.subscribe_migration([&](const hv::VmSpec& spec, std::uint64_t from,
                                  std::uint64_t to, double /*fraction*/) {
    EXPECT_EQ(from, victim_server);
    migrations.emplace_back(spec.id, to);
  });

  const auto outcome = manager.revoke_server(victim_server);
  EXPECT_EQ(outcome.vms_displaced, 1U);
  EXPECT_EQ(outcome.vms_migrated, 1U);
  EXPECT_EQ(outcome.vms_killed, 0U);
  ASSERT_EQ(migrations.size(), 1U);
  EXPECT_NE(migrations[0].second, victim_server);
  EXPECT_FALSE(manager.server_active(victim_server));
  EXPECT_EQ(manager.active_server_count(), 1U);
  // Both VMs still alive, now co-located on the surviving server.
  EXPECT_NE(manager.find_vm(1), nullptr);
  EXPECT_NE(manager.find_vm(2), nullptr);
  EXPECT_EQ(manager.stats().revocations, 1U);
  EXPECT_EQ(manager.stats().revocation_migrations, 1U);
}

TEST(ClusterManager, RevokeServerKillsVmsInPreemptionMode) {
  cl::ClusterManager manager(
      small_cluster(2, cl::ReclamationMode::Preemption));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 16384.0, true)).ok());
  const std::size_t server = manager.server_of(1).value();
  std::vector<std::uint64_t> killed;
  manager.subscribe_preemption([&](const hv::VmSpec& spec, std::uint64_t host) {
    EXPECT_EQ(host, server);
    killed.push_back(spec.id);
  });
  const auto outcome = manager.revoke_server(server);
  EXPECT_EQ(outcome.vms_displaced, 1U);
  EXPECT_EQ(outcome.vms_killed, 1U);
  EXPECT_EQ(outcome.vms_migrated, 0U);
  ASSERT_EQ(killed.size(), 1U);
  EXPECT_EQ(manager.find_vm(1), nullptr);
  EXPECT_EQ(manager.stats().revocation_kills, 1U);
}

TEST(ClusterManager, RevokedServerRejectsPlacementsUntilRestored) {
  cl::ClusterManager manager(small_cluster(1));
  manager.revoke_server(0);
  EXPECT_FALSE(manager.place_vm(make_spec(1, 4, 8192.0, false)).ok());
  manager.restore_server(0);
  EXPECT_TRUE(manager.server_active(0));
  EXPECT_TRUE(manager.place_vm(make_spec(2, 4, 8192.0, false)).ok());
  EXPECT_EQ(manager.stats().restorations, 1U);
}

TEST(ClusterManager, RevocationKillsWhenNoSurvivorFits) {
  cl::ClusterManager manager(small_cluster(2));
  // Fill both servers with on-demand VMs, plus one deflatable victim.
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, false)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  const std::size_t server = manager.server_of(1).value();
  std::vector<std::uint64_t> killed;
  manager.subscribe_preemption(
      [&](const hv::VmSpec& spec, std::uint64_t /*host*/) {
        killed.push_back(spec.id);
      });
  const auto outcome = manager.revoke_server(server);
  // The displaced on-demand VM cannot deflate anyone on the packed
  // survivor, so it is lost.
  EXPECT_EQ(outcome.vms_displaced, 1U);
  EXPECT_EQ(outcome.vms_killed, 1U);
  ASSERT_EQ(killed.size(), 1U);
  EXPECT_EQ(killed[0], 1U);
}

TEST(ClusterManager, RevokeIsIdempotent) {
  cl::ClusterManager manager(small_cluster(2));
  manager.revoke_server(0);
  const auto second = manager.revoke_server(0);
  EXPECT_EQ(second.vms_displaced, 0U);
  EXPECT_EQ(manager.stats().revocations, 1U);
}

TEST(ClusterManager, RevocationKillKeepsPreemptionStatInLockstepWithCallbacks) {
  // Deflation-mode revocation that cannot re-place the displaced VM: the
  // preemption callback fires, and the preemption stat must agree with it
  // (it used to count only in preemption mode).
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, false)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  std::size_t callbacks = 0;
  manager.subscribe_preemption(
      [&](const hv::VmSpec&, std::uint64_t) { ++callbacks; });

  const auto outcome = manager.revoke_server(manager.server_of(1).value());
  EXPECT_EQ(outcome.vms_killed, 1U);
  EXPECT_EQ(callbacks, 1U);
  EXPECT_EQ(manager.stats().preemptions, callbacks);
  EXPECT_EQ(manager.stats().preemptions, manager.stats().revocation_kills);
}

TEST(ClusterManager, EmptyServerRevocationLeavesDisplacementStatsUntouched) {
  cl::ClusterManager manager(small_cluster(2));
  ASSERT_TRUE(manager.place_vm(make_spec(1, 8, 16384.0, true)).ok());
  const std::size_t occupied = manager.server_of(1).value();
  const std::size_t empty = 1 - occupied;
  const cl::ClusterStats before = manager.stats();

  std::size_t revocation_events = 0;
  manager.subscribe_revocation(
      [&](std::uint64_t host, const cl::RevocationOutcome& outcome) {
        ++revocation_events;
        EXPECT_EQ(host, empty);
        EXPECT_EQ(outcome.vms_displaced, 0U);
        EXPECT_EQ(outcome.vms_migrated, 0U);
        EXPECT_EQ(outcome.vms_killed, 0U);
      });
  const auto outcome = manager.revoke_server(empty);
  EXPECT_EQ(outcome.vms_displaced, 0U);
  EXPECT_EQ(revocation_events, 1U);

  // The revocation is counted, but none of the displacement machinery ran.
  const cl::ClusterStats& after = manager.stats();
  EXPECT_EQ(after.revocations, before.revocations + 1);
  EXPECT_EQ(after.revocation_migrations, before.revocation_migrations);
  EXPECT_EQ(after.revocation_kills, before.revocation_kills);
  EXPECT_EQ(after.preemptions, before.preemptions);
  EXPECT_EQ(after.placements, before.placements);
  EXPECT_EQ(after.reclamation_attempts, before.reclamation_attempts);
  EXPECT_EQ(after.rejections, before.rejections);
}

TEST(ClusterManager, RestoredServerAndDeparturesReinflateDeflatedSurvivors) {
  // Revocation migrates a VM onto an occupied server, deflating residents
  // there; restoring the revoked server returns capacity (placements land
  // again) and a later departure reinflates the deflated survivors.
  cl::ClusterConfig config = small_cluster(2);
  cl::ClusterManager manager(config);
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, true)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, true)).ok());
  const std::size_t victim = manager.server_of(2).value();

  const auto outcome = manager.revoke_server(victim);
  ASSERT_EQ(outcome.vms_migrated, 1U);
  // Both VMs share one server now; someone had to deflate.
  EXPECT_GT(manager.find_vm(1)->max_deflation_fraction() +
                manager.find_vm(2)->max_deflation_fraction(),
            0.0);

  manager.restore_server(victim);
  EXPECT_TRUE(manager.server_active(victim));
  // The restored capacity is placeable again...
  const auto placed = manager.place_vm(make_spec(3, 16, 32768.0, false));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.host_id, victim);
  // ...and a departure on the crowded server reinflates the survivor.
  ASSERT_TRUE(manager.remove_vm(2));
  EXPECT_DOUBLE_EQ(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, ReinflateOnDepartureOffKeepsSurvivorsDeflated) {
  cl::ClusterConfig config = small_cluster(2);
  config.reinflate_on_departure = false;
  cl::ClusterManager manager(config);
  ASSERT_TRUE(manager.place_vm(make_spec(1, 16, 32768.0, true)).ok());
  ASSERT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, true)).ok());
  const std::size_t victim = manager.server_of(2).value();
  ASSERT_EQ(manager.revoke_server(victim).vms_migrated, 1U);
  manager.restore_server(victim);
  const double deflated = manager.find_vm(1)->max_deflation_fraction() +
                          manager.find_vm(2)->max_deflation_fraction();
  ASSERT_GT(deflated, 0.0);

  ASSERT_TRUE(manager.remove_vm(2));
  // The ablation flag holds: the survivor stays deflated after departure.
  EXPECT_GT(manager.find_vm(1)->max_deflation_fraction(), 0.0);
}

TEST(ClusterManager, DrainedServerRefusesPlacementsUntilRevokedOrRestored) {
  cl::ClusterManager manager(small_cluster(2));
  manager.drain_server(0);
  const auto placed = manager.place_vm(make_spec(1, 4, 8192.0, false));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.host_id, 1U);  // only the undrained server is eligible
  // Revoking and restoring clears the drain.
  manager.revoke_server(0);
  manager.restore_server(0);
  manager.remove_vm(1);
  EXPECT_TRUE(manager.place_vm(make_spec(2, 16, 32768.0, false)).ok());
  EXPECT_TRUE(manager.place_vm(make_spec(3, 16, 32768.0, false)).ok());
}

TEST(ClusterManager, AggregateFreeMatchesNaiveSumUnderChurn) {
  // Random place / remove / revoke / restore / drain churn; after every
  // step the column-sum aggregate must equal a naive per-server sum of the
  // active rows, bit for bit, and every row must be fresh.
  auto config = small_cluster(12);
  cl::ClusterManager manager(config);
  deflate::util::Rng rng(99);
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  std::size_t restored_revoked = 0;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (int step = 0; step < 3000; ++step) {
    const double action = rng.u01();
    const auto server = static_cast<std::size_t>(rng.uniform_int(0, 11));
    if (action < 0.55) {
      const int vcpus = static_cast<int>(rng.uniform_int(1, 4)) * 2;
      const auto spec = make_spec(next_id++, vcpus, vcpus * 2048.0,
                                  rng.bernoulli(0.6), rng.uniform(0.2, 1.0));
      if (manager.place_vm(spec).ok()) live.push_back(spec.id);
    } else if (action < 0.85 && !live.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      manager.remove_vm(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else if (action < 0.9) {
      manager.revoke_server(server);
    } else if (action < 0.95) {
      if (!manager.server_active(server)) ++restored_revoked;
      manager.restore_server(server);
    } else {
      manager.drain_server(server);
    }

    const cl::FleetAggregate aggregate = manager.aggregate_free();
    const cl::HostScanTable& table = manager.scan_table();
    res::ResourceVector available;
    res::ResourceVector deflatable;
    std::size_t active = 0;
    for (std::size_t i = 0; i < manager.server_count(); ++i) {
      ASSERT_EQ(table.available_of(i), manager.host(i).available());
      if (!manager.server_active(i)) continue;
      available += table.available_of(i);
      deflatable += table.deflatable_of(i);
      ++active;
    }
    ASSERT_EQ(aggregate.active_servers, active);
    ASSERT_EQ(aggregate.active_servers, manager.active_server_count());
    for (const res::Resource r : res::all_resources) {
      ASSERT_EQ(bits(aggregate.available[r]), bits(available[r])) << step;
      ASSERT_EQ(bits(aggregate.deflatable[r]), bits(deflatable[r])) << step;
    }
  }
  EXPECT_GT(restored_revoked, 10u);
}
