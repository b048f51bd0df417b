// The generic policy layer (src/policy): registration/enumeration rules,
// alias lookup, link-time plugin registration driving a sharded fleet and
// a full simulation end-to-end, every surface's config field (unknown
// names rejected at construction, aliases bit-identical to their primary
// name), and concurrent registry access (the last is in CI's TSan
// matrix).
#include "policy/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cluster/admission.hpp"
#include "cluster/cluster_manager.hpp"
#include "cluster/migration.hpp"
#include "cluster/placement.hpp"
#include "cluster/sharded_manager.hpp"
#include "net/service.hpp"
#include "policy/catalog.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"
#include "transient/revocation.hpp"
#include "transient/spot_price.hpp"
#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace net = deflate::net;
namespace policy = deflate::policy;
namespace sc = deflate::simcluster;
namespace sim = deflate::sim;
namespace tr = deflate::trace;
namespace transient = deflate::transient;
namespace util = deflate::util;

namespace {

hv::VmSpec make_spec(std::uint64_t id, int vcpus, double mem_mib,
                     bool deflatable, double priority = 0.5) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = mem_mib;
  spec.deflatable = deflatable;
  spec.priority = priority;
  return spec;
}

std::vector<tr::VmRecord> small_trace(std::size_t n = 300,
                                      std::uint64_t seed = 77) {
  tr::AzureTraceConfig config;
  config.vm_count = n;
  config.seed = seed;
  config.duration = sim::SimTime::from_hours(36);
  return tr::AzureTraceGenerator(config).generate();
}

/// Link-time plugin: a shard selector that always proposes shard 0 (when
/// the VM fits there), exercising the exact registration path an external
/// plugin TU would use. Registered at namespace scope, before main().
class FirstShardSelector final : public cl::ShardSelector {
 public:
  void route(const cl::ShardScores& scores, util::Rng& /*rng*/,
             std::vector<std::size_t>& picks) override {
    if (scores.count() > 0) push_if_fits(scores, 0, picks);
  }
};

policy::PolicyRegistry<cl::ShardSelectionSurface>::Entry first_shard_entry() {
  policy::PolicyRegistry<cl::ShardSelectionSurface>::Entry entry;
  entry.name = "first-shard";
  entry.description = "test plugin: always prefer shard 0";
  entry.make = [] { return std::make_unique<FirstShardSelector>(); };
  return entry;
}

const policy::PolicyRegistration<cl::ShardSelectionSurface>
    kRegisterFirstShard{first_shard_entry()};

}  // namespace

// --- enumeration / registration rules ---------------------------------------

TEST(PolicyRegistry, CatalogEnumeratesEverySurface) {
  const auto surfaces = policy::describe_all_surfaces();
  ASSERT_GE(surfaces.size(), 5U);
  std::vector<std::string> names;
  for (const auto& surface : surfaces) {
    names.push_back(surface.surface);
    EXPECT_FALSE(surface.description.empty()) << surface.surface;
    EXPECT_GE(surface.policies.size(), 2U) << surface.surface;
    for (const auto& entry : surface.policies) {
      EXPECT_FALSE(entry.name.empty());
      EXPECT_FALSE(entry.description.empty()) << entry.name;
    }
  }
  for (const char* expected : {"admission", "placement", "shard-selection",
                               "migration", "revocation"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "surface '" << expected << "' missing from the catalog";
  }
}

TEST(PolicyRegistry, DuplicateEmptyAndNullRegistrationsRefused) {
  auto& registry = cl::ShardSelectionRegistry::instance();
  const std::size_t before = registry.size();

  // Duplicate primary name.
  EXPECT_FALSE(registry.add("p2c", "dup", [] {
    return std::make_unique<FirstShardSelector>();
  }));
  // Alias of an existing entry used as a primary name.
  EXPECT_FALSE(registry.add("power-of-two", "dup", [] {
    return std::make_unique<FirstShardSelector>();
  }));
  // New name carrying a colliding alias.
  EXPECT_FALSE(registry.add("fresh-name", "dup alias",
                            [] { return std::make_unique<FirstShardSelector>(); },
                            {"round-robin"}));
  // Empty name / null factory.
  EXPECT_FALSE(registry.add("", "anonymous", [] {
    return std::make_unique<FirstShardSelector>();
  }));
  EXPECT_FALSE(registry.add("null-make", "no factory",
                            cl::ShardSelectionSurface::Factory{}));

  EXPECT_EQ(registry.size(), before) << "refused adds must change nothing";
}

TEST(PolicyRegistry, AliasesResolveToTheirPrimaryEntry) {
  const auto& shard = cl::ShardSelectionRegistry::instance();
  EXPECT_EQ(shard.find("power-of-two"), shard.find("p2c"));
  ASSERT_NE(shard.find("p2c"), nullptr);
  EXPECT_EQ(shard.find("p2c")->name, "p2c");

  const auto& revocation = transient::RevocationRegistry::instance();
  EXPECT_EQ(revocation.find("price-crossing"), revocation.find("price"));

  const auto& admission = cl::AdmissionRegistry::instance();
  EXPECT_EQ(admission.find("price-threshold"), admission.find("price"));
  EXPECT_EQ(admission.find("bid-optimized"), admission.find("bid-opt"));

  // names() lists primary names only, sorted.
  const auto names = shard.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::find(names.begin(), names.end(), "power-of-two"),
            names.end());
}

// --- link-time plugin, end to end -------------------------------------------

TEST(PolicyRegistry, PluginSelectorRegisteredBeforeMain) {
  EXPECT_TRUE(kRegisterFirstShard.registered);
  const auto* entry =
      cl::ShardSelectionRegistry::instance().find("first-shard");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->description, "test plugin: always prefer shard 0");
}

TEST(PolicyRegistry, PluginSelectorDrivesShardedManager) {
  cl::ShardedClusterConfig config;
  config.cluster.server_count = 16;
  config.cluster.server_capacity = {16.0, 32768.0, 1e9, 1e9};
  config.shard_count = 4;
  config.selection = "first-shard";
  cl::ShardedClusterManager manager(config);

  // Shard 0 owns global servers 0..3 (64 cores): the plugin must steer
  // every placement there until the shard is full.
  for (std::uint64_t id = 1; id <= 16; ++id) {
    const cl::PlacementResult placed =
        manager.place_vm(make_spec(id, 4, 8192.0, false));
    ASSERT_TRUE(placed.ok()) << "vm " << id;
    EXPECT_LT(placed.host_id, 4U) << "vm " << id
                                  << " escaped shard 0 before it was full";
  }
  // Shard 0 full; the score-ordered fallback must still place the rest.
  const cl::PlacementResult spill =
      manager.place_vm(make_spec(17, 4, 8192.0, false));
  ASSERT_TRUE(spill.ok());
  EXPECT_GE(spill.host_id, 4U);
}

TEST(PolicyRegistry, PluginSelectorDrivesShardedSimulationEndToEnd) {
  const auto records = small_trace();
  sc::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, 0.0);
  config.shard_count = 4;
  config.shard_selection = "first-shard";

  sc::TraceDrivenSimulator simulator(records, config);
  const sc::SimMetrics metrics = simulator.run();
  EXPECT_EQ(metrics.vm_count, records.size());
  EXPECT_GT(metrics.vm_count, 0U);

  // Deterministic: the same plugin-driven config replays bit-identically.
  sc::TraceDrivenSimulator again(records, config);
  const sc::SimMetrics repeat = again.run();
  EXPECT_EQ(metrics.rejections, repeat.rejections);
  EXPECT_EQ(metrics.reclamation_failures, repeat.reclamation_failures);
  EXPECT_EQ(metrics.throughput_loss, repeat.throughput_loss);
}

TEST(PolicyRegistry, UnknownNamesThrowListingValidChoices) {
  cl::ShardedClusterConfig config;
  config.cluster.server_count = 4;
  config.shard_count = 2;
  config.selection = "no-such-policy";
  try {
    cl::ShardedClusterManager manager(config);
    FAIL() << "an unknown selection name must throw";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    EXPECT_NE(what.find("p2c"), std::string::npos)
        << "error must list the valid names: " << what;
  }
  EXPECT_THROW(cl::make_placement_scorer("bogus"), std::invalid_argument);
  EXPECT_THROW(transient::make_revocation_model("bogus"),
               std::invalid_argument);
  EXPECT_THROW((void)cl::make_migration_strategy("bogus"),
               std::invalid_argument);
  EXPECT_THROW(cl::make_shard_selector("bogus"), std::invalid_argument);
}

TEST(PolicyRegistry, RetiredEnumScopesHoldPrimaryNames) {
  const auto primary = [](const auto& registry, const char* name) {
    const auto* entry = registry.find(name);
    return entry != nullptr && entry->name == name;
  };
  const auto& revocation = transient::RevocationRegistry::instance();
  EXPECT_TRUE(primary(revocation, transient::RevocationModel::None));
  EXPECT_TRUE(primary(revocation, transient::RevocationModel::Poisson));
  EXPECT_TRUE(
      primary(revocation, transient::RevocationModel::TemporallyConstrained));
  EXPECT_TRUE(primary(revocation, transient::RevocationModel::PriceCrossing));
  const auto& admission = cl::AdmissionRegistry::instance();
  EXPECT_TRUE(primary(admission, cl::AdmissionPolicyKind::AdmitAll));
  EXPECT_TRUE(primary(admission, cl::AdmissionPolicyKind::PriceThreshold));
  EXPECT_TRUE(primary(admission, cl::AdmissionPolicyKind::BidOptimized));
}

TEST(PolicyRegistry, MigrationStrategiesResolveToTheirFlagPairs) {
  const struct {
    const char* name;
    bool deflate_before_transfer;
    bool checkpoint_fallback;
  } cases[] = {{"migrate", false, false},
               {"deflate", true, false},
               {"checkpoint", false, true},
               {"hybrid", true, true}};
  for (const auto& test_case : cases) {
    const cl::MigrationStrategy strategy =
        cl::make_migration_strategy(test_case.name);
    EXPECT_EQ(strategy.deflate_before_transfer,
              test_case.deflate_before_transfer)
        << test_case.name;
    EXPECT_EQ(strategy.checkpoint_fallback, test_case.checkpoint_fallback)
        << test_case.name;
  }
  // The engine's default is the checkpoint pair.
  EXPECT_EQ(cl::MigrationEngineConfig{}.strategy, "checkpoint");
}

// --- one config field per surface -------------------------------------------

namespace {

/// One registry surface and the config fields its name lives in.
struct SurfaceCase {
  const char* surface;
  void (*set_sim)(sc::SimConfig&, const std::string&);
  /// The daemon's field for this surface; null when the daemon has none.
  void (*set_service)(net::ServiceConfig&, const std::string&);
};

void set_sim_admission(sc::SimConfig& c, const std::string& n) {
  c.admission.policy = n;
}
void set_sim_placement(sc::SimConfig& c, const std::string& n) {
  c.placement = n;
}
void set_sim_shard_selection(sc::SimConfig& c, const std::string& n) {
  c.shard_selection = n;
}
void set_sim_migration(sc::SimConfig& c, const std::string& n) {
  c.migration.strategy = n;
}
void set_sim_revocation(sc::SimConfig& c, const std::string& n) {
  c.market.revocation.model = n;
}
void set_sim_control(sc::SimConfig& c, const std::string& n) {
  c.control.forecast = n;
}
void set_service_admission(net::ServiceConfig& c, const std::string& n) {
  c.admission_policy = n;
}
void set_service_placement(net::ServiceConfig& c, const std::string& n) {
  c.placement_policy = n;
}
void set_service_shard_selection(net::ServiceConfig& c, const std::string& n) {
  c.shard_policy = n;
}

const SurfaceCase kSurfaceCases[] = {
    {"admission", set_sim_admission, set_service_admission},
    {"placement", set_sim_placement, set_service_placement},
    {"shard-selection", set_sim_shard_selection, set_service_shard_selection},
    {"migration", set_sim_migration, nullptr},
    {"revocation", set_sim_revocation, nullptr},
    {"control", set_sim_control, nullptr},
};

policy::SurfaceInfo surface_info(const std::string& surface) {
  for (policy::SurfaceInfo& info : policy::describe_all_surfaces()) {
    if (info.surface == surface) return info;
  }
  ADD_FAILURE() << "surface '" << surface << "' missing from the catalog";
  return {};
}

/// A run that exercises every surface: three shards, a Poisson market
/// with warned revocations streamed off over a finite link, price-aware
/// admission and the live controller.
sc::SimConfig every_surface_config(const std::vector<tr::VmRecord>& records) {
  sc::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  config.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, 0.0);
  config.shard_count = 3;
  config.worker_threads = 1;
  config.market_enabled = true;
  config.market.seed = 5;
  config.market.revocation.model = "poisson";
  config.market.revocation.poisson_rate_per_hour = 1.0 / 6.0;
  config.market.revocation.bid = 0.25;  // under the mean spot price
  config.market.use_portfolio = false;   // a fixed transient share
  config.market.on_demand_share = 0.3;
  config.market.revocation.warning_hours = 120.0 / 3600.0;
  config.migration.model.bandwidth_mib_per_sec = 256.0;
  config.admission.policy = "price";
  config.admission.default_ceiling = 0.3;
  config.control.enabled = true;
  config.control.reopt_hours = 6.0;
  return config;
}

/// Every SimMetrics count plus the loss, deflation and cost doubles as bit
/// patterns: two runs that decided alike have equal digests.
std::vector<std::uint64_t> digest(const sc::SimMetrics& m) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {m.vm_count,
          m.deflatable_count,
          m.rejections,
          m.preemptions,
          m.reclamation_attempts,
          m.reclamation_failures,
          m.revocations,
          m.revocation_migrations,
          m.revocation_kills,
          m.live_migrations,
          m.checkpoint_restores,
          m.checkpoint_kills,
          m.admission_deferrals,
          m.admission_expired,
          m.admission_retries,
          m.control_reopts,
          m.control_moves,
          bits(m.throughput_loss),
          bits(m.mean_cpu_deflation),
          bits(m.unserved_core_hours),
          bits(m.admission_delay_hours),
          bits(m.migration_downtime_hours),
          bits(m.revenue.od_committed_core_hours),
          bits(m.revenue.df_allocated_core_hours),
          bits(m.cost.total_cost())};
}

}  // namespace

class PolicyNames : public ::testing::TestWithParam<SurfaceCase> {};

TEST_P(PolicyNames, UnknownNameThrowsAtConstructionListingValidNames) {
  const SurfaceCase& surface = GetParam();
  const policy::SurfaceInfo info = surface_info(surface.surface);
  const auto expect_listing = [&](const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos) << what;
    for (const policy::PolicyInfo& entry : info.policies) {
      EXPECT_NE(what.find(entry.name), std::string::npos)
          << "error must list '" << entry.name << "': " << what;
    }
  };

  // Flat fleet, no market, instant migration, controller off: the name
  // must be rejected even where this run would never use it.
  const auto records = small_trace(50, 3);
  sc::SimConfig config;
  config.server_count = 10;
  surface.set_sim(config, "no-such-policy");
  try {
    sc::TraceDrivenSimulator simulator(records, config);
    ADD_FAILURE() << surface.surface << ": simulator accepted an unknown name";
  } catch (const std::invalid_argument& error) {
    expect_listing(error);
  }

  if (surface.set_service == nullptr) return;
  net::ServiceConfig service;
  service.server_count = 4;  // one shard: the selector never routes
  surface.set_service(service, "no-such-policy");
  try {
    net::ServiceCore core(service);
    ADD_FAILURE() << surface.surface
                  << ": ServiceCore accepted an unknown name";
  } catch (const std::invalid_argument& error) {
    expect_listing(error);
  }
}

TEST_P(PolicyNames, EveryAliasDecidesBitIdenticallyToItsPrimaryName) {
  const SurfaceCase& surface = GetParam();
  const auto records = small_trace(200, 11);
  const auto run = [&](const std::string& name) {
    sc::SimConfig config = every_surface_config(records);
    surface.set_sim(config, name);
    return sc::TraceDrivenSimulator(records, config).run();
  };
  for (const policy::PolicyInfo& entry :
       surface_info(surface.surface).policies) {
    if (entry.aliases.empty()) continue;
    const sc::SimMetrics primary = run(entry.name);
    // Not vacuous: the run exercises every surface.
    EXPECT_GT(primary.revocations, 0U) << entry.name;
    EXPECT_GT(primary.live_migrations, 0U) << entry.name;
    EXPECT_GT(primary.control_reopts, 0U) << entry.name;
    for (const std::string& alias : entry.aliases) {
      EXPECT_EQ(digest(run(alias)), digest(primary))
          << surface.surface << ": '" << alias << "' vs '" << entry.name << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EverySurface, PolicyNames, ::testing::ValuesIn(kSurfaceCases),
    [](const ::testing::TestParamInfo<SurfaceCase>& info) {
      std::string name = info.param.surface;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- concurrency (CI runs this suite under TSan) ----------------------------

TEST(PolicyRegistry, ConcurrentLookupEnumerationAndRegistrationAreSafe) {
  auto& registry = cl::ShardSelectionRegistry::instance();
  std::atomic<bool> go{false};
  std::atomic<int> found{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, &go, &found] {
      while (!go.load()) {
      }
      for (int i = 0; i < 500; ++i) {
        const auto* entry = registry.find(i % 2 == 0 ? "p2c" : "power-of-two");
        if (entry != nullptr && entry->name == "p2c") found.fetch_add(1);
        (void)registry.names();
        (void)registry.entries();
        (void)policy::joined_policy_names<cl::ShardSelectionSurface>();
      }
    });
  }
  // Writers racing the readers: one duplicate (always refused) and one
  // stream of unique registrations.
  threads.emplace_back([&registry, &go] {
    while (!go.load()) {
    }
    for (int i = 0; i < 200; ++i) {
      EXPECT_FALSE(registry.add("p2c", "dup", [] {
        return std::make_unique<FirstShardSelector>();
      }));
    }
  });
  threads.emplace_back([&registry, &go] {
    while (!go.load()) {
    }
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(registry.add(
          "tsan-probe-" + std::to_string(i), "transient test entry",
          [] { return std::make_unique<FirstShardSelector>(); }));
    }
  });

  go.store(true);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(found.load(), 4 * 500);
  // Entries registered mid-flight are fully visible afterwards.
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(registry.find("tsan-probe-" + std::to_string(i)), nullptr);
  }
}
