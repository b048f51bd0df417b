// Oracle test for the certified-reject memo in ClusterManager::place_vm.
//
// Before every placement the test replays the unbounded deflated-launch
// ladder (a test-local copy: every fraction from full size down, two scans
// each, no memo) over the manager's own scan table with the manager's own
// scorer, and requires place_vm to agree with it on the outcome (status,
// host, launch fraction) and on every ClusterStats delta, bit for bit.
// Fleets are random, partitioned and single-pool, under every builtin
// scorer and the proportional, priority and deterministic policies (with
// minimum fractions on and off the ladder's grid), interleaved with
// departures, revocations, restores, drains and scorer rebinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_manager.hpp"
#include "core/policy.hpp"
#include "mechanisms/mechanism.hpp"
#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace core = deflate::core;
namespace hv = deflate::hv;
namespace res = deflate::res;

namespace {

/// Scans run by every counted scorer (the test is single-threaded).
std::uint64_t g_scans = 0;

/// Forwards to a builtin and counts its scans, so the test can tell a
/// rejection certified by the memo (no scan) from a full ladder.
class CountedScorer final : public cl::PlacementScorer {
 public:
  explicit CountedScorer(std::shared_ptr<const cl::PlacementScorer> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] Order order() const noexcept override {
    return inner_->order();
  }
  [[nodiscard]] bool prefer_lower_id_on_tie() const noexcept override {
    return inner_->prefer_lower_id_on_tie();
  }
  [[nodiscard]] double score(const res::ResourceVector& demand,
                             const cl::HostView& host,
                             bool under_pressure) const override {
    return inner_->score(demand, host, under_pressure);
  }
  [[nodiscard]] cl::ScanWinner scan(
      const cl::ScanRequest& request) const override {
    ++g_scans;
    return inner_->scan(request);
  }

 private:
  std::shared_ptr<const cl::PlacementScorer> inner_;
};

/// The builtin scorer names, each registered once more as "counted-<name>".
const std::vector<std::string>& counted_scorers() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const std::string& name : cl::PlacementRegistry::instance().names()) {
      if (name.rfind("counted-", 0) == 0) continue;
      const std::string counted = "counted-" + name;
      const auto inner = cl::make_placement_scorer(name);
      cl::PlacementRegistry::instance().add(
          counted, "test: counts scans of " + name,
          [inner] { return std::make_shared<const CountedScorer>(inner); });
      out.push_back(counted);
    }
    return out;
  }();
  return names;
}

/// The policy's smallest launch fraction, computed as the manager does.
double min_launch_fraction(const core::DeflationPolicy& policy,
                           const hv::VmSpec& spec) {
  const res::ResourceVector floor = hv::allocation_floor(spec);
  const res::ResourceVector full = spec.vector();
  double fraction = 0.0;
  for (const res::Resource r : res::all_resources) {
    if (full[r] <= 0.0) continue;
    core::VmShare share;
    share.id = spec.id;
    share.max_alloc = full[r];
    share.min_alloc = floor[r];
    share.priority = spec.priority;
    share.current = full[r];
    fraction = std::max(fraction, policy.min_retained(share) / full[r]);
  }
  return std::min(1.0, fraction);
}

struct LadderOutcome {
  std::optional<std::size_t> server;
  double fraction = 1.0;
  bool ladder = false;  ///< full size failed and the ladder ran
};

/// The unbounded ladder: full size, then every step down to the minimum,
/// each a free-capacity scan and then a with-deflation scan.
LadderOutcome oracle_ladder(const cl::ClusterManager& manager,
                            const cl::ClusterConfig& config,
                            const core::DeflationPolicy& policy,
                            const hv::VmSpec& spec) {
  const std::size_t pool =
      config.partitioned
          ? cl::pool_for_priority(spec.deflatable, spec.priority,
                                  manager.partitions().pool_count())
          : 0;
  const std::vector<std::size_t>& candidates = manager.partitions().pool(pool);
  const cl::HostScanTable& table = manager.scan_table();
  const cl::PlacementScorer& scorer = manager.placement_scorer();
  auto try_fraction = [&](double fraction) -> std::optional<std::size_t> {
    const res::ResourceVector demand = spec.vector() * fraction;
    if (const auto s = cl::scan_pick_host(scorer, demand, table, candidates,
                                          cl::ScanFeasibility::FreeCapacity,
                                          false)) {
      return s;
    }
    return cl::scan_pick_host(scorer, demand, table, candidates,
                              cl::ScanFeasibility::WithDeflation, true);
  };
  LadderOutcome out;
  out.server = try_fraction(1.0);
  if (out.server || !spec.deflatable) return out;
  out.ladder = true;
  const double min_fraction = min_launch_fraction(policy, spec);
  for (double fraction = 1.0 - config.deflated_launch_step;
       fraction >= min_fraction - 1e-9;
       fraction -= config.deflated_launch_step) {
    const double f = std::max(fraction, min_fraction);
    out.server = try_fraction(f);
    if (out.server) {
      out.fraction = f;
      return out;
    }
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// after - before, field by field.
cl::ClusterStats delta(const cl::ClusterStats& after,
                       const cl::ClusterStats& before) {
  cl::ClusterStats d;
  d.placements = after.placements - before.placements;
  d.reclamation_attempts =
      after.reclamation_attempts - before.reclamation_attempts;
  d.reclamation_failures =
      after.reclamation_failures - before.reclamation_failures;
  d.deflated_launches = after.deflated_launches - before.deflated_launches;
  d.preemptions = after.preemptions - before.preemptions;
  d.rejections = after.rejections - before.rejections;
  d.revocations = after.revocations - before.revocations;
  d.restorations = after.restorations - before.restorations;
  d.revocation_migrations =
      after.revocation_migrations - before.revocation_migrations;
  d.revocation_kills = after.revocation_kills - before.revocation_kills;
  d.admission_deferrals =
      after.admission_deferrals - before.admission_deferrals;
  d.admission_expired = after.admission_expired - before.admission_expired;
  return d;
}

void expect_stats_eq(const cl::ClusterStats& got, const cl::ClusterStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.placements, want.placements) << where;
  EXPECT_EQ(got.reclamation_attempts, want.reclamation_attempts) << where;
  EXPECT_EQ(got.reclamation_failures, want.reclamation_failures) << where;
  EXPECT_EQ(got.deflated_launches, want.deflated_launches) << where;
  EXPECT_EQ(got.preemptions, want.preemptions) << where;
  EXPECT_EQ(got.rejections, want.rejections) << where;
  EXPECT_EQ(got.revocations, want.revocations) << where;
  EXPECT_EQ(got.restorations, want.restorations) << where;
  EXPECT_EQ(got.revocation_migrations, want.revocation_migrations) << where;
  EXPECT_EQ(got.revocation_kills, want.revocation_kills) << where;
  EXPECT_EQ(got.admission_deferrals, want.admission_deferrals) << where;
  EXPECT_EQ(got.admission_expired, want.admission_expired) << where;
}

/// Minimum fractions on the 0.05 grid and off it.
constexpr double kMinFractions[] = {0.0, 0.3, 0.37, 0.5, 0.93, 0.975};

hv::VmSpec random_spec(deflate::util::Rng& rng, std::uint64_t id) {
  hv::VmSpec spec;
  spec.id = id;
  spec.vcpus = 1 << static_cast<int>(rng.uniform_int(0, 3));
  spec.memory_mib = 1024.0 * static_cast<double>(rng.uniform_int(1, 16));
  spec.disk_bw_mbps = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 200.0);
  spec.net_bw_mbps = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 2000.0);
  spec.deflatable = rng.bernoulli(0.6);
  spec.priority = spec.deflatable ? rng.uniform(0.05, 0.95) : 1.0;
  spec.min_fraction =
      spec.deflatable ? kMinFractions[rng.uniform_int(0, 5)] : 0.0;
  return spec;
}

struct RunTally {
  std::uint64_t checked = 0;     ///< placements compared with the oracle
  std::uint64_t ladder_rejects = 0;
  std::uint64_t certified = 0;   ///< rejections place_vm made without a scan
  std::uint64_t deflated = 0;    ///< deflated launches
  std::uint64_t admit_failures = 0;  ///< scans found a host, make_room_for failed
};

class OracleRun {
 public:
  OracleRun(cl::ClusterConfig config, std::uint64_t seed)
      : config_(std::move(config)),
        manager_(config_),
        policy_(core::make_policy(config_.policy)),
        rng_(seed) {}

  /// Places `spec` and checks it against the oracle ladder.
  void place(const hv::VmSpec& spec, RunTally& tally) {
    manager_.flush_views();  // the oracle reads the table place_vm will
    const LadderOutcome want =
        oracle_ladder(manager_, config_, *policy_, spec);
    // Whether admitting on the oracle's host needs reclamation first.
    const bool needed =
        want.server &&
        !(spec.vector() * want.fraction -
          manager_.scan_table().available_of(*want.server))
             .clamped_nonneg()
             .is_zero();
    const cl::ClusterStats before = manager_.stats();
    const std::uint64_t scans_before = g_scans;
    const cl::PlacementResult got = manager_.place_vm(spec);
    const std::uint64_t scans = g_scans - scans_before;
    const cl::ClusterStats got_delta = delta(manager_.stats(), before);
    const std::string where = "vm " + std::to_string(spec.id) + " op " +
                              std::to_string(op_) + " (" + config_.placement +
                              ")";
    ++tally.checked;

    cl::ClusterStats want_delta;
    if (!want.server) {
      ++tally.ladder_rejects;
      if (scans == 0) ++tally.certified;
      EXPECT_EQ(got.status, cl::PlacementResult::Status::Rejected) << where;
      EXPECT_TRUE(got.needed_reclamation) << where;
      want_delta.reclamation_attempts = 1;
      want_delta.reclamation_failures = 1;
      want_delta.rejections = 1;
      expect_stats_eq(got_delta, want_delta, where);
      return;
    }
    // The scans found a server; admission there can still fail when the
    // local controller cannot make room (counted, but not a rejection).
    const double f = want.fraction;
    EXPECT_EQ(got.needed_reclamation, needed) << where;
    want_delta.reclamation_attempts = (want.ladder ? 1 : 0) + (needed ? 1 : 0);
    if (got.ok()) {
      EXPECT_EQ(got.status, f < 1.0 ? cl::PlacementResult::Status::PlacedDeflated
                                    : cl::PlacementResult::Status::Placed)
          << where;
      EXPECT_EQ(got.host_id, *want.server) << where;
      EXPECT_EQ(bits(got.launch_fraction), bits(f)) << where;
      want_delta.placements = 1;
      want_delta.deflated_launches = f < 1.0 ? 1 : 0;
      if (f < 1.0) ++tally.deflated;
      live_.push_back(spec.id);
    } else {
      EXPECT_TRUE(needed) << where;
      ++tally.admit_failures;
      want_delta.reclamation_failures = 1;
    }
    expect_stats_eq(got_delta, want_delta, where);
  }

  /// One random operation: mostly placements (in bursts, so several land
  /// on an unchanged table), and every mutation the manager offers.
  void step(RunTally& tally) {
    ++op_;
    const double pick = rng_.u01();
    if (pick < 0.55) {
      const auto burst = rng_.uniform_int(1, 4);
      for (std::int64_t i = 0; i < burst; ++i) {
        place(random_spec(rng_, next_id_++), tally);
      }
    } else if (pick < 0.72) {
      if (live_.empty()) return;
      const auto k = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(live_.size()) - 1));
      manager_.remove_vm(live_[k]);
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (pick < 0.78) {
      // The revocation path's re-placements, one by one under the oracle.
      const auto residents = manager_.take_server_offline(random_server());
      if (!residents) return;
      for (const hv::VmSpec& spec : *residents) {
        std::erase(live_, spec.id);
        place(spec, tally);
      }
    } else if (pick < 0.82) {
      manager_.revoke_server(random_server());
      prune_live();
    } else if (pick < 0.90) {
      manager_.restore_server(random_server());
    } else if (pick < 0.96) {
      manager_.drain_server(random_server());
    } else {
      const std::vector<std::string>& names = counted_scorers();
      config_.placement = names[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(names.size()) - 1))];
      manager_.rebind_placement(config_.placement);
    }
  }

 private:
  std::size_t random_server() {
    return static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(manager_.server_count()) - 1));
  }
  /// Drops the VMs a revocation killed.
  void prune_live() {
    std::erase_if(live_, [&](std::uint64_t id) {
      return !manager_.server_of(id).has_value();
    });
  }

  cl::ClusterConfig config_;
  cl::ClusterManager manager_;
  std::unique_ptr<core::DeflationPolicy> policy_;
  deflate::util::Rng rng_;
  std::vector<std::uint64_t> live_;
  std::uint64_t next_id_ = 1;
  std::size_t op_ = 0;
};

}  // namespace

TEST(CertifiedReject, PlaceVmMatchesUnboundedLadder) {
  RunTally tally;
  const core::PolicyKind policies[] = {core::PolicyKind::Proportional,
                                       core::PolicyKind::Priority,
                                       core::PolicyKind::Deterministic};
  std::uint64_t seed = 1;
  for (const core::PolicyKind policy : policies) {
    for (const bool partitioned : {false, true}) {
      for (const std::string& scorer : counted_scorers()) {
        for (int rep = 0; rep < 3; ++rep, ++seed) {
          deflate::util::Rng sizing(seed * 7919);
          cl::ClusterConfig config;
          config.server_count =
              static_cast<std::size_t>(sizing.uniform_int(5, 10));
          config.server_capacity = {16.0, 32768.0, 1000.0, 10000.0};
          config.policy = policy;
          config.partitioned = partitioned;
          config.placement = scorer;
          // Hotplug and balloon rounding make some admissions fail after
          // the scans found a host.
          config.mechanism = static_cast<deflate::mech::MechanismKind>(
              sizing.uniform_int(0, 3));
          OracleRun run(config, seed);
          for (int op = 0; op < 300; ++op) run.step(tally);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  // The streams must reach every branch: deflated launches, failed
  // admissions, full-ladder rejections, and rejections the memo certified
  // without a scan.
  EXPECT_GT(tally.checked, 10000u);
  EXPECT_GT(tally.deflated, 200u);
  EXPECT_GT(tally.admit_failures, 100u);
  EXPECT_GT(tally.ladder_rejects, 2000u);
  EXPECT_GT(tally.certified, 500u);
  EXPECT_LT(tally.certified, tally.ladder_rejects);
}

namespace {

/// A plugin stricter than select_loop: every scan finds no server.
class RefuseAll final : public cl::PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  [[nodiscard]] double score(const res::ResourceVector&, const cl::HostView&,
                             bool) const override {
    return 0.0;
  }
  [[nodiscard]] cl::ScanWinner scan(const cl::ScanRequest&) const override {
    ++g_scans;
    return {};
  }
};

}  // namespace

// A reject is certified by the scorer that scanned it as well as by the
// table: after rebind_placement, a demand the old scorer rejected must be
// scanned again, and a looser scorer must be free to place it.
TEST(CertifiedReject, RebindDropsTheMemo) {
  counted_scorers();  // registers "counted-fitness" before the plugin below
  cl::PlacementRegistry::instance().add(
      "test-refuse-all", "test: finds no server",
      [] { return std::make_shared<const RefuseAll>(); });
  cl::ClusterConfig config;
  config.server_count = 2;
  config.server_capacity = {16.0, 32768.0, 1000.0, 10000.0};
  config.placement = "test-refuse-all";
  cl::ClusterManager manager(config);
  hv::VmSpec spec;
  spec.vcpus = 2;
  spec.memory_mib = 4096.0;
  spec.deflatable = true;
  spec.min_fraction = 0.5;

  auto place = [&](std::uint64_t id, std::uint64_t& scans) {
    spec.id = id;
    const std::uint64_t before = g_scans;
    const cl::PlacementResult result = manager.place_vm(spec);
    scans = g_scans - before;
    return result;
  };
  std::uint64_t scans = 0;
  EXPECT_FALSE(place(1, scans).ok());
  EXPECT_GT(scans, 0u);
  EXPECT_FALSE(place(2, scans).ok());
  EXPECT_EQ(scans, 0u) << "the second reject is certified";

  manager.rebind_placement("test-refuse-all");
  EXPECT_FALSE(place(3, scans).ok());
  EXPECT_GT(scans, 0u) << "a rebind, even to the same name, drops the memo";

  manager.rebind_placement("counted-fitness");
  const cl::PlacementResult placed = place(4, scans);
  EXPECT_GT(scans, 0u);
  EXPECT_EQ(placed.status, cl::PlacementResult::Status::Placed);
}
