#include "cluster/placement.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace res = deflate::res;

namespace {

cl::HostView make_view(std::uint64_t id, res::ResourceVector available,
                       res::ResourceVector deflatable = {},
                       double overcommit = 0.5, bool feasible = true) {
  cl::HostView view;
  view.host_id = id;
  view.capacity = {48.0, 131072.0, 4000.0, 40000.0};
  view.available = available;
  view.deflatable = deflatable;
  view.overcommit_ratio = overcommit;
  view.feasible = feasible;
  return view;
}

}  // namespace

TEST(Placement, AvailabilityIncludesDeflatableHeadroom) {
  const auto view = make_view(0, {8.0, 16384.0, 100.0, 1000.0},
                              {8.0, 8192.0, 0.0, 0.0}, /*overcommit=*/0.5);
  const auto a = cl::availability_vector(view);
  // Overcommit <= 1 divides by 1: plain sum.
  EXPECT_DOUBLE_EQ(a.cpu(), 16.0);
  EXPECT_DOUBLE_EQ(a.memory(), 24576.0);
}

TEST(Placement, OvercommitDiscountsHeadroom) {
  const auto view = make_view(0, {8.0, 0.0, 0.0, 0.0}, {8.0, 0.0, 0.0, 0.0},
                              /*overcommit=*/2.0);
  const auto a = cl::availability_vector(view);
  EXPECT_DOUBLE_EQ(a.cpu(), 8.0 + 8.0 / 2.0);
}

TEST(Placement, FitnessPrefersMatchingShape) {
  const res::ResourceVector cpu_heavy_demand(16.0, 8192.0, 0.0, 0.0);
  const auto cpu_rich = make_view(0, {32.0, 16384.0, 0.0, 0.0});
  const auto mem_rich = make_view(1, {4.0, 120000.0, 0.0, 0.0});
  EXPECT_GT(cl::fitness(cpu_heavy_demand, cpu_rich),
            cl::fitness(cpu_heavy_demand, mem_rich));
}

TEST(Placement, PicksHighestFitnessFeasibleHost) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {4.0, 100000.0, 0.0, 0.0}),   // memory-skewed
      make_view(1, {16.0, 8000.0, 0.0, 0.0}),    // cpu-skewed
      make_view(2, {8.0, 16384.0, 0.0, 0.0}),    // exact shape match
  };
  const auto best = cl::pick_best_host(demand, hosts);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2U);
}

TEST(Placement, SkipsInfeasibleHosts) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {8.0, 16384.0, 0.0, 0.0}, {}, 0.5, /*feasible=*/false),
      make_view(1, {2.0, 80000.0, 0.0, 0.0}, {}, 0.5, /*feasible=*/true),
  };
  const auto best = cl::pick_best_host(demand, hosts);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1U);
}

TEST(Placement, NoFeasibleHostReturnsNullopt) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {48.0, 131072.0, 0.0, 0.0}, {}, 0.0, /*feasible=*/false)};
  EXPECT_FALSE(cl::pick_best_host(demand, hosts).has_value());
  EXPECT_FALSE(cl::pick_best_host(demand, {}).has_value());
}

TEST(Placement, ZeroAvailabilityGuarded) {
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  const auto empty = make_view(0, {}, {}, 3.0);
  // Fitness must be finite (the paper's epsilon guard).
  const double f = cl::fitness(demand, empty);
  EXPECT_TRUE(std::isfinite(f));
}

TEST(Placement, LoadBalancingAcrossEqualHosts) {
  // §5.2: among equally-shaped hosts, the one with more headroom (less
  // overcommitted) should win via the deflatable/overcommit term.
  const res::ResourceVector demand(8.0, 16384.0, 0.0, 0.0);
  std::vector<cl::HostView> hosts{
      make_view(0, {8.0, 16384.0, 0.0, 0.0}, {4.0, 8192.0, 0.0, 0.0}, 2.0),
      make_view(1, {8.0, 16384.0, 0.0, 0.0}, {4.0, 8192.0, 0.0, 0.0}, 1.0),
  };
  // Same available and deflatable, but host 1 is less overcommitted, so its
  // availability vector is larger in the demand direction... cosine cannot
  // distinguish pure scale, so verify the vectors themselves.
  const auto a0 = cl::availability_vector(hosts[0]);
  const auto a1 = cl::availability_vector(hosts[1]);
  EXPECT_GT(a1.cpu(), a0.cpu());
  EXPECT_GT(a1.memory(), a0.memory());
}

// --- column kernels vs a naive per-host reference ---------------------------

namespace {

/// Plugin scorer: reaches the scan only through its per-host score().
/// Coarse buckets make exact score ties common.
class BucketedSlackScorer final : public cl::PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::LowerBetter;
  }
  [[nodiscard]] double score(const res::ResourceVector& demand,
                             const cl::HostView& host,
                             bool under_pressure) const override {
    const double slack = host.available.cpu() - demand.cpu();
    return std::floor(slack / 8.0) +
           (under_pressure ? std::floor(host.overcommit_ratio) : 0.0);
  }
};

/// The scan's contract spelled out the slow way: filter the candidates,
/// score each through view_of and the per-host score, pick by (score in
/// the scorer's order, then lowest server id).
std::optional<std::size_t> naive_pick(const cl::PlacementScorer& scorer,
                                      const res::ResourceVector& demand,
                                      const cl::HostScanTable& table,
                                      std::span<const std::size_t> candidates,
                                      cl::ScanFeasibility feasibility,
                                      bool under_pressure) {
  using Order = cl::PlacementScorer::Order;
  const Order order = scorer.order();
  std::optional<std::size_t> best;
  double best_score = 0.0;
  for (const std::size_t server : candidates) {
    if (table.eligible_column()[server] == 0) continue;
    const cl::HostView view = table.view_of(server);
    const bool feasible =
        feasibility == cl::ScanFeasibility::FreeCapacity
            ? demand.all_leq(view.available, 1e-9)
            : (demand - view.available)
                  .clamped_nonneg()
                  .all_leq(view.deflatable, 1e-9);
    if (!feasible) continue;
    const double score = order == Order::ById
                             ? 0.0
                             : scorer.score(demand, view, under_pressure);
    bool better = !best.has_value();
    if (best && score != best_score) {
      better = order == Order::LowerBetter ? score < best_score
                                           : score > best_score;
    } else if (best) {
      better = server < *best;
    }
    if (better) {
      best = server;
      best_score = score;
    }
  }
  return best;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Randomized table with coarse values (so scores tie exactly), duplicated
/// rows, zero-availability rows, overcommit on both sides of 1 and
/// inactive or draining servers.
cl::HostScanTable random_table(deflate::util::Rng& rng, std::size_t servers) {
  const res::ResourceVector capacity{48.0, 131072.0, 4000.0, 40000.0};
  cl::HostScanTable table;
  table.resize(servers, capacity);
  for (std::size_t i = 0; i < servers; ++i) {
    const double kind = rng.u01();
    if (kind < 0.15 && i > 0) {
      const auto twin = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      const cl::HostView view = table.view_of(twin);
      table.set_row(i, view.available, view.deflatable,
                    view.overcommit_ratio);
    } else if (kind < 0.25) {
      table.set_row(i, {}, {}, rng.uniform(0.0, 3.0));
    } else {
      const auto grid = [&](double max, int steps) {
        return max * static_cast<double>(rng.uniform_int(0, steps)) / steps;
      };
      const res::ResourceVector available{grid(48.0, 12), grid(131072.0, 16),
                                          grid(4000.0, 4), grid(40000.0, 4)};
      const res::ResourceVector deflatable{grid(24.0, 6), grid(65536.0, 8),
                                           0.0, 0.0};
      table.set_row(i, available, deflatable,
                    rng.bernoulli(0.5) ? rng.uniform(0.2, 1.0)
                                       : rng.uniform(1.0, 2.5));
    }
    table.set_status(i, !rng.bernoulli(0.1), !rng.bernoulli(0.1));
  }
  return table;
}

}  // namespace

TEST(PlacementScan, DerivedColumnsMatchAvailabilityVector) {
  deflate::util::Rng rng(11);
  const cl::HostScanTable table = random_table(rng, 500);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const res::ResourceVector a = cl::availability_vector(table.view_of(i));
    const cl::ResourceColumns column = table.availability_columns();
    const res::ResourceVector derived{column.cpu[i], column.memory[i],
                                      column.disk_bw[i], column.net_bw[i]};
    for (const res::Resource r : res::all_resources) {
      EXPECT_EQ(bits(derived[r]), bits(a[r]));
    }
    EXPECT_EQ(bits(table.availability_norm_column()[i]), bits(a.norm()));
  }
}

TEST(PlacementScan, EveryScorerMatchesNaiveReference) {
  cl::PlacementRegistry::instance().add(
      "test-bucketed-slack", "test plugin: per-host score only",
      [] { return std::make_shared<const BucketedSlackScorer>(); });
  ASSERT_NE(cl::PlacementRegistry::instance().find("test-bucketed-slack"),
            nullptr);
  deflate::util::Rng rng(2024);
  constexpr std::size_t kServers = 2500;
  std::size_t picks = 0;
  for (int round = 0; round < 6; ++round) {
    const cl::HostScanTable table = random_table(rng, kServers);
    // A shuffled subset: the winner must not depend on candidate order.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < kServers; ++i) {
      if (rng.bernoulli(0.9)) candidates.push_back(i);
    }
    for (std::size_t i = candidates.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(candidates[i - 1], candidates[j]);
    }
    const double cpus = static_cast<double>(rng.uniform_int(0, 5) * 4);
    const std::vector<res::ResourceVector> demands{
        {},
        {cpus, cpus * 2048.0, 0.0, 0.0},
        {cpus, cpus * 4096.0, 100.0, 1000.0},
        {0.0, 0.0, 0.0, 5000.0}};
    for (const std::string& name : cl::PlacementRegistry::instance().names()) {
      const auto scorer = cl::make_placement_scorer(name);
      for (const res::ResourceVector& demand : demands) {
        for (const auto feasibility : {cl::ScanFeasibility::FreeCapacity,
                                       cl::ScanFeasibility::WithDeflation}) {
          for (const bool under_pressure : {false, true}) {
            const auto expected = naive_pick(*scorer, demand, table, candidates,
                                             feasibility, under_pressure);
            const auto scanned =
                cl::scan_pick_host(*scorer, demand, table, candidates,
                                   feasibility, under_pressure);
            EXPECT_EQ(scanned, expected) << name << " round " << round;
            if (expected) ++picks;
          }
        }
      }
    }
  }
  // The sweep must exercise real selections, not only empty results.
  EXPECT_GT(picks, 100u);
}
