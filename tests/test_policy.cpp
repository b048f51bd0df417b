#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace core = deflate::core;

namespace {

core::VmShare share(std::uint64_t id, double max, double current, double pi = 0.5,
                    double min = 0.0) {
  core::VmShare s;
  s.id = id;
  s.max_alloc = max;
  s.min_alloc = min;
  s.priority = pi;
  s.current = current;
  return s;
}

double total_reclaimed(const std::vector<core::VmShare>& vms,
                       const core::PolicyResult& result) {
  double sum = 0.0;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sum += vms[i].current - result.targets[i];
  }
  return sum;
}

}  // namespace

// --- Eq. 1: x_i = M_i - alpha1*M_i with alpha1 = 1 - R/sum(M) -----------------

TEST(Proportional, MatchesEquationOneClosedForm) {
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0), share(2, 4.0, 4.0),
                                       share(3, 2.0, 2.0)};
  const double r = 3.5;
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim(vms, r);
  ASSERT_TRUE(result.success);
  const double alpha1 = 1.0 - r / 14.0;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const double xi = vms[i].max_alloc - alpha1 * vms[i].max_alloc;
    EXPECT_NEAR(vms[i].current - result.targets[i], xi, 1e-6);
  }
  EXPECT_NEAR(result.reclaimed, r, 1e-6);
}

TEST(Proportional, DeflatesProportionallyToSize) {
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0), share(2, 2.0, 2.0)};
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim(vms, 2.0);
  ASSERT_TRUE(result.success);
  // The big VM gives 4x what the small one gives.
  const double big = vms[0].current - result.targets[0];
  const double small = vms[1].current - result.targets[1];
  EXPECT_NEAR(big / small, 4.0, 1e-6);
}

// --- Eq. 2: minimum allocations ----------------------------------------------

TEST(Proportional, RespectsMinimumAllocations) {
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0, 0.5, 2.0),
                                       share(2, 4.0, 4.0, 0.5, 1.0)};
  core::ProportionalPolicy policy;
  // Max reclaimable = 6 + 3 = 9: exactly feasible succeeds at the floors...
  const auto exact = policy.reclaim(vms, 9.0);
  EXPECT_TRUE(exact.success);
  EXPECT_NEAR(exact.targets[0], 2.0, 1e-6);
  EXPECT_NEAR(exact.targets[1], 1.0, 1e-6);
  // ...and anything beyond fails, still reporting the floor targets.
  const auto result = policy.reclaim(vms, 10.0);
  EXPECT_FALSE(result.success);
  EXPECT_NEAR(result.targets[0], 2.0, 1e-9);
  EXPECT_NEAR(result.targets[1], 1.0, 1e-9);
  EXPECT_NEAR(result.reclaimed, 9.0, 1e-6);
}

TEST(Proportional, EquationTwoInteriorSolution) {
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0, 0.5, 2.0),
                                       share(2, 4.0, 4.0, 0.5, 2.0)};
  const double r = 4.0;
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim(vms, r);
  ASSERT_TRUE(result.success);
  // Eq. 2: x_i = (M_i - m_i)(1 - alpha2), alpha2 from sum(x) = R.
  const double one_minus_alpha2 = r / ((8.0 - 2.0) + (4.0 - 2.0));
  EXPECT_NEAR(vms[0].current - result.targets[0], 6.0 * one_minus_alpha2, 1e-6);
  EXPECT_NEAR(vms[1].current - result.targets[1], 2.0 * one_minus_alpha2, 1e-6);
}

TEST(Proportional, NeverInflatesDuringReclaim) {
  // VM 2 is already deflated below its proportional share; it must not be
  // *grown* while reclaiming from the others.
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0), share(2, 8.0, 1.0)};
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim(vms, 2.0);
  ASSERT_TRUE(result.success);
  EXPECT_LE(result.targets[1], 1.0 + 1e-9);
  EXPECT_NEAR(total_reclaimed(vms, result), 2.0, 1e-6);
}

// --- Eq. 3 / Eq. 4: priority weighting ----------------------------------------

TEST(Priority, MatchesEquationThreeClosedForm) {
  // Priorities chosen so Eq. 3's closed form stays interior
  // (alpha3 * pi_i * M_i <= M_i for all i).
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0, 0.6),
                                       share(2, 8.0, 8.0, 0.4)};
  const double r = 4.0;
  core::PriorityWeightedPolicy policy(/*priority_minimums=*/false);
  const auto result = policy.reclaim(vms, r);
  ASSERT_TRUE(result.success);
  // Eq. 3: x_i = M_i - alpha3*pi_i*M_i, alpha3 = (sum(M) - R)/sum(pi*M).
  const double alpha3 = (16.0 - r) / (0.6 * 8.0 + 0.4 * 8.0);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const double xi = vms[i].max_alloc - alpha3 * vms[i].priority * vms[i].max_alloc;
    EXPECT_NEAR(vms[i].current - result.targets[i], xi, 1e-6);
  }
}

TEST(Priority, ClampsClosedFormOutsideInterior) {
  // With a large priority spread Eq. 3's raw closed form would *inflate*
  // the high-priority VM (alpha3*pi*M > M); the solver clamps it at M and
  // redistributes the difference onto the low-priority VM.
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0, 0.8),
                                       share(2, 8.0, 8.0, 0.2)};
  core::PriorityWeightedPolicy policy(false);
  const auto result = policy.reclaim(vms, 4.0);
  ASSERT_TRUE(result.success);
  EXPECT_NEAR(result.targets[0], 8.0, 1e-6);  // clamped, untouched
  EXPECT_NEAR(result.targets[1], 4.0, 1e-6);  // carries the full reclaim
}

TEST(Priority, LowerPriorityDeflatesMore) {
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0, 0.8),
                                       share(2, 8.0, 8.0, 0.2)};
  core::PriorityWeightedPolicy policy(false);
  const auto result = policy.reclaim(vms, 4.0);
  const double high = vms[0].current - result.targets[0];
  const double low = vms[1].current - result.targets[1];
  EXPECT_GT(low, high);
}

TEST(Priority, MinimumsFollowPriority) {
  // Eq. 4: m_i = pi_i * M_i; reclaiming more than sum(M_i - pi_i M_i) fails.
  const std::vector<core::VmShare> vms{share(1, 10.0, 10.0, 0.6),
                                       share(2, 10.0, 10.0, 0.4)};
  core::PriorityWeightedPolicy policy(/*priority_minimums=*/true);
  EXPECT_NEAR(policy.min_retained(vms[0]), 6.0, 1e-12);
  EXPECT_NEAR(policy.min_retained(vms[1]), 4.0, 1e-12);
  const auto ok = policy.reclaim(vms, 9.0);
  EXPECT_TRUE(ok.success);
  const auto fail = policy.reclaim(vms, 11.0);
  EXPECT_FALSE(fail.success);
  EXPECT_NEAR(fail.targets[0], 6.0, 1e-9);
  EXPECT_NEAR(fail.targets[1], 4.0, 1e-9);
}

TEST(Priority, ReclaimableMatchesMinRetained) {
  const std::vector<core::VmShare> vms{share(1, 10.0, 10.0, 0.6),
                                       share(2, 10.0, 7.0, 0.4)};
  core::PriorityWeightedPolicy policy(true);
  EXPECT_NEAR(policy.reclaimable(vms), (10.0 - 6.0) + (7.0 - 4.0), 1e-12);
}

// --- Deterministic (§5.1.3) ---------------------------------------------------

TEST(Deterministic, BinaryDeflationInPriorityOrder) {
  const std::vector<core::VmShare> vms{share(1, 10.0, 10.0, 0.8),
                                       share(2, 10.0, 10.0, 0.2),
                                       share(3, 10.0, 10.0, 0.5)};
  core::DeterministicPolicy policy;
  // Need 8: deflating VM 2 (lowest pi) alone frees exactly 8.
  const auto result = policy.reclaim(vms, 8.0);
  ASSERT_TRUE(result.success);
  EXPECT_NEAR(result.targets[1], 2.0, 1e-9);   // deflated to pi*M
  EXPECT_NEAR(result.targets[0], 10.0, 1e-9);  // untouched
  EXPECT_NEAR(result.targets[2], 10.0, 1e-9);  // untouched
}

TEST(Deterministic, CascadesToNextPriority) {
  const std::vector<core::VmShare> vms{share(1, 10.0, 10.0, 0.8),
                                       share(2, 10.0, 10.0, 0.2),
                                       share(3, 10.0, 10.0, 0.5)};
  core::DeterministicPolicy policy;
  const auto result = policy.reclaim(vms, 10.0);  // needs VM2 (8) + VM3 (5)
  ASSERT_TRUE(result.success);
  EXPECT_NEAR(result.targets[1], 2.0, 1e-9);
  EXPECT_NEAR(result.targets[2], 5.0, 1e-9);
  EXPECT_NEAR(result.targets[0], 10.0, 1e-9);
  EXPECT_GE(result.reclaimed, 10.0 - 1e-9);  // binary steps can overshoot
}

TEST(Deterministic, FailsWhenAllDeflated) {
  const std::vector<core::VmShare> vms{share(1, 10.0, 10.0, 0.9),
                                       share(2, 10.0, 10.0, 0.9)};
  core::DeterministicPolicy policy;
  const auto result = policy.reclaim(vms, 5.0);  // only 2.0 reclaimable
  EXPECT_FALSE(result.success);
  EXPECT_NEAR(result.reclaimed, 2.0, 1e-9);
}

TEST(Deterministic, ReinflatesHighestPriorityFirst) {
  std::vector<core::VmShare> vms{share(1, 10.0, 8.0, 0.8),
                                 share(2, 10.0, 2.0, 0.2)};
  core::DeterministicPolicy policy;
  const auto result = policy.reclaim(vms, -2.0);
  ASSERT_TRUE(result.success);
  EXPECT_NEAR(result.targets[0], 10.0, 1e-9);  // high priority restored first
  EXPECT_NEAR(result.targets[1], 2.0, 1e-9);
}

// --- Reinflation (§5.1.3: run the policy backwards with R = -R_free) ----------

TEST(Reinflation, ProportionalGivesBackUpToMax) {
  std::vector<core::VmShare> vms{share(1, 8.0, 4.0), share(2, 4.0, 2.0)};
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim(vms, -100.0);  // plenty free
  EXPECT_TRUE(result.success);
  EXPECT_NEAR(result.targets[0], 8.0, 1e-9);
  EXPECT_NEAR(result.targets[1], 4.0, 1e-9);
}

TEST(Reinflation, PartialGiveBackConservesTotal) {
  std::vector<core::VmShare> vms{share(1, 8.0, 4.0), share(2, 4.0, 2.0)};
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim(vms, -3.0);
  EXPECT_TRUE(result.success);
  EXPECT_NEAR(total_reclaimed(vms, result), -3.0, 1e-6);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    EXPECT_GE(result.targets[i], vms[i].current - 1e-9);  // never shrinks
    EXPECT_LE(result.targets[i], vms[i].max_alloc + 1e-9);
  }
}

// --- misc ----------------------------------------------------------------------

TEST(Policy, EmptyVmListFailsToReclaim) {
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim({}, 1.0);
  EXPECT_FALSE(result.success);
  EXPECT_DOUBLE_EQ(result.reclaimed, 0.0);
}

TEST(Policy, ZeroReclaimSucceedsTrivially) {
  const std::vector<core::VmShare> vms{share(1, 8.0, 8.0)};
  core::ProportionalPolicy policy;
  const auto result = policy.reclaim(vms, 0.0);
  EXPECT_TRUE(result.success);
  EXPECT_NEAR(result.targets[0], 8.0, 1e-9);
}

TEST(PolicyFactory, CreatesAllKinds) {
  using core::PolicyKind;
  for (const auto kind :
       {PolicyKind::Proportional, PolicyKind::Priority, PolicyKind::PriorityNoMin,
        PolicyKind::Deterministic}) {
    const auto policy = core::make_policy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_FALSE(policy->name().empty());
    EXPECT_STRNE(core::policy_kind_name(kind), "?");
  }
}

// --- property sweep across random instances and all policies -------------------

struct PolicyCase {
  core::PolicyKind kind;
  std::uint64_t seed;
};

class PolicyProperty : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(PolicyProperty, InvariantsOnRandomInstances) {
  const auto [kind, seed] = GetParam();
  const auto policy = core::make_policy(kind);
  deflate::util::Rng rng(seed);

  for (int iteration = 0; iteration < 50; ++iteration) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<core::VmShare> vms;
    for (int i = 0; i < n; ++i) {
      const double max = rng.uniform(1.0, 32.0);
      const double min = rng.uniform(0.0, 0.2) * max;
      const double current = rng.uniform(min, max);
      vms.push_back(share(static_cast<std::uint64_t>(i), max, current,
                          rng.uniform(0.1, 0.9), min));
    }
    double max_reclaimable = policy->reclaimable(vms);
    const double r = rng.uniform(-10.0, max_reclaimable * 1.2 + 1.0);
    const auto result = policy->reclaim(vms, r);

    ASSERT_EQ(result.targets.size(), vms.size());
    for (std::size_t i = 0; i < vms.size(); ++i) {
      // Bounds: floors and caps always respected.
      ASSERT_LE(result.targets[i], vms[i].max_alloc + 1e-6);
      ASSERT_GE(result.targets[i], -1e-9);
      if (r >= 0.0) {
        // Deflation never grows anyone.
        ASSERT_LE(result.targets[i], vms[i].current + 1e-6);
        ASSERT_GE(result.targets[i],
                  std::min(vms[i].current, policy->min_retained(vms[i])) - 1e-6);
      } else {
        // Reinflation never shrinks anyone.
        ASSERT_GE(result.targets[i], vms[i].current - 1e-6);
      }
    }
    // Conservation: reported == actual.
    ASSERT_NEAR(result.reclaimed, total_reclaimed(vms, result), 1e-6);
    if (r >= 0.0) {
      // Success iff the request was feasible (within tolerance).
      const bool feasible = r <= max_reclaimable + 1e-6;
      ASSERT_EQ(result.success, feasible || r <= 1e-9)
          << "r=" << r << " max=" << max_reclaimable;
      if (result.success) {
        ASSERT_GE(result.reclaimed, r - 1e-5);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyProperty,
    ::testing::Values(PolicyCase{core::PolicyKind::Proportional, 1},
                      PolicyCase{core::PolicyKind::Proportional, 2},
                      PolicyCase{core::PolicyKind::Priority, 3},
                      PolicyCase{core::PolicyKind::Priority, 4},
                      PolicyCase{core::PolicyKind::PriorityNoMin, 5},
                      PolicyCase{core::PolicyKind::PriorityNoMin, 6},
                      PolicyCase{core::PolicyKind::Deterministic, 7},
                      PolicyCase{core::PolicyKind::Deterministic, 8}));

// --- early-exit bisection vs the fixed 96-step solver --------------------------

namespace {

/// The proportional-family solver as it was before the bisection learned to
/// stop early: always exactly 96 halvings. The oracle for bit-equality.
core::PolicyResult fixed_step_solve(const std::vector<core::VmShare>& vms,
                                    const std::vector<double>& weights,
                                    const std::vector<double>& minimums,
                                    double amount) {
  constexpr double kEps = 1e-9;
  const std::size_t n = vms.size();
  core::PolicyResult result;
  result.targets.resize(n);
  std::vector<double> lo(n), hi(n);
  double current_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double floor_i = std::min(minimums[i], vms[i].max_alloc);
    if (amount >= 0.0) {
      lo[i] = std::min(vms[i].current, floor_i);
      hi[i] = vms[i].current;
    } else {
      lo[i] = vms[i].current;
      hi[i] = std::max(vms[i].current, vms[i].max_alloc);
    }
    current_total += vms[i].current;
  }
  const double lo_total = std::accumulate(lo.begin(), lo.end(), 0.0);
  const double hi_total = std::accumulate(hi.begin(), hi.end(), 0.0);
  double goal = current_total - amount;
  const bool feasible = goal >= lo_total - kEps;
  goal = std::clamp(goal, lo_total, hi_total);
  const double weight_total = std::accumulate(weights.begin(), weights.end(), 0.0);
  auto eval = [&](double beta) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += std::clamp(minimums[i] + beta * weights[i], lo[i], hi[i]);
    }
    return total;
  };
  double beta = 0.0;
  if (weight_total > kEps) {
    double beta_hi = 1.0;
    while (eval(beta_hi) < goal - kEps && beta_hi < 1e12) beta_hi *= 2.0;
    double beta_lo = 0.0;
    for (int iter = 0; iter < 96; ++iter) {
      beta = 0.5 * (beta_lo + beta_hi);
      if (eval(beta) < goal) {
        beta_lo = beta;
      } else {
        beta_hi = beta;
      }
    }
    beta = beta_hi;
  }
  double reclaimed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = weight_total > kEps
                         ? std::clamp(minimums[i] + beta * weights[i], lo[i], hi[i])
                         : lo[i];
    result.targets[i] = t;
    reclaimed += vms[i].current - t;
  }
  result.reclaimed = reclaimed;
  result.success = amount <= 0.0 || (feasible && reclaimed >= amount - 1e-6);
  return result;
}

/// ProportionalPolicy / PriorityWeightedPolicy inputs to the solver.
core::PolicyResult oracle_reclaim(core::PolicyKind kind,
                                  const std::vector<core::VmShare>& vms,
                                  double amount) {
  std::vector<double> weights(vms.size()), minimums(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    if (kind == core::PolicyKind::Proportional) {
      minimums[i] = vms[i].min_alloc;
      weights[i] = std::max(0.0, vms[i].max_alloc - vms[i].min_alloc);
      continue;
    }
    const double pi = std::clamp(vms[i].priority, 0.0, 1.0);
    minimums[i] = kind == core::PolicyKind::Priority
                      ? std::max(vms[i].min_alloc, pi * vms[i].max_alloc)
                      : vms[i].min_alloc;
    weights[i] = pi * std::max(0.0, vms[i].max_alloc - minimums[i]);
  }
  return fixed_step_solve(vms, weights, minimums, amount);
}

}  // namespace

TEST(PolicyOracle, EarlyExitBisectionIsBitEqualToFixedSteps) {
  using core::PolicyKind;
  deflate::util::Rng rng(4242);
  for (const PolicyKind kind :
       {PolicyKind::Proportional, PolicyKind::Priority, PolicyKind::PriorityNoMin}) {
    const auto policy = core::make_policy(kind);
    for (int trial = 0; trial < 600; ++trial) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 16));
      const int shape = trial % 6;
      std::vector<core::VmShare> vms;
      for (std::size_t i = 0; i < n; ++i) {
        const double max = rng.uniform(0.5, 64.0);
        double min = rng.uniform(0.0, 0.3) * max;
        double current = rng.uniform(min, max);
        double pi = rng.uniform(0.05, 1.0);
        if (shape == 1) current = min;         // all clamped at the floor
        if (shape == 2) current = max;         // all at M_i
        if (shape == 3) pi = 0.0;              // zero weights (priority)
        if (shape == 4 && i % 2 == 0) min = max;  // zero weights (proportional)
        vms.push_back(share(i, max, std::max(current, std::min(min, max)), pi, min));
      }
      const double reclaimable = policy->reclaimable(vms);
      double amount = 0.0;
      switch (trial % 4) {
        case 0: amount = rng.uniform(0.0, reclaimable); break;         // deflate
        case 1: amount = reclaimable + rng.uniform(0.1, 10.0); break;  // infeasible
        case 2: amount = -rng.uniform(0.0, 40.0); break;               // reinflate
        default: amount = rng.uniform(-5.0, reclaimable * 1.5 + 1.0); break;
      }
      const core::PolicyResult got = policy->reclaim(vms, amount);
      const core::PolicyResult want = oracle_reclaim(kind, vms, amount);
      ASSERT_EQ(got.targets.size(), want.targets.size());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.targets[i]),
                  std::bit_cast<std::uint64_t>(want.targets[i]))
            << policy->name() << " trial=" << trial << " vm=" << i;
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.reclaimed),
                std::bit_cast<std::uint64_t>(want.reclaimed))
          << policy->name() << " trial=" << trial;
      ASSERT_EQ(got.success, want.success) << policy->name() << " trial=" << trial;
    }
  }
}
