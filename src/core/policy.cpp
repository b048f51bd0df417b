#include "core/policy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace deflate::core {

namespace {

constexpr double kEps = 1e-9;

/// Shared solver for the proportional family.
///
/// Finds targets t_i = clamp(m_i + beta * w_i, lo_i, hi_i) such that
/// sum(t_i) = sum(current_i) - amount. Because sum(t(beta)) is monotone
/// non-decreasing and piecewise linear in beta, a bisection converges to
/// machine precision; this also handles the clamping ("some VM hits its
/// floor/cap") cases that make the closed-form alphas of Eqs. 1-4 only
/// valid in the interior.
PolicyResult solve_weighted(std::span<const VmShare> vms,
                            std::span<const double> weights,
                            std::span<const double> minimums, double amount) {
  const std::size_t n = vms.size();
  PolicyResult result;
  result.targets.resize(n);

  std::vector<double> lo(n), hi(n);
  double current_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double floor_i = std::min(minimums[i], vms[i].max_alloc);
    if (amount >= 0.0) {  // deflating: may only shrink, never below floor
      lo[i] = std::min(vms[i].current, floor_i);
      hi[i] = vms[i].current;
    } else {  // reinflating: may only grow, never above M_i
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
    // Bracket: beta=0 gives the floor-most assignment; grow until >= goal.
    double beta_hi = 1.0;
    while (eval(beta_hi) < goal - kEps && beta_hi < 1e12) beta_hi *= 2.0;
    double beta_lo = 0.0;
    // At most 96 halvings; stop early once the bracket cannot shrink, which
    // returns the same beta_hi the full 96 steps would:
    //  * mid == beta_hi: either branch leaves beta_hi unchanged (the
    //    eval < goal branch sets beta_lo = beta_hi), and so does every
    //    later step, whose midpoint is beta_hi again.
    //  * mid == beta_lo > 0: an earlier step set beta_lo only after
    //    eval(beta_lo) < goal, so this step would reassign beta_lo to
    //    itself, and every later step likewise.
    //  * mid == beta_lo == 0 cannot happen: beta_hi starts >= 1 and at
    //    most halves per step, so within 96 steps it stays >= 2^-96 and
    //    its midpoint with 0 is positive.
    for (int iter = 0; iter < 96; ++iter) {
      const double mid = 0.5 * (beta_lo + beta_hi);
      if (mid == beta_lo || mid == beta_hi) break;
      if (eval(mid) < goal) {
        beta_lo = mid;
      } else {
        beta_hi = mid;
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

}  // namespace

double DeflationPolicy::reclaimable(std::span<const VmShare> vms) const {
  double total = 0.0;
  for (const VmShare& vm : vms) {
    total += std::max(0.0, vm.current - min_retained(vm));
  }
  return total;
}

double PriorityWeightedPolicy::min_retained(const VmShare& vm) const {
  const double floor = std::min(vm.min_alloc, vm.max_alloc);
  if (!priority_minimums_) return floor;
  return std::max(floor, std::clamp(vm.priority, 0.0, 1.0) * vm.max_alloc);
}

double DeterministicPolicy::min_retained(const VmShare& vm) const {
  const double floor = std::min(vm.min_alloc, vm.max_alloc);
  return std::max(floor, std::clamp(vm.priority, 0.0, 1.0) * vm.max_alloc);
}

PolicyResult ProportionalPolicy::reclaim(std::span<const VmShare> vms,
                                         double amount) const {
  std::vector<double> weights(vms.size()), minimums(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    minimums[i] = vms[i].min_alloc;
    weights[i] = std::max(0.0, vms[i].max_alloc - vms[i].min_alloc);
  }
  return solve_weighted(vms, weights, minimums, amount);
}

PolicyResult PriorityWeightedPolicy::reclaim(std::span<const VmShare> vms,
                                             double amount) const {
  std::vector<double> weights(vms.size()), minimums(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const double pi = std::clamp(vms[i].priority, 0.0, 1.0);
    minimums[i] = priority_minimums_
                      ? std::max(vms[i].min_alloc, pi * vms[i].max_alloc)
                      : vms[i].min_alloc;
    weights[i] = pi * std::max(0.0, vms[i].max_alloc - minimums[i]);
  }
  return solve_weighted(vms, weights, minimums, amount);
}

PolicyResult DeterministicPolicy::reclaim(std::span<const VmShare> vms,
                                          double amount) const {
  const std::size_t n = vms.size();
  PolicyResult result;
  result.targets.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.targets[i] = vms[i].current;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  if (amount >= 0.0) {
    // Deflate in increasing priority order; each step is binary:
    // current -> max(pi*M, floor).
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (vms[a].priority != vms[b].priority)
        return vms[a].priority < vms[b].priority;
      return vms[a].id < vms[b].id;
    });
    double reclaimed = 0.0;
    for (const std::size_t i : order) {
      if (reclaimed >= amount - kEps) break;
      const double level =
          std::max(vms[i].min_alloc, vms[i].priority * vms[i].max_alloc);
      const double take = vms[i].current - std::min(vms[i].current, level);
      if (take <= kEps) continue;
      result.targets[i] = vms[i].current - take;
      reclaimed += take;
    }
    result.reclaimed = reclaimed;
    result.success = reclaimed >= amount - 1e-6;
  } else {
    // Reinflate the highest-priority VMs first, each fully back to M_i.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (vms[a].priority != vms[b].priority)
        return vms[a].priority > vms[b].priority;
      return vms[a].id < vms[b].id;
    });
    double to_give = -amount;
    double given = 0.0;
    for (const std::size_t i : order) {
      if (to_give <= kEps) break;
      const double room = std::max(0.0, vms[i].max_alloc - vms[i].current);
      const double give = std::min(room, to_give);
      result.targets[i] = vms[i].current + give;
      to_give -= give;
      given += give;
    }
    result.reclaimed = -given;
    result.success = true;
  }
  return result;
}

std::unique_ptr<DeflationPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Proportional: return std::make_unique<ProportionalPolicy>();
    case PolicyKind::Priority: return std::make_unique<PriorityWeightedPolicy>(true);
    case PolicyKind::PriorityNoMin:
      return std::make_unique<PriorityWeightedPolicy>(false);
    case PolicyKind::Deterministic: return std::make_unique<DeterministicPolicy>();
  }
  return std::make_unique<ProportionalPolicy>();
}

const char* policy_kind_name(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::Proportional: return "proportional";
    case PolicyKind::Priority: return "priority";
    case PolicyKind::PriorityNoMin: return "priority-nomin";
    case PolicyKind::Deterministic: return "deterministic";
  }
  return "?";
}

}  // namespace deflate::core
