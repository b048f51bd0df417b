#include "core/local_controller.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace deflate::core {

namespace {

/// A VM's inputs to the per-resource policy calls. spec().vector(),
/// allocation_floor() and effective_allocation() are pure, so reading them
/// once per VM instead of once per resource gives the same doubles.
struct ShareRow {
  std::uint64_t id = 0;
  double priority = 1.0;
  res::ResourceVector max_alloc;
  res::ResourceVector min_alloc;
  res::ResourceVector current;
};

ShareRow share_row(const hv::Vm& vm) {
  return {vm.spec().id, vm.spec().priority, vm.spec().vector(),
          vm.allocation_floor(), vm.effective_allocation()};
}

VmShare share_of(const ShareRow& row, res::Resource r) {
  VmShare share;
  share.id = row.id;
  share.max_alloc = row.max_alloc[r];
  share.min_alloc = row.min_alloc[r];
  share.priority = row.priority;
  share.current = row.current[r];
  return share;
}

std::vector<ShareRow> share_rows(const std::vector<hv::Vm*>& vms) {
  std::vector<ShareRow> rows;
  rows.reserve(vms.size());
  for (const hv::Vm* vm : vms) rows.push_back(share_row(*vm));
  return rows;
}

std::vector<VmShare> shares_of(const std::vector<ShareRow>& rows,
                               res::Resource r) {
  std::vector<VmShare> shares;
  shares.reserve(rows.size());
  for (const ShareRow& row : rows) shares.push_back(share_of(row, r));
  return shares;
}

}  // namespace

LocalDeflationController::LocalDeflationController(
    hv::SimHypervisor& hypervisor, std::shared_ptr<const DeflationPolicy> policy,
    std::shared_ptr<mech::DeflationMechanism> mechanism)
    : hypervisor_(hypervisor),
      policy_(std::move(policy)),
      mechanism_(std::move(mechanism)) {}

LocalDeflationController::Plan LocalDeflationController::plan_reclaim(
    const res::ResourceVector& need) const {
  Plan plan;
  const hv::Host& host = hypervisor_.host();

  std::vector<hv::Vm*> deflatable;
  for (hv::Vm* vm : const_cast<hv::Host&>(host).vms()) {
    if (vm->spec().deflatable && vm->state() == hv::VmState::Running) {
      deflatable.push_back(vm);
    }
  }

  const std::vector<ShareRow> rows = share_rows(deflatable);
  plan.vms = deflatable;
  plan.targets.resize(deflatable.size());
  for (std::size_t i = 0; i < deflatable.size(); ++i) {
    plan.targets[i] = rows[i].current;
  }

  plan.success = true;
  for (const res::Resource r : res::all_resources) {
    if (need[r] <= 1e-9) continue;
    if (deflatable.empty()) {
      plan.success = false;
      break;
    }
    const PolicyResult result = policy_->reclaim(shares_of(rows, r), need[r]);
    if (!result.success) {
      plan.success = false;
      break;
    }
    for (std::size_t i = 0; i < deflatable.size(); ++i) {
      plan.targets[i][r] = result.targets[i];
    }
  }
  return plan;
}

bool LocalDeflationController::can_fit(const res::ResourceVector& demand) const {
  const res::ResourceVector need =
      (demand - hypervisor_.host().available()).clamped_nonneg();
  if (need.is_zero()) return true;
  // O(#vms) feasibility via the policy's reclaimable headroom (exact: the
  // proportional-family solver and the deterministic policy can both reach
  // every VM's min_retained level simultaneously).
  const res::ResourceVector headroom = reclaimable_headroom();
  return need.all_leq(headroom, 1e-9);
}

res::ResourceVector LocalDeflationController::reclaimable_headroom() const {
  res::ResourceVector headroom;
  for (const hv::Vm* vm : hypervisor_.host().vms()) {
    if (!vm->spec().deflatable || vm->state() != hv::VmState::Running) continue;
    const ShareRow row = share_row(*vm);
    for (const res::Resource r : res::all_resources) {
      headroom[r] += std::max(
          0.0, row.current[r] - policy_->min_retained(share_of(row, r)));
    }
  }
  return headroom;
}

void LocalDeflationController::apply_plan(const Plan& plan,
                                          ReclaimOutcome& outcome) {
  for (std::size_t i = 0; i < plan.vms.size(); ++i) {
    hv::Vm& vm = *plan.vms[i];
    const res::ResourceVector before = vm.effective_allocation();
    if ((before - plan.targets[i]).is_zero()) continue;
    virt::Domain domain(hypervisor_, vm);
    mechanism_->apply(domain, plan.targets[i]);
    const res::ResourceVector after = vm.effective_allocation();
    outcome.reclaimed += (before - after).clamped_nonneg();
    ++outcome.vms_deflated;
    notify(vm, before, after);
  }
}

ReclaimOutcome LocalDeflationController::make_room_for(
    const res::ResourceVector& demand) {
  ReclaimOutcome outcome;
  const res::ResourceVector need =
      (demand - hypervisor_.host().available()).clamped_nonneg();
  if (need.is_zero()) {
    outcome.success = true;
    return outcome;
  }

  Plan plan = plan_reclaim(need);
  if (!plan.success) {
    util::logf(util::LogLevel::Info, "controller(host=", hypervisor_.host().id(),
               "): reclamation failure for demand ", demand);
    outcome.success = false;
    return outcome;
  }
  apply_plan(plan, outcome);
  // Deflation mechanisms are coarse in places (hotplug rounds up); verify
  // the demand actually fits now.
  outcome.success = demand.all_leq(hypervisor_.host().available(), 1e-6);
  return outcome;
}

res::ResourceVector LocalDeflationController::redistribute_free() {
  const hv::Host& host = hypervisor_.host();
  const res::ResourceVector free = host.available();
  if (free.is_zero()) return {};

  std::vector<hv::Vm*> deflated;
  for (hv::Vm* vm : hypervisor_.host().vms()) {
    if (!vm->spec().deflatable || vm->state() != hv::VmState::Running) continue;
    if (vm->max_deflation_fraction() > 1e-9) deflated.push_back(vm);
  }
  if (deflated.empty()) return {};

  const std::vector<ShareRow> rows = share_rows(deflated);
  std::vector<res::ResourceVector> targets(deflated.size());
  for (std::size_t i = 0; i < deflated.size(); ++i) {
    targets[i] = rows[i].current;
  }

  for (const res::Resource r : res::all_resources) {
    if (free[r] <= 1e-9) continue;
    const PolicyResult result = policy_->reclaim(shares_of(rows, r), -free[r]);
    for (std::size_t i = 0; i < deflated.size(); ++i) {
      targets[i][r] = result.targets[i];
    }
  }

  res::ResourceVector given;
  for (std::size_t i = 0; i < deflated.size(); ++i) {
    hv::Vm& vm = *deflated[i];
    const res::ResourceVector before = vm.effective_allocation();
    if ((targets[i] - before).is_zero()) continue;
    virt::Domain domain(hypervisor_, vm);
    mechanism_->apply(domain, targets[i]);
    const res::ResourceVector after = vm.effective_allocation();
    given += (after - before).clamped_nonneg();
    notify(vm, before, after);
  }
  return given;
}

void LocalDeflationController::apply_allocation(hv::Vm& vm,
                                                const res::ResourceVector& target) {
  const res::ResourceVector before = vm.effective_allocation();
  virt::Domain domain(hypervisor_, vm);
  mechanism_->apply(domain, target);
  const res::ResourceVector after = vm.effective_allocation();
  if (!(after - before).is_zero()) notify(vm, before, after);
}

void LocalDeflationController::notify(const hv::Vm& vm,
                                      const res::ResourceVector& old_alloc,
                                      const res::ResourceVector& new_alloc) const {
  for (const auto& callback : callbacks_) callback(vm, old_alloc, new_alloc);
}

}  // namespace deflate::core
