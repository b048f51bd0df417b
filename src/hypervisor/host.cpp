#include "hypervisor/host.hpp"

#include <algorithm>
#include <stdexcept>

namespace deflate::hv {

Host::Host(std::uint64_t id, res::ResourceVector capacity)
    : id_(id), capacity_(capacity) {}

std::size_t Host::slot_of(std::uint64_t vm_id) const noexcept {
  return static_cast<std::size_t>(
      std::find(ids_.begin(), ids_.end(), vm_id) - ids_.begin());
}

Vm& Host::add_vm(VmSpec spec) {
  const std::uint64_t vm_id = spec.id;
  if (slot_of(vm_id) != ids_.size()) {
    throw std::invalid_argument("Host::add_vm: duplicate VM id");
  }
  vms_.push_back(std::make_unique<Vm>(std::move(spec)));
  ids_.push_back(vm_id);
  return *vms_.back();
}

bool Host::remove_vm(std::uint64_t vm_id) {
  const std::size_t slot = slot_of(vm_id);
  if (slot == ids_.size()) return false;
  const auto offset = static_cast<std::ptrdiff_t>(slot);
  vms_.erase(vms_.begin() + offset);
  ids_.erase(ids_.begin() + offset);
  return true;
}

Vm* Host::find_vm(std::uint64_t vm_id) noexcept {
  const std::size_t slot = slot_of(vm_id);
  return slot == ids_.size() ? nullptr : vms_[slot].get();
}

const Vm* Host::find_vm(std::uint64_t vm_id) const noexcept {
  const std::size_t slot = slot_of(vm_id);
  return slot == ids_.size() ? nullptr : vms_[slot].get();
}

res::ResourceVector Host::committed() const noexcept {
  res::ResourceVector total;
  for (const auto& vm : vms_) total += vm->spec().vector();
  return total;
}

res::ResourceVector Host::allocated() const noexcept {
  res::ResourceVector total;
  for (const auto& vm : vms_) total += vm->effective_allocation();
  return total;
}

res::ResourceVector Host::available() const noexcept {
  return (capacity_ - allocated()).clamped_nonneg();
}

res::ResourceVector Host::deflatable_headroom() const noexcept {
  res::ResourceVector total;
  for (const auto& vm : vms_) {
    if (!vm->spec().deflatable) continue;
    total += (vm->effective_allocation() - vm->allocation_floor()).clamped_nonneg();
  }
  return total;
}

double Host::overcommit_ratio() const noexcept {
  const res::ResourceVector c = committed();
  double worst = 0.0;
  for (const res::Resource r : {res::Resource::Cpu, res::Resource::Memory}) {
    if (capacity_[r] > 0.0) worst = std::max(worst, c[r] / capacity_[r]);
  }
  return worst;
}

}  // namespace deflate::hv
