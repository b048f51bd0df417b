// A physical server hosting VMs. Tracks committed (sum of specs) vs
// allocated (sum of effective allocations) resources; the gap between the
// two is what deflation trades in.
#pragma once

#include <cstdint>
#include <memory>
#include <ranges>
#include <vector>

#include "hypervisor/vm.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::hv {

class Host {
 public:
  Host(std::uint64_t id, res::ResourceVector capacity);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const res::ResourceVector& capacity() const noexcept {
    return capacity_;
  }

  /// Adds a VM; returns a stable reference (Host owns the VM).
  Vm& add_vm(VmSpec spec);
  /// Removes and destroys the VM. Returns false if not resident.
  bool remove_vm(std::uint64_t vm_id);
  [[nodiscard]] Vm* find_vm(std::uint64_t vm_id) noexcept;
  [[nodiscard]] const Vm* find_vm(std::uint64_t vm_id) const noexcept;

  /// Resident VMs in arrival order (deterministic iteration for policies),
  /// as a random-access view of `Vm*` over the host's own storage. The view
  /// is invalidated by add_vm/remove_vm: a caller that adds or destroys VMs
  /// while walking copies the pointers (or specs) first.
  [[nodiscard]] auto vms() noexcept {
    return std::views::transform(
        vms_, [](const std::unique_ptr<Vm>& vm) { return vm.get(); });
  }
  [[nodiscard]] auto vms() const noexcept {
    return std::views::transform(
        vms_, [](const std::unique_ptr<Vm>& vm) -> const Vm* { return vm.get(); });
  }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }

  /// Sum of VM spec sizes (what customers were promised).
  [[nodiscard]] res::ResourceVector committed() const noexcept;
  /// Sum of effective allocations (what is physically handed out).
  [[nodiscard]] res::ResourceVector allocated() const noexcept;
  /// capacity - allocated, clamped at zero.
  [[nodiscard]] res::ResourceVector available() const noexcept;
  /// Total resources reclaimable by deflating every deflatable VM to its
  /// floor (the paper's `deflatable_j` term, §5.2).
  [[nodiscard]] res::ResourceVector deflatable_headroom() const noexcept;
  /// committed/capacity maximized over CPU and memory; 1.0 = fully
  /// committed, >1 = overcommitted (the paper's `overcommitted_j`).
  [[nodiscard]] double overcommit_ratio() const noexcept;

 private:
  /// Index of `vm_id` in `ids_`/`vms_`, or vm_count() when not resident.
  [[nodiscard]] std::size_t slot_of(std::uint64_t vm_id) const noexcept;

  std::uint64_t id_;
  res::ResourceVector capacity_;
  // Residents in arrival order; ids_[i] == vms_[i]->spec().id. A server
  // holds tens of VMs, so a linear id scan beats hashing, and every
  // aggregate walks one contiguous vector.
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<std::uint64_t> ids_;
};

}  // namespace deflate::hv
