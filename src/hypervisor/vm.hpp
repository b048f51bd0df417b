// Virtual machine model: static spec + dynamic allocation state.
//
// A VM's *effective* allocation is the elementwise minimum of what is
// explicitly plugged (visible to the guest) and what the hypervisor-side
// cgroup limits permit (invisible to the guest). Deflation mechanisms move
// one or both of these; policies reason only about effective allocations.
#pragma once

#include <cstdint>
#include <string>

#include "hypervisor/guest_os.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::hv {

/// Azure-trace workload classes (§3.2.1). Interactive VMs are the paper's
/// deflatable pool in the cluster evaluation (§7.1.2).
enum class WorkloadClass { Interactive, DelayInsensitive, Unknown };

[[nodiscard]] const char* workload_class_name(WorkloadClass c) noexcept;

enum class VmState { Running, Preempted, Stopped };

struct VmSpec {
  std::uint64_t id = 0;
  std::string name;
  int vcpus = 1;
  double memory_mib = 1024.0;
  double disk_bw_mbps = 100.0;
  double net_bw_mbps = 1000.0;
  /// Priority pi in (0, 1]; higher = less deflatable (§5.1.2). On-demand
  /// (non-deflatable) VMs conventionally carry 1.0.
  double priority = 1.0;
  bool deflatable = false;
  /// Per-resource minimum allocation as a fraction of the spec (m_i = f*M_i,
  /// §5.1.1 Eq. 2). Zero means the VM may be deflated arbitrarily far.
  double min_fraction = 0.0;
  WorkloadClass workload = WorkloadClass::Unknown;

  [[nodiscard]] res::ResourceVector vector() const noexcept {
    return {static_cast<double>(vcpus), memory_mib, disk_bw_mbps, net_bw_mbps};
  }
  [[nodiscard]] res::ResourceVector min_vector() const noexcept {
    return vector() * min_fraction;
  }
};

/// Floor the cluster policies must respect for a VM of this spec:
/// max(spec minimums, one block of memory / a sliver of CPU so the guest
/// stays alive), capped at the spec. Placement reads it without building
/// a Vm.
[[nodiscard]] res::ResourceVector allocation_floor(const VmSpec& spec) noexcept;

/// Hypervisor-side cgroup state for one VM (cpu.cfs quota expressed in
/// cores, mem.limit_in_bytes in MiB, blkio and net-cls throttles in MB/s
/// and Mbps). Values are capped at the spec: cgroups can only *restrict*.
struct CgroupLimits {
  double cpu_quota_cores = 0.0;
  double memory_limit_mib = 0.0;
  double disk_bw_mbps = 0.0;
  double net_bw_mbps = 0.0;
};

class Vm {
 public:
  explicit Vm(VmSpec spec);

  [[nodiscard]] const VmSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] GuestOs& guest() noexcept { return guest_; }
  [[nodiscard]] const GuestOs& guest() const noexcept { return guest_; }
  [[nodiscard]] VmState state() const noexcept { return state_; }
  void set_state(VmState s) noexcept { state_ = s; }

  // --- cgroup (transparent) controls ---------------------------------------
  void set_cpu_quota(double cores) noexcept;
  void set_memory_limit(double mib) noexcept;
  void set_disk_throttle(double mbps) noexcept;
  void set_net_throttle(double mbps) noexcept;
  [[nodiscard]] const CgroupLimits& cgroups() const noexcept { return cgroups_; }

  // --- allocation views ------------------------------------------------------
  /// What the guest *sees* (plugged resources).
  [[nodiscard]] res::ResourceVector plugged() const noexcept;
  /// What the VM can actually use: min(plugged, cgroup limits).
  [[nodiscard]] res::ResourceVector effective_allocation() const noexcept;
  /// 1 - effective/spec for the given resource, in [0, 1].
  [[nodiscard]] double deflation_fraction(res::Resource r) const noexcept;
  /// Worst-case (maximum) deflation fraction across resources.
  [[nodiscard]] double max_deflation_fraction() const noexcept;
  /// Swap pressure implied by the current effective memory allocation.
  [[nodiscard]] double memory_swap_pressure() const noexcept;

  /// hv::allocation_floor(spec()).
  [[nodiscard]] res::ResourceVector allocation_floor() const noexcept {
    return hv::allocation_floor(spec_);
  }

 private:
  VmSpec spec_;
  GuestOs guest_;
  CgroupLimits cgroups_;
  VmState state_ = VmState::Running;
};

}  // namespace deflate::hv
