#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "hypervisor/host.hpp"
#include "hypervisor/vm.hpp"
#include "util/rng.hpp"

namespace hv = deflate::hv;
namespace res = deflate::res;

namespace {

hv::VmSpec make_spec(std::uint64_t id, int vcpus = 4, double mem = 8192.0,
                     bool deflatable = true, double priority = 0.5) {
  hv::VmSpec spec;
  spec.id = id;
  spec.name = "vm-" + std::to_string(id);
  spec.vcpus = vcpus;
  spec.memory_mib = mem;
  spec.disk_bw_mbps = 100.0;
  spec.net_bw_mbps = 1000.0;
  spec.deflatable = deflatable;
  spec.priority = priority;
  return spec;
}

}  // namespace

TEST(VmSpec, VectorReflectsSpec) {
  const auto spec = make_spec(1, 8, 16384.0);
  const auto v = spec.vector();
  EXPECT_DOUBLE_EQ(v.cpu(), 8.0);
  EXPECT_DOUBLE_EQ(v.memory(), 16384.0);
  EXPECT_DOUBLE_EQ(v.disk_bw(), 100.0);
  EXPECT_DOUBLE_EQ(v.net_bw(), 1000.0);
}

TEST(VmSpec, MinVectorScalesByFraction) {
  auto spec = make_spec(1, 8, 16384.0);
  spec.min_fraction = 0.25;
  EXPECT_DOUBLE_EQ(spec.min_vector().cpu(), 2.0);
  EXPECT_DOUBLE_EQ(spec.min_vector().memory(), 4096.0);
}

TEST(Vm, StartsUndeflated) {
  hv::Vm vm(make_spec(1));
  EXPECT_EQ(vm.effective_allocation(), vm.spec().vector());
  EXPECT_DOUBLE_EQ(vm.max_deflation_fraction(), 0.0);
  EXPECT_EQ(vm.state(), hv::VmState::Running);
}

TEST(Vm, CpuQuotaDeflatesEffectiveAllocation) {
  hv::Vm vm(make_spec(1, 4));
  vm.set_cpu_quota(1.5);
  EXPECT_DOUBLE_EQ(vm.effective_allocation().cpu(), 1.5);
  EXPECT_DOUBLE_EQ(vm.deflation_fraction(res::Resource::Cpu), 1.0 - 1.5 / 4.0);
  // Guest still sees all vCPUs (transparent).
  EXPECT_EQ(vm.guest().vcpus(), 4);
}

TEST(Vm, CgroupsClampToSpec) {
  hv::Vm vm(make_spec(1, 4, 8192.0));
  vm.set_cpu_quota(100.0);
  vm.set_memory_limit(1e9);
  vm.set_disk_throttle(-5.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().cpu_quota_cores, 4.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().memory_limit_mib, 8192.0);
  EXPECT_DOUBLE_EQ(vm.cgroups().disk_bw_mbps, 0.0);
}

TEST(Vm, EffectiveIsMinOfPluggedAndLimit) {
  hv::Vm vm(make_spec(1, 8, 16384.0));
  vm.guest().request_vcpus(4, 8);          // explicit: 4 plugged
  vm.set_cpu_quota(6.0);                   // limit above plugged
  EXPECT_DOUBLE_EQ(vm.effective_allocation().cpu(), 4.0);
  vm.set_cpu_quota(2.0);                   // limit below plugged
  EXPECT_DOUBLE_EQ(vm.effective_allocation().cpu(), 2.0);
}

TEST(Vm, MemorySwapPressureTracksLimit) {
  hv::Vm vm(make_spec(1, 4, 16384.0));
  vm.guest().set_rss(9216.0);
  vm.set_memory_limit(16384.0);
  EXPECT_DOUBLE_EQ(vm.memory_swap_pressure(), 0.0);
  vm.set_memory_limit(8192.0);
  EXPECT_GT(vm.memory_swap_pressure(), 0.0);
}

TEST(Vm, AllocationFloorRespectsMinFraction) {
  auto spec = make_spec(1, 4, 8192.0);
  spec.min_fraction = 0.5;
  hv::Vm vm(spec);
  const auto floor = vm.allocation_floor();
  EXPECT_DOUBLE_EQ(floor.cpu(), 2.0);
  EXPECT_DOUBLE_EQ(floor.memory(), 4096.0);
}

TEST(Vm, SurvivalFloorWithoutMinFraction) {
  hv::Vm vm(make_spec(1, 4, 8192.0));
  const auto floor = vm.allocation_floor();
  EXPECT_DOUBLE_EQ(floor.cpu(), 0.05);
  EXPECT_DOUBLE_EQ(floor.memory(), hv::kMemoryBlockMib);
}

TEST(Host, AddAndRemoveVms) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(1));
  host.add_vm(make_spec(2));
  EXPECT_EQ(host.vm_count(), 2U);
  EXPECT_NE(host.find_vm(1), nullptr);
  EXPECT_TRUE(host.remove_vm(1));
  EXPECT_FALSE(host.remove_vm(1));
  EXPECT_EQ(host.find_vm(1), nullptr);
  EXPECT_EQ(host.vm_count(), 1U);
}

TEST(Host, DuplicateIdThrows) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(7));
  EXPECT_THROW(host.add_vm(make_spec(7)), std::invalid_argument);
}

TEST(Host, VmsIterateInArrivalOrder) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(5));
  host.add_vm(make_spec(2));
  host.add_vm(make_spec(9));
  const auto vms = host.vms();
  ASSERT_EQ(vms.size(), 3U);
  EXPECT_EQ(vms[0]->spec().id, 5U);
  EXPECT_EQ(vms[1]->spec().id, 2U);
  EXPECT_EQ(vms[2]->spec().id, 9U);
}

namespace {

std::vector<std::uint64_t> resident_ids(const hv::Host& host) {
  std::vector<std::uint64_t> ids;
  for (const hv::Vm* vm : host.vms()) ids.push_back(vm->spec().id);
  return ids;
}

}  // namespace

TEST(Host, RemoveFromMiddleKeepsArrivalOrderAndLookups) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  for (const std::uint64_t id : {5U, 2U, 9U, 4U}) host.add_vm(make_spec(id));
  EXPECT_TRUE(host.remove_vm(2));
  EXPECT_EQ(resident_ids(host), (std::vector<std::uint64_t>{5, 9, 4}));
  for (const std::uint64_t id : {5U, 9U, 4U}) {
    ASSERT_NE(host.find_vm(id), nullptr);
    EXPECT_EQ(host.find_vm(id)->spec().id, id);
  }
  EXPECT_EQ(host.find_vm(2), nullptr);

  // A removed id can come back; it re-arrives at the end.
  host.add_vm(make_spec(2));
  EXPECT_EQ(resident_ids(host), (std::vector<std::uint64_t>{5, 9, 4, 2}));
  // A live id still cannot be added twice, and the failed add changes nothing.
  EXPECT_THROW(host.add_vm(make_spec(9)), std::invalid_argument);
  EXPECT_EQ(resident_ids(host), (std::vector<std::uint64_t>{5, 9, 4, 2}));
  EXPECT_TRUE(host.remove_vm(5));
  EXPECT_EQ(resident_ids(host), (std::vector<std::uint64_t>{9, 4, 2}));
  EXPECT_EQ(host.vm_count(), 3U);
}

TEST(Host, AddVmReferenceStaysValidAsResidentsChange) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  hv::Vm& first = host.add_vm(make_spec(1));
  for (std::uint64_t id = 2; id < 64; ++id) host.add_vm(make_spec(id, 1, 512.0));
  for (std::uint64_t id = 2; id < 32; ++id) host.remove_vm(id);
  EXPECT_EQ(host.find_vm(1), &first);
  EXPECT_EQ(first.spec().id, 1U);
}

// The aggregates walk the host's own storage; they must equal a naive sum
// over the residents in arrival order, bit for bit, through random adds,
// removals and deflations.
TEST(Host, AggregatesBitEqualToNaiveArrivalOrderSum) {
  deflate::util::Rng rng(11);
  hv::Host host(0, {64.0, 262144.0, 4000.0, 40000.0});
  std::vector<std::uint64_t> arrival;  // the test's own residency record
  std::uint64_t next_id = 1;
  const auto bit_equal = [](const res::ResourceVector& a,
                            const res::ResourceVector& b) {
    for (const res::Resource r : res::all_resources) {
      if (std::bit_cast<std::uint64_t>(a[r]) != std::bit_cast<std::uint64_t>(b[r])) {
        return false;
      }
    }
    return true;
  };
  for (int step = 0; step < 400; ++step) {
    if (arrival.empty() || rng.bernoulli(0.6)) {
      auto spec = make_spec(next_id, static_cast<int>(rng.uniform_int(1, 8)),
                            rng.uniform(512.0, 16384.0), rng.bernoulli(0.5),
                            rng.uniform(0.1, 1.0));
      spec.disk_bw_mbps = rng.uniform(1.0, 200.0);
      spec.min_fraction = rng.uniform(0.0, 0.5);
      hv::Vm& vm = host.add_vm(spec);
      vm.set_cpu_quota(rng.uniform(0.0, 8.0));
      vm.set_memory_limit(rng.uniform(256.0, 16384.0));
      arrival.push_back(next_id++);
    } else {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(arrival.size()) - 1));
      ASSERT_TRUE(host.remove_vm(arrival[pos]));
      arrival.erase(arrival.begin() + static_cast<std::ptrdiff_t>(pos));
    }
    ASSERT_EQ(resident_ids(host), arrival);

    res::ResourceVector committed, allocated, headroom;
    for (const std::uint64_t id : arrival) {
      const hv::Vm& vm = *host.find_vm(id);
      committed += vm.spec().vector();
      allocated += vm.effective_allocation();
      if (vm.spec().deflatable) {
        headroom += (vm.effective_allocation() - vm.allocation_floor()).clamped_nonneg();
      }
    }
    ASSERT_TRUE(bit_equal(host.committed(), committed)) << "step " << step;
    ASSERT_TRUE(bit_equal(host.allocated(), allocated)) << "step " << step;
    ASSERT_TRUE(bit_equal(host.available(),
                          (host.capacity() - allocated).clamped_nonneg()));
    ASSERT_TRUE(bit_equal(host.deflatable_headroom(), headroom)) << "step " << step;
  }
}

TEST(Host, CommittedAllocatedAvailable) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(1, 8, 16384.0));
  hv::Vm& vm2 = host.add_vm(make_spec(2, 8, 16384.0));
  EXPECT_DOUBLE_EQ(host.committed().cpu(), 16.0);
  EXPECT_DOUBLE_EQ(host.allocated().cpu(), 16.0);
  EXPECT_DOUBLE_EQ(host.available().cpu(), 32.0);

  vm2.set_cpu_quota(2.0);  // deflate vm2's CPU by 6 cores
  EXPECT_DOUBLE_EQ(host.committed().cpu(), 16.0);  // commitments unchanged
  EXPECT_DOUBLE_EQ(host.allocated().cpu(), 10.0);
  EXPECT_DOUBLE_EQ(host.available().cpu(), 38.0);
}

TEST(Host, DeflatableHeadroomExcludesOnDemand) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  host.add_vm(make_spec(1, 8, 16384.0, /*deflatable=*/false));
  host.add_vm(make_spec(2, 8, 16384.0, /*deflatable=*/true));
  const auto headroom = host.deflatable_headroom();
  // Only VM 2 contributes: 8 cores minus its 0.05-core survival floor.
  EXPECT_NEAR(headroom.cpu(), 8.0 - 0.05, 1e-9);
  EXPECT_NEAR(headroom.memory(), 16384.0 - hv::kMemoryBlockMib, 1e-9);
}

TEST(Host, OvercommitRatio) {
  hv::Host host(0, {48.0, 131072.0, 4000.0, 40000.0});
  EXPECT_DOUBLE_EQ(host.overcommit_ratio(), 0.0);
  for (int i = 0; i < 9; ++i) host.add_vm(make_spec(100 + i, 8, 8192.0));
  // 72 cores committed on 48 -> ratio 1.5 (CPU-bound).
  EXPECT_DOUBLE_EQ(host.overcommit_ratio(), 1.5);
}

TEST(WorkloadClassNames, Distinct) {
  EXPECT_STREQ(hv::workload_class_name(hv::WorkloadClass::Interactive),
               "interactive");
  EXPECT_STREQ(hv::workload_class_name(hv::WorkloadClass::DelayInsensitive),
               "delay-insensitive");
  EXPECT_STREQ(hv::workload_class_name(hv::WorkloadClass::Unknown), "unknown");
}
