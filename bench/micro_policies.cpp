// Micro-benchmark: deflation-policy solve throughput. The local controller
// invokes the policy once per resource dimension per placement, so the
// per-call latency bounds cluster-manager throughput. Also the per-host
// refresh a cluster manager runs for every dirty server.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/local_controller.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace {

using deflate::core::PolicyKind;
using deflate::core::VmShare;

std::vector<VmShare> make_shares(std::size_t n, std::uint64_t seed) {
  deflate::util::Rng rng(seed);
  std::vector<VmShare> shares;
  shares.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    VmShare share;
    share.id = i;
    share.max_alloc = rng.uniform(1.0, 32.0);
    share.min_alloc = 0.05;
    share.priority = rng.uniform(0.1, 0.9);
    share.current = rng.uniform(share.min_alloc, share.max_alloc);
    shares.push_back(share);
  }
  return shares;
}

void bench_policy(benchmark::State& state, PolicyKind kind) {
  const auto policy = deflate::core::make_policy(kind);
  const auto shares = make_shares(static_cast<std::size_t>(state.range(0)), 99);
  const double reclaimable = policy->reclaimable(shares);
  for (auto _ : state) {
    auto result = policy->reclaim(shares, reclaimable * 0.5);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK_CAPTURE(bench_policy, proportional, PolicyKind::Proportional)
    ->Arg(8)->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(bench_policy, priority, PolicyKind::Priority)
    ->Arg(8)->Arg(64)->Arg(512);
BENCHMARK_CAPTURE(bench_policy, deterministic, PolicyKind::Deterministic)
    ->Arg(8)->Arg(64)->Arg(512);

static void bench_reclaimable(benchmark::State& state) {
  const auto policy = deflate::core::make_policy(PolicyKind::Priority);
  const auto shares = make_shares(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->reclaimable(shares));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bench_reclaimable)->Arg(64)->Arg(512);

// One server's scan-table refresh, as ClusterManager::refresh_view computes
// it: available(), the controller's reclaimable_headroom() and
// overcommit_ratio(), on a host with state.range(0) residents (half of
// them deflatable, some already deflated).
static void bench_host_refresh(benchmark::State& state) {
  using namespace deflate;
  util::Rng rng(5);
  hv::SimHypervisor hypervisor(0, {64.0, 262144.0, 4000.0, 40000.0});
  const core::LocalDeflationController controller(
      hypervisor, core::make_policy(PolicyKind::Priority),
      mech::make_mechanism(mech::MechanismKind::Transparent));
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    hv::VmSpec spec;
    spec.id = static_cast<std::uint64_t>(i);
    spec.name = "vm";
    spec.vcpus = static_cast<int>(rng.uniform_int(1, 8));
    spec.memory_mib = rng.uniform(1024.0, 16384.0);
    spec.deflatable = i % 2 == 0;
    spec.priority = spec.deflatable ? rng.uniform(0.2, 0.8) : 1.0;
    hv::Vm& vm = hypervisor.create_vm(spec);
    if (spec.deflatable && i % 4 == 0) {
      vm.set_cpu_quota(0.6 * spec.vcpus);
      vm.set_memory_limit(0.6 * spec.memory_mib);
    }
  }
  const hv::Host& host = hypervisor.host();
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.available());
    benchmark::DoNotOptimize(controller.reclaimable_headroom());
    benchmark::DoNotOptimize(host.overcommit_ratio());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bench_host_refresh)->Arg(8)->Arg(32);
