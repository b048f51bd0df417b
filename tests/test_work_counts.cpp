// Deterministic work counts: algorithmic regressions fail here on any
// hardware, where a wall-time gate could not tell them from host noise.
//
// A test-local scorer forwards to `fitness` and counts its scans. A fixed
// daemon-shaped session runs through net::ServiceCore: 16 servers filled
// by mostly on-demand requests, `price` admission, and deflatable
// requests whose deferrals are retried at every price step while the fleet
// stays full. Each count must stay at or below its committed expectation.
// A change that lowers a count tightens its expectation; a change that
// raises one says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "cluster/placement.hpp"
#include "net/service.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace cl = deflate::cluster;
namespace hv = deflate::hv;
namespace net = deflate::net;
namespace res = deflate::res;
namespace sim = deflate::sim;

namespace {

std::uint64_t g_scans = 0;

/// `fitness`, with every scan counted.
class CountingFitness final : public cl::PlacementScorer {
 public:
  CountingFitness() : inner_(cl::make_placement_scorer("fitness")) {}
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

constexpr std::size_t kConnections = 2;
constexpr std::size_t kRequestsPerConnection = 6000;
constexpr double kSpacingSeconds = 10.0;

/// Request g of the session: 1..8 vCPUs, 2 GiB per vCPU, a quarter of
/// them deflatable with a 0.5 minimum.
cl::AdmissionRequest make_request(std::uint64_t g) {
  deflate::util::Rng rng = deflate::util::Rng::keyed(1, g);
  hv::VmSpec spec;
  spec.id = g + 1;
  spec.vcpus = 1 << static_cast<int>(rng.uniform_int(0, 3));
  spec.memory_mib = 2048.0 * spec.vcpus;
  spec.deflatable = rng.bernoulli(0.25);
  spec.priority = spec.deflatable ? rng.uniform(0.1, 0.9) : 1.0;
  spec.min_fraction = spec.deflatable ? 0.5 : 0.0;
  return cl::AdmissionRequest::from_spec(
      spec,
      sim::SimTime::from_seconds(kSpacingSeconds * static_cast<double>(g)));
}

struct WorkCounts {
  std::uint64_t place_calls = 0;
  std::uint64_t scans = 0;
  std::uint64_t retries = 0;
  std::uint64_t admitted = 0;
};

WorkCounts run_session() {
  cl::PlacementRegistry::instance().add(
      "test-counting-fitness", "test: fitness with counted scans",
      [] { return std::make_shared<const CountingFitness>(); });

  net::ServiceConfig config;
  config.server_count = 16;
  config.placement_policy = "test-counting-fitness";
  config.admission_policy = "price";
  config.admission.default_ceiling = 0.3;
  config.admission.max_defer_hours = 2.0;
  config.price_trace_hours =
      kSpacingSeconds * kConnections * kRequestsPerConnection / 3600.0 + 24.0;
  config.price_seed = 4;
  net::ServiceCore core(config);
  std::vector<std::unique_ptr<cl::AdmissionController>> controllers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    controllers.push_back(core.make_controller());
  }

  deflate::util::ProfilePhase& place =
      deflate::util::Profiler::instance().phase("cluster.place");
  const std::uint64_t calls_before = place.calls();
  g_scans = 0;
  // Connection c sends requests g = 2i + c; each decide is preceded by the
  // drain the server runs before it, as in the deployed daemon.
  for (std::uint64_t g = 0; g < kConnections * kRequestsPerConnection; ++g) {
    cl::AdmissionController& controller = *controllers[g % kConnections];
    const cl::AdmissionRequest request = make_request(g);
    const sim::SimTime now = core.advance_clock(request.arrival);
    controller.drain(now);
    controller.decide(request, now);
  }
  WorkCounts counts;
  counts.place_calls = place.calls() - calls_before;
  counts.scans = g_scans;
  for (const auto& controller : controllers) {
    counts.retries += controller->stats().retries;
    counts.admitted += controller->stats().admitted;
  }
  return counts;
}

}  // namespace

TEST(WorkCounts, DaemonPriceSessionScansPerPlacement) {
  const WorkCounts counts = run_session();
  std::cout << "place_vm calls " << counts.place_calls << ", scans "
            << counts.scans << ", retries " << counts.retries
            << ", admitted " << counts.admitted << "\n";
  // The session must be the deferral-churn shape it stands for.
  ASSERT_GT(counts.place_calls, 20000u);
  ASSERT_GT(counts.retries, 10000u);
  ASSERT_GT(counts.admitted, 200u);  // the fleet fills

  // Committed expectations, measured with g++ 12 and glibc on x86-64:
  // 68080 place_vm calls and 763 scans (0.011 per call). Without the
  // certified-reject memo each rejected call walks the whole launch ladder,
  // two scans per step: 1317553 scans, 19.4 per call. The price trace is
  // generated through libm, so another platform may have to re-measure.
  EXPECT_LE(counts.place_calls, 70000u);
  EXPECT_LE(counts.scans, 1000u);
}
