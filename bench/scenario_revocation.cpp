// Revocation-scenario sweep: reclamation-failure probability, VM losses
// and fleet cost across revocation models and intensities, for deflation
// vs the preemption baseline. Extends the paper's Fig. 20 axis (arrival
// pressure) with the transient-market axis (server revocations).
#include <iostream>
#include <string>
#include <vector>

#include "cluster_bench.hpp"
#include "transient/revocation.hpp"

int main() {
  using namespace deflate;
  bench::print_header(
      "Scenario: server revocations (transient market)",
      "deflation migrates VMs off revoked servers and keeps losses near "
      "zero where classic preemption kills every resident VM; the "
      "portfolio mix still undercuts an all-on-demand fleet");

  const auto records = bench::cluster_trace();
  auto base = bench::base_sim_config();
  // 20% headroom below peak so migrations have somewhere to land.
  base.server_count = simcluster::TraceDrivenSimulator::servers_for_overcommit(
      records, base.server_capacity, -0.2);
  std::cout << "trace: " << records.size() << " VMs, fleet "
            << base.server_count << " servers\n\n";

  struct Scenario {
    std::string label;
    const char* model;  ///< revocation registry name
    double poisson_rate;  // per hour, Poisson only
    cluster::ReclamationMode mode;
  };
  std::vector<Scenario> scenarios;
  for (const auto mode : {cluster::ReclamationMode::Deflation,
                          cluster::ReclamationMode::Preemption}) {
    const char* suffix =
        mode == cluster::ReclamationMode::Deflation ? "deflate" : "preempt";
    scenarios.push_back({std::string("poisson mtbr 48h / ") + suffix,
                         "poisson", 1.0 / 48.0,
                         mode});
    scenarios.push_back({std::string("poisson mtbr 12h / ") + suffix,
                         "poisson", 1.0 / 12.0,
                         mode});
    scenarios.push_back({std::string("temporal 24h cap / ") + suffix,
                         "temporal",
                         0.0, mode});
  }

  std::vector<bench::SweepCase> cases;
  for (const Scenario& scenario : scenarios) {
    bench::SweepCase c;
    c.config = base;
    c.config.mode = scenario.mode;
    c.config.market_enabled = true;
    c.config.market.seed = 7;
    c.config.market.revocation.model = scenario.model;
    c.config.market.revocation.poisson_rate_per_hour = scenario.poisson_rate;
    c.config.market.portfolio.on_demand_floor = 0.2;
    cases.push_back(c);
  }
  bench::run_sweep(records, cases);

  util::Table table({"scenario", "revocations", "migrations", "kills",
                     "failure_prob_%", "tput_loss_%", "saving_vs_od_%"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& m = cases[i].metrics;
    table.add_row({scenarios[i].label, std::to_string(m.revocations),
                   std::to_string(m.revocation_migrations),
                   std::to_string(m.revocation_kills),
                   util::format_double(100 * m.failure_probability, 3),
                   util::format_double(100 * m.throughput_loss, 3),
                   util::format_double(m.cost.saving_percent(), 1)});
  }
  table.print(std::cout);
  bench::print_profile();
  return 0;
}
