// End-to-end: the trace-driven cluster simulation with the transient
// market enabled — revocations fire, victims are deflated/migrated (or
// killed under the preemption baseline), and the cost accounting reports
// the portfolio saving vs an all-on-demand fleet.
#include <gtest/gtest.h>

#include <string>

#include "simcluster/cluster_sim.hpp"
#include "trace/azure.hpp"

namespace sc = deflate::simcluster;
namespace tr = deflate::trace;
namespace cl = deflate::cluster;
namespace tn = deflate::transient;

namespace {

std::vector<tr::VmRecord> small_trace(std::size_t n = 400,
                                      std::uint64_t seed = 77) {
  tr::AzureTraceConfig config;
  config.vm_count = n;
  config.seed = seed;
  config.duration = deflate::sim::SimTime::from_hours(48);
  return tr::AzureTraceGenerator(config).generate();
}

sc::SimConfig market_config(const std::vector<tr::VmRecord>& records,
                            const std::string& model,
                            double headroom = 0.0) {
  sc::SimConfig config;
  config.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  // Slack below 0% overcommit so migrations off revoked servers have
  // somewhere to land.
  const std::size_t base = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, config.server_capacity, -0.2 - headroom);
  config.server_count = base;
  config.market_enabled = true;
  config.market.seed = 13;
  config.market.revocation.model = model;
  config.market.revocation.poisson_rate_per_hour = 1.0 / 18.0;
  config.market.portfolio.on_demand_floor = 0.25;
  return config;
}

}  // namespace

TEST(TransientSim, RevocationsFireAndAreAbsorbed) {
  const auto records = small_trace();
  sc::TraceDrivenSimulator simulator(
      records, market_config(records, tn::RevocationModel::Poisson));
  const auto metrics = simulator.run();
  EXPECT_GT(metrics.revocations, 0U);
  EXPECT_GT(metrics.revocation_migrations + metrics.revocation_kills, 0U);
  EXPECT_GT(metrics.transient_server_share, 0.0);
  EXPECT_LT(metrics.transient_server_share, 1.0);  // on-demand floor held
}

TEST(TransientSim, TemporalModelRunsEndToEnd) {
  const auto records = small_trace(300, 21);
  sc::TraceDrivenSimulator simulator(
      records,
      market_config(records, tn::RevocationModel::TemporallyConstrained));
  const auto metrics = simulator.run();
  EXPECT_GT(metrics.revocations, 0U);
  EXPECT_LE(metrics.failure_probability, 1.0);
  EXPECT_GE(metrics.throughput_loss, 0.0);
}

TEST(TransientSim, PortfolioCostBeatsAllOnDemand) {
  const auto records = small_trace();
  sc::TraceDrivenSimulator simulator(
      records, market_config(records, tn::RevocationModel::Poisson));
  const auto metrics = simulator.run();
  EXPECT_GT(metrics.cost.all_on_demand_cost, 0.0);
  EXPECT_LT(metrics.cost.total_cost(), metrics.cost.all_on_demand_cost);
  EXPECT_GT(metrics.cost.saving_percent(), 0.0);
  EXPECT_LT(metrics.portfolio_expected_cost, 1.0);
}

TEST(TransientSim, DeflationSavesMoreVmsThanPreemption) {
  // Under revocations, deflation migrates victims (deflating the
  // receiving servers as needed) while the preemption baseline kills every
  // resident VM on a revoked server.
  const auto records = small_trace(500, 3);
  auto deflation_config =
      market_config(records, tn::RevocationModel::Poisson);
  auto preemption_config = deflation_config;
  preemption_config.mode = cl::ReclamationMode::Preemption;

  sc::TraceDrivenSimulator deflation(records, deflation_config);
  sc::TraceDrivenSimulator preemption(records, preemption_config);
  const auto m_deflation = deflation.run();
  const auto m_preemption = preemption.run();
  ASSERT_GT(m_preemption.revocations, 0U);
  EXPECT_LT(m_deflation.revocation_kills, m_preemption.revocation_kills);
  EXPECT_GT(m_deflation.revocation_migrations, 0U);
  EXPECT_EQ(m_preemption.revocation_migrations, 0U);
}

TEST(TransientSim, DeterministicAcrossRuns) {
  const auto records = small_trace(200);
  const auto config =
      market_config(records, tn::RevocationModel::TemporallyConstrained);
  sc::TraceDrivenSimulator a(records, config);
  sc::TraceDrivenSimulator b(records, config);
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_EQ(ma.revocations, mb.revocations);
  EXPECT_EQ(ma.revocation_kills, mb.revocation_kills);
  EXPECT_EQ(ma.revocation_migrations, mb.revocation_migrations);
  EXPECT_DOUBLE_EQ(ma.throughput_loss, mb.throughput_loss);
  EXPECT_DOUBLE_EQ(ma.cost.total_cost(), mb.cost.total_cost());
}

TEST(TransientSim, MarketDisabledMatchesBaseline) {
  const auto records = small_trace(250, 5);
  sc::SimConfig plain;
  plain.server_capacity = {48.0, 128.0 * 1024.0, 1e9, 1e9};
  plain.server_count = sc::TraceDrivenSimulator::servers_for_overcommit(
      records, plain.server_capacity, 0.0);
  auto market = plain;
  market.market_enabled = true;
  market.market.use_portfolio = false;  // no revocations, no portfolio
  market.market.revocation.model = tn::RevocationModel::None;

  sc::TraceDrivenSimulator a(records, plain);
  sc::TraceDrivenSimulator b(records, market);
  const auto ma = a.run();
  const auto mb = b.run();
  EXPECT_EQ(ma.reclamation_failures, mb.reclamation_failures);
  EXPECT_DOUBLE_EQ(ma.throughput_loss, mb.throughput_loss);
  EXPECT_EQ(mb.revocations, 0U);
}

TEST(TransientSim, PartitionedPoolWeightsComeFromPortfolio) {
  const auto records = small_trace(300, 11);
  auto config = market_config(records, tn::RevocationModel::Poisson, 0.3);
  config.partitioned = true;
  sc::TraceDrivenSimulator simulator(records, config);
  const auto metrics = simulator.run();
  // Smoke: partitioned + portfolio runs end-to-end and still trades.
  EXPECT_GT(metrics.vm_count, 0U);
  EXPECT_GT(metrics.transient_server_share, 0.0);
}
