// Admission-policy scenario: the Admission API v2 economics, end to end.
//
// One trace, one tight fleet riding a price-crossing spot market whose
// crunch spikes peak above the on-demand rate, three admission policies
// (src/cluster/admission.hpp):
//
//   * admit-all — the legacy contract: every VM placed on arrival;
//   * price     — deflatable launches deferred while the spot quote
//                 exceeds the class ceiling (the fleet is shrunken during
//                 exactly those windows — price-crossing revocations and
//                 unaffordable prices are the same event);
//   * bid-opt   — per-class bid optimization (src/transient/bidding.hpp)
//                 replaces the hand-set market bid and supplies the
//                 admission ceilings.
//
// The gated comparison runs the *preemption* reclamation baseline —
// classic transient servers, the setting of Sharma et al.
// (arXiv:1704.08738 §5): a VM launched into a revocation window simply
// dies there, so deferring the launch saves its whole remaining demand.
// The same policies are also reported under deflation (informational):
// deflation absorbs revocations so gracefully that the admission layer
// has far less to save — which is the paper's thesis, visible here as the
// gap between the two modes' admit-all rows. The capacity mix is held
// fixed (25% on-demand) for these rows because the mean-variance
// portfolio is a *substitute* for admission control — it would flee the
// risky market into on-demand before admission had anything to do — the
// same isolation trick bench/scenario_multimarket uses.
//
// The comparison metric is the *effective* fleet cost: the billed fleet
// (CostReport::total_cost, which already folds in admission-caused
// unserved demand) plus the demand the fleet failed to serve for
// non-admission reasons — capacity rejections and revocation kills —
// billed at the on-demand rate, as if replacement capacity had to be
// bought for the turned-away customers. Without that term a policy could
// "save" money by simply dropping work.
//
// Gates (exit 1 on regression; CI runs this binary at full scale). The
// margins are statistical: they hold from DEFLATE_BENCH_SCALE=0.1 up
// through full scale; a 0.05 smoke run is below the gates' noise floor.
//   1. under preemption, price and bid-opt both beat admit-all on
//      effective cost, at equal or better served throughput for
//      on-demand-class VMs (class 0 is never deferred, so price-aware
//      admission can only help it);
//   2. on the PR-3 three-market portfolio scenario (deflation mode), the
//      bid optimizer does not underperform the hand-set static bids
//      (effective cost within 0.5%).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cluster_bench.hpp"
#include "transient/revocation.hpp"

namespace {

using namespace deflate;

double effective_cost(const simcluster::SimMetrics& m, double od_rate) {
  return m.cost.total_cost() + m.unserved_core_hours * od_rate;
}

}  // namespace

int main() {
  bench::print_header(
      "Scenario: price-aware admission and per-class bid optimization",
      "deferring deflatable launches while the spot price is high — and "
      "bidding per class instead of by hand — is where much of the "
      "transient cost saving lives (Sharma et al., arXiv:1704.08738 §5)");

  const auto records = bench::cluster_trace();
  auto base = bench::base_sim_config();
  // A tight fleet: 25% below the demand peak, so the price-crossing
  // revocation windows (spot above the bid) genuinely hurt — arrivals
  // admitted into them land on a shrunken fleet.
  base.server_count = simcluster::TraceDrivenSimulator::servers_for_overcommit(
      records, base.server_capacity, -0.25);
  base.market_enabled = true;
  base.market.seed = 7;
  base.market.price.volatility = 0.08;
  // Crunch spikes peak above the on-demand rate (8x the long-run mean), so
  // holding through them is genuinely expensive and every spike opens a
  // revocation window.
  base.market.price.shock_multiplier = 8.0;
  base.market.price.shock_rate_per_hour = 1.0 / 18.0;
  base.market.revocation.model = "price";
  base.market.revocation.bid = 0.5;
  base.market.portfolio.on_demand_floor = 0.2;
  // Fixed 25% on-demand split for the policy comparison (see header).
  base.market.use_portfolio = false;
  base.market.on_demand_share = 0.25;
  const double od_rate = base.market.price.on_demand_price;
  std::cout << "trace: " << records.size() << " VMs, fleet "
            << base.server_count
            << " servers; price-crossing revocations, hand-set bid "
            << base.market.revocation.bid << ", fixed 25% on-demand split\n\n";

  const auto with_policy = [&](simcluster::SimConfig config,
                               cluster::ReclamationMode mode,
                               const std::string& policy) {
    config.mode = mode;
    config.admission.policy = policy;
    config.admission.default_ceiling = config.market.revocation.bid;
    config.admission.max_defer_hours = 12.0;
    if (policy == "bid-opt") config.market.optimize_bids = true;
    return config;
  };

  const std::string policies[] = {"admit-all", "price", "bid-opt"};

  std::vector<bench::SweepCase> cases;
  for (const std::string& policy : policies) {  // gated: preemption baseline
    cases.push_back(
        {0.0, with_policy(base, cluster::ReclamationMode::Preemption, policy),
         {}});
  }
  for (const std::string& policy : policies) {  // informational: deflation
    cases.push_back(
        {0.0, with_policy(base, cluster::ReclamationMode::Deflation, policy),
         {}});
  }

  // Gate 2: the PR-3 three-market portfolio scenario (deflation mode,
  // portfolio-driven split as in bench/scenario_multimarket), hand-set
  // static bids vs the optimizer.
  auto multi_static = base;
  multi_static.market.use_portfolio = true;
  multi_static.market.replicate_markets(3, 0.35);
  auto multi_opt = multi_static;
  multi_opt.market.optimize_bids = true;
  cases.push_back({0.0, multi_static, {}});
  cases.push_back({0.0, multi_opt, {}});

  bench::run_sweep(records, cases);

  const char* labels[] = {
      "preemption/admit-all", "preemption/price",   "preemption/bid-opt",
      "deflation/admit-all",  "deflation/price",    "deflation/bid-opt",
      "3-market static bids", "3-market bid-opt",
  };
  util::Table table({"mode/policy", "deferrals", "expired", "preempt",
                     "od_served_ch", "tput_loss_%", "fleet_cost",
                     "unserved_ch", "effective_cost"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& m = cases[i].metrics;
    table.add_row({labels[i], std::to_string(m.admission_deferrals),
                   std::to_string(m.admission_expired),
                   std::to_string(m.preemptions),
                   util::format_double(m.revenue.od_committed_core_hours, 0),
                   util::format_double(100 * m.throughput_loss, 3),
                   util::format_double(m.cost.total_cost(), 0),
                   util::format_double(m.unserved_core_hours, 0),
                   util::format_double(effective_cost(m, od_rate), 0)});
  }
  table.print(std::cout);

  const auto& all = cases[0].metrics;     // preemption/admit-all
  const auto& thresh = cases[1].metrics;  // preemption/price
  const auto& opt = cases[2].metrics;     // preemption/bid-opt
  const auto& mstatic = cases[6].metrics;
  const auto& mopt = cases[7].metrics;

  const double all_cost = effective_cost(all, od_rate);
  const bool price_ok =
      effective_cost(thresh, od_rate) < all_cost &&
      thresh.revenue.od_committed_core_hours >=
          all.revenue.od_committed_core_hours;
  const bool bid_ok =
      effective_cost(opt, od_rate) < all_cost &&
      opt.revenue.od_committed_core_hours >=
          all.revenue.od_committed_core_hours;
  const bool multi_ok = effective_cost(mopt, od_rate) <=
                        1.005 * effective_cost(mstatic, od_rate);

  std::cout << "\npreemption price-threshold vs admit-all: "
            << (price_ok ? "cheaper at >= on-demand served throughput"
                         : "NO ADVANTAGE — REGRESSION")
            << "\npreemption bid-optimized vs admit-all: "
            << (bid_ok ? "cheaper at >= on-demand served throughput"
                       : "NO ADVANTAGE — REGRESSION")
            << "\n3-market bid-opt vs hand-set static bids: "
            << (multi_ok ? "no worse (within 0.5%)"
                         : "UNDERPERFORMS — REGRESSION")
            << "\n";
  bench::print_profile();
  return price_ok && bid_ok && multi_ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
