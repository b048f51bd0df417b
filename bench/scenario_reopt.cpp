// Rolling re-optimization scenario: the online control plane
// (src/control/) against a mid-run regime shift.
//
// The one-shot pipeline decides everything economic at t=0 — portfolio
// weights, bids, revocation expectations — from the *planned* market
// statistics. This scenario changes the world mid-run: at ~40% of the
// horizon, market spot-0 turns hostile (a sustained price climb plus a
// revocation storm, ~6x the planned rate) while the other two zones stay
// calm, and the cross-zone correlation the plan priced in weakens. Both
// runs below face exactly that environment (the shift is applied whether
// or not the controller is on — RegimeShiftConfig's contract):
//
//   static  the t=0 plan rides the storm out: servers stay on the now
//           expensive, now stormy market until the horizon;
//   reopt   a FleetController on a 6h window with the `windowed` forecast
//           observes the realized rates/prices, re-runs the portfolio +
//           bid optimization and drains servers off the hostile market at
//           a bounded rate (max 6 moves per window).
//
// The comparison metric is the effective fleet cost of
// bench/scenario_admission: the billed fleet (segment-aware when the
// controller moved servers) plus unserved demand priced at the on-demand
// rate, so a controller cannot "win" by dropping work.
//
// Gates (exit 1 on regression; the margins hold from
// DEFLATE_BENCH_SCALE=0.1 through full scale):
//   1. rolling re-optimization beats the static t=0 plan on effective
//      cost;
//   2. at no worse served throughput (total served core-hours — on-demand
//      committed + deflatable allocated — within 0.2%);
//   3. the win is real: the controller actually re-optimized and moved
//      servers (no vacuous pass where both runs are identical).
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

// End-to-end served work in core-hours: on-demand committed plus
// deflatable *allocated* (so deflation squeeze, revocation kills,
// rejections and migration-paused windows all subtract from one
// number). `throughput_loss` alone is only the deflation-induced slice
// as a fraction of usage — a run that serves strictly more demand can
// still show a higher loss fraction, so the gate compares this instead.
double served_core_hours(const simcluster::SimMetrics& m) {
  return m.revenue.od_committed_core_hours +
         m.revenue.df_allocated_core_hours;
}

}  // namespace

int main() {
  bench::print_header(
      "Scenario: rolling re-optimization under a regime shift",
      "a t=0 portfolio cannot see a mid-run revocation storm; an online "
      "control loop that re-estimates rates/prices/correlation each window "
      "and drains servers off the hostile market recovers the loss");

  const auto records = bench::cluster_trace();
  auto base = bench::base_sim_config();
  base.server_count = simcluster::TraceDrivenSimulator::servers_for_overcommit(
      records, base.server_capacity, -0.2);
  base.market_enabled = true;
  base.market.seed = 11;
  base.market.revocation.model = "poisson";
  base.market.revocation.poisson_rate_per_hour = 1.0 / 12.0;
  base.market.portfolio.on_demand_floor = 0.2;
  base.market.replicate_markets(3, 0.45);
  const double od_rate = base.market.price.on_demand_price;

  // The shift: from 28h on (72h horizon), market spot-0's long-run price
  // nearly triples and its revocation rate jumps to one every two hours;
  // spot-1/2 keep the planned regime. Correlation across zones weakens,
  // so the diversification the plan priced in is now understated — a
  // re-optimizer should *increase* transient exposure on the calm zones
  // while fleeing spot-0. The after-config must keep the market count,
  // price step and on-demand rate (apply_regime_shift's compatibility
  // contract); everything else may change.
  control::RegimeShiftConfig shift;
  shift.at_hours = 28.0;
  shift.after = base.market;
  shift.after.seed = 4242;
  shift.after.markets[0].price.mean_price = 0.7;
  shift.after.markets[0].price.shock_rate_per_hour = 1.0 / 8.0;
  shift.after.markets[0].revocation.poisson_rate_per_hour = 1.0 / 2.0;
  shift.after.correlation =
      transient::CorrelatedPriceModel::uniform_correlation(3, 0.15);

  auto static_config = base;  // t=0 plan rides the storm out
  static_config.control.regime_shift = shift;

  auto reopt_config = static_config;  // same world, live controller
  reopt_config.control.enabled = true;
  reopt_config.control.reopt_hours = 6.0;
  reopt_config.control.max_moves_per_window = 6;
  reopt_config.control.forecast = "windowed";

  std::cout << "trace: " << records.size() << " VMs, fleet "
            << base.server_count << " servers, 3 zones rho=0.45; regime "
            << "shift at 28h: spot-0 mean price 0.25 -> 0.7, revocation "
            << "rate 1/12h -> 1/2h, rho -> 0.15\n\n";

  std::vector<bench::SweepCase> cases;
  cases.push_back({0.0, static_config, {}});
  cases.push_back({0.0, reopt_config, {}});
  bench::run_sweep(records, cases);

  const auto& stat = cases[0].metrics;
  const auto& reopt = cases[1].metrics;

  const char* labels[] = {"static t=0 plan", "reopt 6h windowed"};
  util::Table table({"plan", "reopts", "moves", "revocations", "migrations",
                     "kills", "served_ch", "fleet_cost", "unserved_ch",
                     "effective_cost"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& m = cases[i].metrics;
    table.add_row({labels[i], std::to_string(m.control_reopts),
                   std::to_string(m.control_moves),
                   std::to_string(m.revocations),
                   std::to_string(m.revocation_migrations),
                   std::to_string(m.revocation_kills),
                   util::format_double(served_core_hours(m), 0),
                   util::format_double(m.cost.total_cost(), 0),
                   util::format_double(m.unserved_core_hours, 0),
                   util::format_double(effective_cost(m, od_rate), 0)});
  }
  table.print(std::cout);

  const double static_cost = effective_cost(stat, od_rate);
  const double reopt_cost = effective_cost(reopt, od_rate);
  const bool cheaper = reopt_cost < static_cost;
  // "No worse served throughput": total served core-hours within 0.2% of
  // the static plan — moves drain through migration, which pauses a
  // little work that the cost gate must more than pay for.
  const double static_served = served_core_hours(stat);
  const double reopt_served = served_core_hours(reopt);
  const bool throughput_ok = reopt_served >= static_served * (1.0 - 0.002);
  const bool moved = reopt.control_reopts > 0 && reopt.control_moves > 0;

  std::cout << "\nreopt vs static effective cost: "
            << util::format_double(reopt_cost, 0) << " vs "
            << util::format_double(static_cost, 0) << " ("
            << util::format_double(
                   100.0 * (static_cost - reopt_cost) / static_cost, 2)
            << "% saved) — "
            << (cheaper ? "re-optimization wins" : "NO ADVANTAGE — REGRESSION")
            << "\nserved core-hours: "
            << util::format_double(reopt_served, 0) << " vs "
            << util::format_double(static_served, 0) << " — "
            << (throughput_ok ? "within 0.2% of the static plan"
                              : "DEGRADED — REGRESSION")
            << "\ncontroller activity: "
            << (moved ? "re-optimized and moved servers"
                      : "NO MOVES — VACUOUS RUN, REGRESSION")
            << "\n";
  bench::print_profile();
  return cheaper && throughput_ok && moved ? EXIT_SUCCESS : EXIT_FAILURE;
}
