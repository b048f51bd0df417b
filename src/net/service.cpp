#include "net/service.hpp"

namespace deflate::net {

ServiceCore::ServiceCore(const ServiceConfig& config)
    : config_(config), admission_(config.admission) {
  admission_.policy = config_.admission_policy;
  // Every name resolves up front, the shard selector too although a
  // one-shard fleet never routes.
  admission_entry_ =
      &cluster::AdmissionRegistry::instance().resolve(admission_.policy);
  cluster::ShardSelectionRegistry::instance().resolve(config_.shard_policy);

  if (config_.price_trace_hours > 0) {
    transient::SpotPriceConfig spot = config_.spot;
    spot.on_demand_price = config_.on_demand_price;
    traces_.push_back(
        transient::SpotPriceModel(spot, config_.price_seed)
            .generate(sim::SimTime::from_hours(config_.price_trace_hours)));
  }
  std::vector<const transient::PriceTrace*> trace_ptrs;
  for (const auto& trace : traces_) trace_ptrs.push_back(&trace);
  feed_ = cluster::PriceFeed(std::move(trace_ptrs), config_.on_demand_price);

  cluster::ShardedClusterConfig fleet;
  fleet.cluster.server_count = config_.server_count;
  fleet.cluster.placement = config_.placement_policy;
  fleet.shard_count = config_.shard_count;
  fleet.selection = config_.shard_policy;
  fleet.routing_seed = config_.routing_seed;
  manager_ = cluster::make_cluster_manager(fleet);
}

std::unique_ptr<cluster::AdmissionController> ServiceCore::make_controller() {
  return admission_entry_->make(admission_, *manager_, feed_);
}

sim::SimTime ServiceCore::advance_clock(sim::SimTime arrival) noexcept {
  if (arrival > clock_) clock_ = arrival;
  return clock_;
}

}  // namespace deflate::net
