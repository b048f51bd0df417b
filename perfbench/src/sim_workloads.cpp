// The two simulator workloads: replay_megafleet (streaming arrivals through
// admit-all, 8-shard placement and the spot market) and overcommit_pressure
// (a 72 h record-vector trace on a flat fleet at 50% overcommitment, with a
// three-market portfolio, a regime shift, the live controller and timed
// migration).
//
// Untraced, a run repeats set-up and replay until --seconds have passed and
// reports medians. Traced, it alternates untraced and traced replays: the
// traced one wraps the arrival stream in a timing decorator and reads the
// library's DEFLATE_PROFILE_SCOPE phases, so the simulator's wall time can
// be split by layer. Every replay's simulated digest must be bit-identical,
// which proves the tracing changes no decision.
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "simcluster/cluster_sim.hpp"
#include "trace/replay.hpp"

namespace perfbench {
namespace {

using namespace deflate;

const res::ResourceVector kServerCapacity{48.0, 128.0 * 1024.0, 1e9, 1e9};

/// Everything a replay needs, rebuilt by each timed set-up.
struct SimInputs {
  std::vector<trace::VmRecord> records;            ///< record-vector mode
  std::unique_ptr<trace::VmArrivalStream> stream;  ///< streaming mode
  simcluster::SimConfig config;
  std::size_t offered = 0;
};
/// A workload's set-up: generates its inputs from the seed.
using MakeInputs = SimInputs (*)(std::uint64_t seed);

// --- workload definitions -----------------------------------------------------

SimInputs megafleet_inputs(std::uint64_t seed) {
  SimInputs in;
  trace::ReplayConfig replay;
  replay.azure.vm_count = 60000;
  replay.azure.seed = seed;
  replay.azure.duration = sim::SimTime::from_hours(24);
  replay.window = 1024;
  replay.worker_threads = 1;
  in.stream = trace::make_arrival_stream(replay);
  in.offered = in.stream->size();

  simcluster::SimConfig& config = in.config;
  config.server_capacity = kServerCapacity;
  // 20% headroom: capacity is 1.25x the trace's committed peak.
  config.server_count =
      trace::servers_for_overcommit(*in.stream, kServerCapacity, -0.2);
  config.shard_count = 8;
  config.shard_routing_seed = seed ^ 0x5eed;
  config.worker_threads = 1;  // pinned: DEFLATE_THREADS must not matter
  config.market_enabled = true;
  config.market.seed = seed + 7;
  config.market.revocation.model = transient::RevocationModel::Poisson;
  return in;
}

SimInputs overcommit_inputs(std::uint64_t seed) {
  SimInputs in;
  trace::AzureTraceConfig azure;
  azure.vm_count = 40000;
  azure.seed = seed;
  azure.duration = sim::SimTime::from_hours(72);
  // Generated serially (AzureTraceGenerator::generate would fan out over
  // the global pool): the same records, and a steadier set-up time.
  const trace::AzureTraceGenerator generator(azure);
  in.records.reserve(azure.vm_count);
  for (std::uint64_t id = 0; id < azure.vm_count; ++id) {
    in.records.push_back(generator.generate_vm(id));
  }
  in.offered = in.records.size();

  simcluster::SimConfig& config = in.config;
  config.server_capacity = kServerCapacity;
  config.server_count = simcluster::TraceDrivenSimulator::servers_for_overcommit(
      in.records, kServerCapacity, 0.5);
  config.shard_count = 1;
  config.worker_threads = 1;  // pinned: DEFLATE_THREADS must not matter

  // Three-zone portfolio with Poisson revocations announced two minutes
  // ahead; VMs stream off doomed servers over a 256 MiB/s link.
  config.market_enabled = true;
  config.market.seed = seed + 11;
  config.market.revocation.model = transient::RevocationModel::Poisson;
  config.market.revocation.poisson_rate_per_hour = 1.0 / 12.0;
  config.market.revocation.warning_hours = 120.0 / 3600.0;
  config.market.portfolio.on_demand_floor = 0.2;
  config.market.replicate_markets(3, 0.45);
  config.migration.model.bandwidth_mib_per_sec = 256.0;
  config.migration.model.dirty_mib_per_sec = 64.0;

  // Mid-run regime shift on zone 0, and the live controller that re-plans
  // every 6 h and pushes its bid-optimal ceilings into admission.
  control::RegimeShiftConfig shift;
  shift.at_hours = 28.0;
  shift.after = config.market;
  shift.after.seed = seed + 4242;
  shift.after.markets[0].price.mean_price = 0.7;
  shift.after.markets[0].price.shock_rate_per_hour = 1.0 / 8.0;
  shift.after.markets[0].revocation.poisson_rate_per_hour = 1.0 / 2.0;
  shift.after.correlation =
      transient::CorrelatedPriceModel::uniform_correlation(3, 0.15);
  config.control.regime_shift = shift;
  config.control.enabled = true;
  config.control.reopt_hours = 6.0;
  config.control.max_moves_per_window = 6;
  config.control.forecast = "windowed";
  config.admission.policy = cluster::AdmissionPolicyKind::BidOptimized;
  config.admission.max_defer_hours = 6.0;
  return in;
}

// --- replay machinery -----------------------------------------------------------

/// Every SimMetrics count plus the loss, deflation and cost doubles (as bit
/// patterns): two replays that decided alike have equal digests.
using Digest = std::vector<std::uint64_t>;

Digest digest_of(const simcluster::SimMetrics& m) {
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  return {m.reclamation_attempts,
          m.reclamation_failures,
          m.preemptions,
          m.rejections,
          m.revocations,
          m.revocation_migrations,
          m.revocation_kills,
          m.admission_deferrals,
          m.admission_retries,
          m.admission_expired,
          m.live_migrations,
          m.checkpoint_restores,
          m.checkpoint_kills,
          m.control_reopts,
          m.control_moves,
          m.vm_count,
          m.deflatable_count,
          bits(m.throughput_loss),
          bits(m.failure_probability),
          bits(m.mean_cpu_deflation),
          bits(m.unserved_core_hours),
          bits(m.migration_downtime_hours),
          bits(m.admission_delay_hours),
          bits(m.cost.total_cost())};
}

/// Timing decorator around the public arrival-stream interface.
class TimedStream final : public trace::VmArrivalStream {
 public:
  explicit TimedStream(trace::VmArrivalStream& inner) : inner_(inner) {}

  std::optional<trace::VmRecord> next() override {
    const auto start = Clock::now();
    std::optional<trace::VmRecord> record = inner_.next();
    nanos_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    ++calls_;
    return record;
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::size_t size() const noexcept override {
    return inner_.size();
  }
  [[nodiscard]] sim::SimTime horizon() const noexcept override {
    return inner_.horizon();
  }
  [[nodiscard]] res::ResourceVector peak_committed() const noexcept override {
    return inner_.peak_committed();
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(nanos_) * 1e-9;
  }

 private:
  trace::VmArrivalStream& inner_;
  std::uint64_t calls_ = 0;
  std::uint64_t nanos_ = 0;
};

struct Replay {
  double seconds = 0.0;  ///< simulator construction + run()
  simcluster::SimMetrics metrics;
  std::size_t peak_active = 0;
  // traced replays only
  std::uint64_t next_calls = 0;
  double next_seconds = 0.0;
};

/// One full replay of the inputs; `traced` wraps the stream in the timing
/// decorator.
Replay replay_once(SimInputs& in, bool traced) {
  Replay replay;
  if (in.stream != nullptr) {
    in.stream->reset();
    TimedStream timed(*in.stream);
    trace::VmArrivalStream& source =
        traced ? static_cast<trace::VmArrivalStream&>(timed) : *in.stream;
    const auto start = Clock::now();
    simcluster::TraceDrivenSimulator simulator(source, in.config);
    replay.metrics = simulator.run();
    replay.seconds = seconds_since(start);
    replay.peak_active = simulator.peak_active_records();
    replay.next_calls = timed.calls();
    replay.next_seconds = timed.seconds();
  } else {
    std::vector<trace::VmRecord> records = in.records;  // the sim takes them
    const auto start = Clock::now();
    simcluster::TraceDrivenSimulator simulator(std::move(records), in.config);
    replay.metrics = simulator.run();
    replay.seconds = seconds_since(start);
  }
  return replay;
}

/// One set-up sample; leaves fresh inputs in `in`. Each replay cycle sets
/// up anew, so the samples spread over the run as the replays do.
double set_up(MakeInputs make, std::uint64_t seed, SimInputs& in) {
  return setup_sample([&] {
    in = SimInputs{};  // release the previous inputs before timing the next
    const auto start = Clock::now();
    in = make(seed);
    return seconds_since(start);
  });
}

/// Replay cycles continue until --seconds have passed and there are
/// kSetupSamples set-up samples.
bool more_cycles(Clock::time_point start, const Options& options,
                 std::size_t cycles) {
  return seconds_since(start) < options.seconds ||
         cycles < static_cast<std::size_t>(kSetupSamples);
}

/// Output checks shared by every replay; counts the replay's operations.
void check_replay(const SimInputs& in, const Replay& replay,
                  const Digest& reference, Outcome& outcome) {
  const simcluster::SimMetrics& m = replay.metrics;
  const bool offered_ok = m.vm_count == in.offered;
  const bool digest_ok = digest_of(m) == reference;
  outcome.check(offered_ok, "vm_count equals the arrivals offered");
  outcome.check(m.reclamation_failures <= m.reclamation_attempts,
                "reclamation failures never exceed attempts");
  outcome.check(digest_ok, "simulated digest bit-identical across replays");
  outcome.attempted += in.offered;
  if (!offered_ok || !digest_ok) outcome.failed += in.offered;
}

// --- untraced: end-to-end metrics ---------------------------------------------------

void end_to_end(const std::string& name, MakeInputs make,
                const Options& options, Outcome& outcome) {
  SimInputs in;
  std::vector<double> setup_times;
  std::vector<Replay> replays;
  Digest reference;
  const auto start = Clock::now();
  do {
    setup_times.push_back(set_up(make, options.seed, in));
    replays.push_back(replay_once(in, /*traced=*/false));
    if (replays.size() == 1) reference = digest_of(replays.front().metrics);
    check_replay(in, replays.back(), reference, outcome);
  } while (more_cycles(start, options, replays.size()));
  const double setup_s = median(setup_times);

  std::vector<double> replay_s;
  for (const Replay& r : replays) replay_s.push_back(r.seconds);
  const simcluster::SimMetrics& m = replays.front().metrics;
  const double vms_per_s = static_cast<double>(in.offered) / median(replay_s);
  const double failed_share = static_cast<double>(outcome.failed) /
                              static_cast<double>(outcome.attempted);

  report(name + ": " + std::to_string(in.offered) + " VMs offered to " +
         std::to_string(in.config.server_count) + " servers (" +
         std::to_string(in.config.shard_count) + " shard(s)), " +
         std::to_string(replays.size()) + " replays, median " +
         fixed(median(replay_s), 3) + " s");
  report("  vms_per_s               " + fixed(vms_per_s, 1) + " 1/s");
  report("  setup_s                 " + fixed(setup_s, 4) + " s");
  report("  peak_rss_mib            " + fixed(peak_rss_mib(), 1) + " MiB");
  report("  throughput_loss_pct     " + fixed(100.0 * m.throughput_loss, 6) +
         " %");
  report("  reclamation_failure_pct " +
         fixed(100.0 * m.failure_probability, 6) + " %");
  report("  fleet_cost              " + fixed(m.cost.total_cost(), 3) +
         " core-h");
  report("  failed_ops_share        " + fixed(failed_share, 6));

  outcome.metric("vms_per_s", vms_per_s, "1/s");
  outcome.metric("setup_s", setup_s, "s");
  outcome.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

// --- traced: per-layer metrics ----------------------------------------------------------

/// Layers only daemon_price exercises: reported as 0 by the sims.
const Metric kDaemonLayers[] = {
    {"admission.decide_us", 0.0, "us"},
    {"admission.drain_us", 0.0, "us"},
    {"admission.queue_depth", 0.0, "count"},
    {"admission.retries_per_resolution", 0.0, "ratio"},
    {"admission.drain_us.q1", 0.0, "us"},
    {"admission.queue_depth.q1", 0.0, "count"},
    {"admission.drain_us.q2", 0.0, "us"},
    {"admission.queue_depth.q2", 0.0, "count"},
    {"admission.drain_us.q3", 0.0, "us"},
    {"admission.queue_depth.q3", 0.0, "count"},
    {"admission.drain_us.q4", 0.0, "us"},
    {"admission.queue_depth.q4", 0.0, "count"},
    {"codec.encode_ns", 0.0, "ns"},
    {"codec.decode_ns", 0.0, "ns"},
    {"net.flush_rtt_us", 0.0, "us"},
    {"net.transport_share", 0.0, "ratio"},
    {"openloop.decision_p50_us", 0.0, "us"},
    {"openloop.decision_p99_us", 0.0, "us"},
    {"openloop.samples", 0.0, "count"},
    {"openloop.lag_p50_us", 0.0, "us"},
    {"openloop.lag_p99_us", 0.0, "us"},
};

void per_layer(const std::string& name, MakeInputs make,
               const Options& options, Outcome& outcome) {
  // Alternate untraced and traced replays until the time is up: the
  // medians give the tracing overhead, the last traced replay the layer
  // split.
  SimInputs in;
  std::vector<double> setup_times;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  Replay traced;
  Phases phases;
  Digest reference;
  const auto start = Clock::now();
  do {
    setup_times.push_back(set_up(make, options.seed, in));
    const Replay plain = replay_once(in, /*traced=*/false);
    if (reference.empty()) reference = digest_of(plain.metrics);
    check_replay(in, plain, reference, outcome);
    untraced_s.push_back(plain.seconds);

    util::Profiler::instance().reset();
    traced = replay_once(in, /*traced=*/true);
    phases = read_phases();
    check_replay(in, traced, reference, outcome);
    traced_s.push_back(traced.seconds);
  } while (more_cycles(start, options, traced_s.size()));
  const double setup_s = median(setup_times);
  outcome.check(digest_of(traced.metrics) == reference,
                "traced replay decides exactly like the untraced one");

  const bool sharded = in.config.shard_count > 1;
  const double wall = traced.seconds;
  const double place_s = phases.cluster_place.seconds;
  const double route_s =
      sharded ? phases.sharded_place.seconds - phases.cluster_place.seconds
              : 0.0;
  // Top-level layer time. Sharded: stream + routed placement + shard
  // flushes, which are disjoint (cluster.flush_views runs inside both
  // sharded scopes). Flat: placement + revocations. cluster.flush_views is
  // left out, as place_vm flushes inside cluster.place; the simulator's
  // own flushes at tick boundaries stay unattributed. A revocation's
  // re-placements run inside cluster.revoke and are also counted in
  // cluster.place: the one overlap left in the flat sum.
  const double attributed =
      sharded ? traced.next_seconds + phases.sharded_place.seconds +
                    phases.sharded_flush.seconds
              : traced.next_seconds + place_s + phases.cluster_revoke.seconds;
  const double unattributed = wall - attributed;
  outcome.check(attributed <= wall,
                "layer times add up to no more than the simulator's wall time");
  const double overhead_pct =
      100.0 * (median(traced_s) / median(untraced_s) - 1.0);
  const double ns_per_server =
      phases.cluster_place.calls == 0
          ? 0.0
          : 1e9 * place_s / static_cast<double>(phases.cluster_place.calls) /
                static_cast<double>(sharded ? in.config.server_count /
                                                  in.config.shard_count
                                            : in.config.server_count);
  const simcluster::SimMetrics& m = traced.metrics;

  report(name + " traced: " + std::to_string(untraced_s.size()) +
         " untraced + " + std::to_string(traced_s.size()) +
         " traced replays, setup " + fixed(setup_s, 3) + " s");
  report("  simulator wall " + fixed(wall, 4) + " s = trace.next " +
         fixed(traced.next_seconds, 4) +
         (sharded ? " + sharded.route " + fixed(route_s, 4) +
                        " + cluster.place " + fixed(place_s, 4) +
                        " + sharded.flush_views " +
                        fixed(phases.sharded_flush.seconds, 4)
                  : " + cluster.place " + fixed(place_s, 4) +
                        " + cluster.revoke " +
                        fixed(phases.cluster_revoke.seconds, 4)) +
         " + unattributed " + fixed(unattributed, 4) +
         " s; cluster.flush_views " + fixed(phases.cluster_flush.seconds, 4) +
         " s runs inside these terms, not as one of its own");
  report("  attributed share " + fixed(attributed / wall, 4) +
         "; tracing overhead " + fixed(overhead_pct, 2) +
         "% (median traced vs untraced replay)");

  outcome.metric("trace.next_calls", static_cast<double>(traced.next_calls),
                 "count");
  outcome.metric("trace.next_s", traced.next_seconds, "s");
  outcome.metric("trace.peak_active_records",
                 static_cast<double>(traced.peak_active), "count");
  outcome.metric("cluster.place_calls",
                 static_cast<double>(phases.cluster_place.calls), "count");
  outcome.metric("cluster.place_s", place_s, "s");
  outcome.metric("cluster.place_ns_per_server", ns_per_server, "ns");
  outcome.metric("cluster.flush_views_s", phases.cluster_flush.seconds, "s");
  outcome.metric("cluster.revoke_s", phases.cluster_revoke.seconds, "s");
  outcome.metric("sharded.route_s", route_s, "s");
  outcome.metric("sharded.flush_views_calls",
                 static_cast<double>(phases.sharded_flush.calls), "count");
  outcome.metric("sharded.flush_views_s", phases.sharded_flush.seconds, "s");
  outcome.metric("sim.wall_s", wall, "s");
  outcome.metric("sim.unattributed_s", unattributed, "s");
  outcome.metric("sim.attributed_share", attributed / wall, "ratio");
  outcome.metric("sim.tracing_overhead_pct", overhead_pct, "%");
  outcome.metric("sim.reclamation_attempts",
                 static_cast<double>(m.reclamation_attempts), "count");
  outcome.metric("sim.revocations", static_cast<double>(m.revocations),
                 "count");
  outcome.metric("sim.live_migrations",
                 static_cast<double>(m.live_migrations), "count");
  outcome.metric("sim.checkpoint_restores",
                 static_cast<double>(m.checkpoint_restores), "count");
  outcome.metric("sim.control_reopts", static_cast<double>(m.control_reopts),
                 "count");
  outcome.metric("sim.admission_deferrals",
                 static_cast<double>(m.admission_deferrals), "count");
  outcome.metric("sim.throughput_loss_pct", 100.0 * m.throughput_loss, "%");
  outcome.metric("sim.reclamation_failure_pct",
                 100.0 * m.failure_probability, "%");
  outcome.metric("sim.fleet_cost", m.cost.total_cost(), "core-h");
  for (const Metric& metric : kDaemonLayers) {
    outcome.metric(metric.name, metric.value, metric.unit);
  }
}

Outcome run_sim(const std::string& name, MakeInputs make,
                const Options& options) {
  Outcome outcome;
  if (options.trace) {
    per_layer(name, make, options, outcome);
  } else {
    end_to_end(name, make, options, outcome);
  }
  return outcome;
}

}  // namespace

Outcome run_replay_megafleet(const Options& options) {
  return run_sim("replay_megafleet", megafleet_inputs, options);
}

Outcome run_overcommit_pressure(const Options& options) {
  return run_sim("overcommit_pressure", overcommit_inputs, options);
}

}  // namespace perfbench
