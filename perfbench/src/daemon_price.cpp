// The daemon_price workload: an in-process deflated server on loopback
// under `price` admission with a spot trace, driven by two client
// connections. Most requests are on-demand; a minority are deflatable and
// their simulated arrivals are spread over hours, so once the small fleet
// has filled (during warm-up) the steady state is capacity rejections plus
// deferral and retry churn.
//
// A run has two timed phases after the warm-up:
//   1. open loop: each connection sends one request per round trip at a
//      fixed schedule (the --open-rate split across the connections); a
//      request's latency runs from when it was due, so a stall also
//      charges the requests queued behind it;
//   2. closed loop: each connection submits batches and flushes them.
// A final far-future request per connection resolves every deferral still
// queued, so every request ends with exactly one final decision.
//
// Traced, the same session runs with a capture file, and the layers are
// timed from outside: client flush round trips, an in-process pass of the
// request sequence through net::ServiceCore (admission decide/drain and
// queue depth per quarter), the codec on the workload's frames, and an
// in-process net::replay_capture of the live session.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "net/capture.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace deflate;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kServers = 16;
/// Warm-up batch size.
constexpr std::size_t kBatch = 256;
/// Closed-loop batch size: large enough that a flush's two thread
/// wake-ups are a small part of its cost.
constexpr std::size_t kClosedBatch = 512;
/// Warm-up requests per connection: fills the fleet, then runs the
/// deferral queue through more than one full deferral window.
constexpr std::size_t kWarmup = 4096;
/// Closed-loop requests (both connections together) per --seconds of run
/// length.
constexpr double kClosedPerSecond = 30000.0;
/// Simulated time between consecutive requests of the global sequence.
constexpr double kSpacingSeconds = 10.0;
constexpr double kMaxDeferHours = 2.0;
/// Longest sequence one connection may send; bounds the price trace.
constexpr std::size_t kMaxPerConnection = 1500000;

/// Request g of the global sequence; connection c sends g = 2i + c.
cluster::AdmissionRequest make_request(std::uint64_t seed, std::uint64_t g) {
  util::Rng rng = util::Rng::keyed(seed, g);
  hv::VmSpec spec;
  spec.id = g + 1;
  spec.vcpus = 1 << static_cast<int>(rng.uniform_int(0, 3));  // 1..8
  spec.memory_mib = 2048.0 * spec.vcpus;
  spec.deflatable = rng.bernoulli(0.25);
  spec.priority = spec.deflatable ? rng.uniform(0.1, 0.9) : 1.0;
  spec.min_fraction = spec.deflatable ? 0.5 : 0.0;
  return cluster::AdmissionRequest::from_spec(
      spec, sim::SimTime::from_seconds(kSpacingSeconds * static_cast<double>(g)));
}

net::ServiceConfig service_config(std::uint64_t seed,
                                  const std::string& capture_path = "") {
  net::ServiceConfig config;
  config.worker_threads = kConnections;
  config.server_count = kServers;
  config.shard_count = 1;
  config.admission_policy = "price";
  config.admission.default_ceiling = 0.3;
  config.admission.max_defer_hours = kMaxDeferHours;
  config.price_trace_hours =
      kSpacingSeconds * kConnections * kMaxPerConnection / 3600.0 + 24.0;
  config.price_seed = seed + 3;
  config.capture_path = capture_path;
  return config;
}

/// One client connection and what it sent.
struct Connection {
  std::size_t index = 0;
  std::optional<net::Client> client;
  std::size_t sent = 0;     ///< requests submitted (its sequence position)
  std::size_t flushed = 0;  ///< requests sent in completed flushes
  /// By client request id: answered with a final decision at once, so any
  /// later deferral resolution for it is stray.
  std::vector<bool> direct_final;

  /// Flushes the batch, then marks its requests answered finally at once.
  /// A request whose final decision came as a resolution within the same
  /// flush was first answered Deferred, and is not marked.
  [[nodiscard]] bool flush() {
    if (!client->flush()) return false;
    direct_final.resize(sent + 1, false);
    const auto& resolved = client->resolved_deferrals();
    auto later = resolved.lower_bound(flushed + 1);
    for (auto it = client->decisions().lower_bound(flushed + 1);
         it != client->decisions().end(); ++it) {
      while (later != resolved.end() && later->first < it->first) ++later;
      const bool resolved_now =
          later != resolved.end() && later->first == it->first;
      direct_final[it->first] =
          !resolved_now &&
          it->second.status != cluster::AdmissionDecision::Status::Deferred;
    }
    flushed = sent;
    return true;
  }

  /// True when a further batch (plus the final request) would overrun
  /// the sequence; the client threads stop there instead of throwing.
  [[nodiscard]] bool exhausted() const noexcept {
    return sent + kClosedBatch + 1 >= kMaxPerConnection;
  }

  [[nodiscard]] cluster::AdmissionRequest next_request(std::uint64_t seed) {
    if (sent >= kMaxPerConnection) {
      throw std::runtime_error("daemon_price request sequence exhausted");
    }
    return make_request(seed, kConnections * sent++ + index);
  }
};

/// A server plus its connections, warmed up to steady state.
struct Session {
  std::unique_ptr<net::Server> server;
  std::vector<Connection> connections;
};

bool send_batched(Connection& connection, std::uint64_t seed,
                  std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    connection.client->submit(connection.next_request(seed));
    if ((i + 1) % kBatch == 0 && !connection.flush()) return false;
  }
  return connection.flush();
}

Session start_session(std::uint64_t seed, const std::string& capture_path) {
  Session session;
  session.server =
      std::make_unique<net::Server>(service_config(seed, capture_path));
  if (!session.server->start()) {
    throw std::runtime_error("cannot start the deflated server");
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    Connection connection;
    connection.index = c;
    connection.client = net::Client::connect(session.server->port());
    if (!connection.client.has_value()) {
      throw std::runtime_error("client cannot connect");
    }
    session.connections.push_back(std::move(connection));
  }
  // Warm-up, interleaved by batch so both connections' arrivals advance
  // the shared service clock together.
  for (std::size_t done = 0; done < kWarmup; done += kBatch) {
    for (Connection& connection : session.connections) {
      if (!send_batched(connection, seed, std::min(kBatch, kWarmup - done))) {
        throw std::runtime_error("warm-up flush failed");
      }
    }
  }
  return session;
}

// --- timed phases ------------------------------------------------------------

struct OpenLoop {
  std::vector<double> latency_us;  ///< reply time - due time
  std::vector<double> lag_us;      ///< send time - due time
  /// Requests still unsent when the phase overran twice its length: the
  /// offered rate exceeded what the service sustained. Counted as failed.
  std::size_t unsent = 0;
  bool ok = true;
};

/// Sends `rate` requests per second in total for `seconds`, one request
/// per round trip on each connection, each connection on its own thread.
/// The threads sleep to each due time (timer slack cut to 1 ns, so the
/// wake-ups are punctual) rather than spin, which leaves the server's
/// handler threads room on a 4-core host.
OpenLoop open_loop(Session& session, std::uint64_t seed, double rate,
                   double seconds) {
  std::vector<OpenLoop> per(kConnections);
  const double interval = static_cast<double>(kConnections) / rate;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [t0](double offset) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset));
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Connection& connection = session.connections[c];
      OpenLoop& out = per[c];
      for (std::size_t k = 0;; ++k) {
        const double offset =
            (static_cast<double>(k) + static_cast<double>(c) / kConnections) *
            interval;
        if (offset >= seconds) break;
        if (connection.exhausted()) {
          out.ok = false;
          return;
        }
        if (Clock::now() > due_at(2.0 * seconds)) {
          // Fell hopelessly behind: the offered rate exceeds what the
          // service sustains. The rest of the schedule counts as failed.
          out.unsent +=
              static_cast<std::size_t>((seconds - offset) / interval) + 1;
          return;
        }
        const auto due = due_at(offset);
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        connection.client->submit(connection.next_request(seed));
        if (!connection.flush()) {
          out.ok = false;
          return;
        }
        const auto done = Clock::now();
        out.latency_us.push_back(
            std::chrono::duration<double, std::micro>(done - due).count());
        out.lag_us.push_back(
            std::chrono::duration<double, std::micro>(sent - due).count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  OpenLoop merged;
  for (const OpenLoop& one : per) {
    merged.ok = merged.ok && one.ok;
    merged.unsent += one.unsent;
    merged.latency_us.insert(merged.latency_us.end(), one.latency_us.begin(),
                             one.latency_us.end());
    merged.lag_us.insert(merged.lag_us.end(), one.lag_us.begin(),
                         one.lag_us.end());
  }
  return merged;
}

struct ClosedLoop {
  std::size_t requests = 0;
  double seconds = 0.0;
  std::vector<double> flush_us;  ///< traced runs only
  bool ok = true;
};

/// The connections submit `total` requests between them, each taking the
/// next batch of kClosedBatch from a shared budget and flushing it. A fixed
/// count, not a fixed time: the session (and with it the clients' decision
/// maps, hence peak RSS) is the same size however fast the service runs.
/// The shared budget keeps both connections busy to the end; a connection
/// left running alone would not contend for the server's admission lock.
ClosedLoop closed_loop(Session& session, std::uint64_t seed, std::size_t total,
                       bool time_flushes) {
  std::vector<ClosedLoop> per(kConnections);
  std::atomic<std::size_t> budget{total};
  const auto claim = [&budget] {
    std::size_t left = budget.load();
    while (left > 0 &&
           !budget.compare_exchange_weak(left, left - std::min(left, kClosedBatch))) {
    }
    return std::min(left, kClosedBatch);
  };
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Connection& connection = session.connections[c];
      ClosedLoop& out = per[c];
      for (std::size_t batch = claim(); batch > 0; batch = claim()) {
        if (connection.exhausted()) {
          out.ok = false;
          return;
        }
        for (std::size_t i = 0; i < batch; ++i) {
          connection.client->submit(connection.next_request(seed));
        }
        const auto flush_start = Clock::now();
        if (!connection.flush()) {
          out.ok = false;
          return;
        }
        if (time_flushes) {
          out.flush_us.push_back(std::chrono::duration<double, std::micro>(
                                     Clock::now() - flush_start)
                                     .count());
        }
        out.requests += batch;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ClosedLoop merged;
  merged.seconds = seconds_since(start);
  for (const ClosedLoop& one : per) {
    merged.ok = merged.ok && one.ok;
    merged.requests += one.requests;
    merged.flush_us.insert(merged.flush_us.end(), one.flush_us.begin(),
                           one.flush_us.end());
  }
  return merged;
}

/// Sends one on-demand request per connection far past every deferral
/// deadline: the drain ahead of it resolves whatever is still queued.
bool finalize(Session& session, std::uint64_t seed) {
  std::size_t last = 0;
  for (const Connection& connection : session.connections) {
    last = std::max(last, kConnections * connection.sent);
  }
  bool ok = true;
  for (Connection& connection : session.connections) {
    cluster::AdmissionRequest request = connection.next_request(seed);
    request.spec.deflatable = false;
    request.spec.priority = 1.0;
    request = cluster::AdmissionRequest::from_spec(
        request.spec,
        sim::SimTime::from_seconds(kSpacingSeconds * static_cast<double>(last)) +
            sim::SimTime::from_hours(kMaxDeferHours + 24.0));
    connection.client->submit(request);
    ok = ok && connection.flush();
  }
  return ok;
}

/// Every request got exactly one final decision and no Error frame came
/// back. Returns the requests sent; adds the failed ones to `failed`.
std::size_t check_decisions(const Session& session, Outcome& outcome,
                            std::uint64_t& failed) {
  std::size_t sent = 0;
  std::size_t resolutions = 0;
  std::size_t undecided = 0;
  std::size_t stray = 0;
  std::size_t errors = 0;
  for (const Connection& connection : session.connections) {
    const net::Client& client = *connection.client;
    sent += connection.sent;
    resolutions += client.resolved_deferrals().size();
    if (client.last_error().has_value()) ++errors;
    for (std::uint64_t id = 1; id <= connection.sent; ++id) {
      const auto it = client.decisions().find(id);
      if (it == client.decisions().end() ||
          it->second.status == cluster::AdmissionDecision::Status::Deferred) {
        ++undecided;
      }
    }
    // A resolution must belong to a request this connection sent, and
    // never to one already answered with a final decision.
    for (const auto& resolved : client.resolved_deferrals()) {
      const std::uint64_t id = resolved.first;
      if (id == 0 || id > connection.sent || connection.direct_final[id]) {
        ++stray;
      }
    }
  }
  const net::ServerStats stats = session.server->stats();
  const bool one_each = stats.decisions == sent + resolutions;
  outcome.check(undecided == 0, "every request has a final decision (" +
                                    std::to_string(undecided) + " missing)");
  outcome.check(stray == 0,
                "no deferral resolution for an unknown request, or for one "
                "already answered finally (" + std::to_string(stray) + ")");
  outcome.check(one_each, "exactly one final decision per request (" +
                              std::to_string(stats.decisions) +
                              " decision frames for " + std::to_string(sent) +
                              " requests + " + std::to_string(resolutions) +
                              " deferral resolutions)");
  outcome.check(errors == 0 && stats.malformed_frames == 0,
                "zero Error frames");
  outcome.check(stats.admission_requests == sent,
                "the server saw every request");
  failed += undecided + stray + errors;
  return sent;
}

// --- traced: the layers, timed from outside -----------------------------------

struct AdmissionPass {
  double decide_us = 0.0;  ///< mean per decide() in the timed phases
  double drain_us = 0.0;   ///< mean per drain() in the timed phases
  std::uint64_t queue_depth = 0;
  double retries_per_resolution = 0.0;
  std::vector<double> quarter_drain_us;
  std::vector<double> quarter_queue_depth;
  /// A sample of the session's request and decision frames, for the codec.
  std::vector<net::Message> frames;
};

std::uint64_t queue_depth(
    const std::vector<std::unique_ptr<cluster::AdmissionController>>& all) {
  std::uint64_t depth = 0;
  for (const auto& controller : all) {
    const cluster::AdmissionStats& s = controller->stats();
    depth += s.requests - s.admitted - s.rejected - s.expired;
  }
  return depth;
}

/// Replays the session's request sequence (warm-up and both timed phases,
/// in sequence order) through net::ServiceCore, timing drain and decide
/// the way the server calls them.
AdmissionPass admission_pass(const Session& session, std::uint64_t seed) {
  constexpr std::size_t kCodecSample = 20000;
  net::ServiceCore core(service_config(seed));
  std::vector<std::unique_ptr<cluster::AdmissionController>> controllers;
  std::vector<std::size_t> sends;  // the final request is not replayed
  for (const Connection& connection : session.connections) {
    controllers.push_back(core.make_controller());
    sends.push_back(connection.sent - 1);
  }
  std::size_t timed_total = 0;
  for (const std::size_t n : sends) timed_total += n - kWarmup;

  AdmissionPass pass;
  std::vector<double> drain_us;
  std::vector<double> decide_us;
  std::size_t quarter_begin = 0;
  const std::size_t last = kConnections * *std::max_element(sends.begin(), sends.end());
  for (std::uint64_t g = 0; g < last; ++g) {
    const std::size_t c = g % kConnections;
    const std::size_t i = g / kConnections;
    if (i >= sends[c]) continue;
    const cluster::AdmissionRequest request = make_request(seed, g);
    const sim::SimTime now = core.advance_clock(request.arrival);
    const auto t0 = Clock::now();
    const auto resolved = controllers[c]->drain(now);
    const auto t1 = Clock::now();
    const cluster::AdmissionDecision decision =
        controllers[c]->decide(request, now);
    const auto t2 = Clock::now();
    if (i < kWarmup) continue;
    drain_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    decide_us.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    // Close a quarter of the timed phases: its mean drain, and the queue
    // depth at its end.
    if (4 * drain_us.size() >= (pass.quarter_drain_us.size() + 1) * timed_total) {
      double sum = 0.0;
      for (std::size_t k = quarter_begin; k < drain_us.size(); ++k) {
        sum += drain_us[k];
      }
      pass.quarter_drain_us.push_back(
          sum / static_cast<double>(drain_us.size() - quarter_begin));
      pass.quarter_queue_depth.push_back(
          static_cast<double>(queue_depth(controllers)));
      quarter_begin = drain_us.size();
    }
    if (pass.frames.size() < kCodecSample) {
      net::AdmissionRequestMsg request_msg;
      request_msg.request_id = i + 1;
      request_msg.request = request;
      pass.frames.emplace_back(request_msg);
      net::AdmissionDecisionMsg decision_msg;
      decision_msg.request_id = i + 1;
      decision_msg.decision = decision;
      pass.frames.emplace_back(decision_msg);
      for (const auto& r : resolved) {
        decision_msg.request_id = r.request.spec.id;
        decision_msg.decision = r.decision;
        pass.frames.emplace_back(decision_msg);
      }
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  pass.decide_us = mean(decide_us);
  pass.drain_us = mean(drain_us);
  pass.queue_depth = queue_depth(controllers);
  std::uint64_t retries = 0;
  std::uint64_t resolutions = 0;
  for (const auto& controller : controllers) {
    const cluster::AdmissionStats& s = controller->stats();
    retries += s.retries;
    resolutions += s.admitted + s.rejected + s.expired;
  }
  pass.retries_per_resolution =
      static_cast<double>(retries) / static_cast<double>(std::max<std::uint64_t>(1, resolutions));
  return pass;
}

/// Mean encode and decode time per frame over the sample, repeated until
/// each loop has run for at least 0.2 s.
std::pair<double, double> codec_ns(const std::vector<net::Message>& frames,
                                   Outcome& outcome) {
  std::vector<std::vector<std::uint8_t>> encoded(frames.size());
  std::size_t encodes = 0;
  const auto encode_start = Clock::now();
  do {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      encoded[i] = net::encode_frame(frames[i]);
    }
    encodes += frames.size();
  } while (seconds_since(encode_start) < 0.2);
  const double encode_s = seconds_since(encode_start);

  std::size_t decodes = 0;
  std::size_t bad = 0;
  const auto decode_start = Clock::now();
  do {
    for (const auto& frame : encoded) {
      const net::DecodeResult result = net::decode_frame(frame.data(), frame.size());
      if (result.status != net::DecodeStatus::Ok || result.consumed != frame.size()) ++bad;
    }
    decodes += encoded.size();
  } while (seconds_since(decode_start) < 0.2);
  const double decode_s = seconds_since(decode_start);
  outcome.check(bad == 0, "every workload frame decodes back");
  return {1e9 * encode_s / static_cast<double>(std::max<std::size_t>(1, encodes)),
          1e9 * decode_s / static_cast<double>(std::max<std::size_t>(1, decodes))};
}

/// Layers only the simulator workloads exercise: reported as 0 here.
const Metric kSimLayers[] = {
    {"trace.next_calls", 0.0, "count"},
    {"trace.next_s", 0.0, "s"},
    {"trace.peak_active_records", 0.0, "count"},
    {"sharded.route_s", 0.0, "s"},
    {"sharded.flush_views_calls", 0.0, "count"},
    {"sharded.flush_views_s", 0.0, "s"},
    {"sim.wall_s", 0.0, "s"},
    {"sim.unattributed_s", 0.0, "s"},
    {"sim.attributed_share", 0.0, "ratio"},
    {"sim.tracing_overhead_pct", 0.0, "%"},
    {"sim.reclamation_attempts", 0.0, "count"},
    {"sim.revocations", 0.0, "count"},
    {"sim.live_migrations", 0.0, "count"},
    {"sim.checkpoint_restores", 0.0, "count"},
    {"sim.control_reopts", 0.0, "count"},
    {"sim.admission_deferrals", 0.0, "count"},
    {"sim.throughput_loss_pct", 0.0, "%"},
    {"sim.reclamation_failure_pct", 0.0, "%"},
    {"sim.fleet_cost", 0.0, "core-h"},
};

}  // namespace

Outcome run_daemon_price(const Options& options) {
  if (!(options.open_rate > 0.0)) {
    throw std::invalid_argument("daemon_price needs --open-rate");
  }
  Outcome outcome;
  const bool traced = options.trace;
  const std::string capture_path = options.work_dir + "/daemon_price.capture";

  // Set-up samples come from spare sessions at the start and the end of
  // the run, and between the phases, so that they see the host over the
  // whole run; plus the measured session's own. The traced run takes none
  // between the phases: its profile must hold the measured session only.
  std::vector<double> setup_times;
  const auto start_into = [&](Session& session, const std::string& capture) {
    session = Session{};  // stops the previous server
    const auto start = Clock::now();
    session = start_session(options.seed, capture);
    return seconds_since(start);
  };
  const auto spare_setups = [&](std::size_t samples) {
    Session spare;
    for (std::size_t i = 0; i < samples; ++i) {
      setup_times.push_back(setup_sample([&] { return start_into(spare, ""); }));
    }
  };
  spare_setups(2);
  Session session;
  setup_times.push_back(setup_sample(
      [&] { return start_into(session, traced ? capture_path : ""); }));

  if (traced) util::Profiler::instance().reset();
  const double phase_s = options.seconds / 2.0;
  const OpenLoop open = open_loop(session, options.seed, options.open_rate, phase_s);
  if (!traced) spare_setups(2);
  const ClosedLoop closed = closed_loop(
      session, options.seed,
      static_cast<std::size_t>(kClosedPerSecond * options.seconds), traced);
  const bool finalized = finalize(session, options.seed);
  const Phases phases = read_phases();
  session.server->stop();
  spare_setups(static_cast<std::size_t>(kSetupSamples) - setup_times.size());
  const double setup_s = median(setup_times);

  outcome.check(open.ok && closed.ok && finalized, "every flush succeeded within the request sequence");
  outcome.attempted =
      check_decisions(session, outcome, outcome.failed) + open.unsent;
  outcome.failed += open.unsent;
  const double failed_share = static_cast<double>(outcome.failed) /
                              static_cast<double>(std::max<std::uint64_t>(1, outcome.attempted));
  const double decisions_per_s =
      static_cast<double>(closed.requests) / closed.seconds;

  report("daemon_price: " + std::to_string(kServers) + " servers, " +
         std::to_string(kConnections) + " connections, " +
         std::to_string(outcome.attempted) + " requests (" +
         std::to_string(kWarmup * kConnections) + " warm-up, " +
         std::to_string(open.latency_us.size()) + " open-loop at " +
         fixed(options.open_rate, 0) + "/s, " + std::to_string(closed.requests) +
         " closed-loop in batches of " + std::to_string(kClosedBatch) + ")");
  const double p50_us = quantile(open.latency_us, 0.5);
  const double p99_us = quantile(open.latency_us, 0.99);
  report("  decisions_per_s   " + fixed(decisions_per_s, 1) +
         " 1/s (closed loop; the vms_per_s metric)");
  report("  decision_p50_us   " + fixed(p50_us, 2) +
         " us (open loop, from due time, " +
         std::to_string(open.latency_us.size()) + " samples)");
  report("  decision_p99_us   " + fixed(p99_us, 2) + " us");
  report("  setup_s           " + fixed(setup_s, 4) + " s (incl. warm-up)");
  report("  peak_rss_mib      " + fixed(peak_rss_mib(), 1) + " MiB");
  report("  failed_ops_share  " + fixed(failed_share, 6));
  if (!traced) {
    outcome.metric("vms_per_s", decisions_per_s, "1/s");
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    return outcome;
  }
  outcome.metric("openloop.decision_p50_us", p50_us, "us");
  outcome.metric("openloop.decision_p99_us", p99_us, "us");
  outcome.metric("openloop.samples",
                 static_cast<double>(open.latency_us.size()), "count");

  // Capture replay: the live session's decisions must regenerate exactly.
  const auto replay_start = Clock::now();
  const net::ReplayReport replayed = net::replay_capture(capture_path);
  const double replay_s = seconds_since(replay_start);
  std::remove(capture_path.c_str());
  outcome.check(replayed.ok() && replayed.mismatches == 0,
                "capture replays with 0 mismatches (" +
                    std::to_string(replayed.mismatches) + ")" +
                    (replayed.error.empty() ? "" : ": " + replayed.error));
  outcome.check(replayed.requests == outcome.attempted - open.unsent,
                "capture holds every request");
  // Per-request cost in process vs on the wire (closed loop).
  const double transport_share =
      1.0 - (replay_s / static_cast<double>(std::max<std::size_t>(1, replayed.requests))) /
                (closed.seconds / static_cast<double>(closed.requests));

  const AdmissionPass pass = admission_pass(session, options.seed);
  const auto [encode_ns, decode_ns] = codec_ns(pass.frames, outcome);

  const util::Profiler::PhaseStats& place = phases.cluster_place;
  const util::Profiler::PhaseStats& flush = phases.cluster_flush;
  const util::Profiler::PhaseStats& revoke = phases.cluster_revoke;
  const double ns_per_server =
      place.calls == 0 ? 0.0
                       : 1e9 * place.seconds / static_cast<double>(place.calls) /
                             static_cast<double>(kServers);

  std::string quarters;
  for (std::size_t q = 0; q < pass.quarter_drain_us.size(); ++q) {
    quarters += " q" + std::to_string(q + 1) + " drain " +
                fixed(pass.quarter_drain_us[q], 2) + " us, depth " +
                fixed(pass.quarter_queue_depth[q], 0) + ";";
  }
  report("  admission (in-process pass): decide " + fixed(pass.decide_us, 3) +
         " us, drain " + fixed(pass.drain_us, 3) + " us, queue depth " +
         std::to_string(pass.queue_depth) + ", retries/resolution " +
         fixed(pass.retries_per_resolution, 3));
  report("  per quarter of the timed phases:" + quarters);
  report("  codec " + fixed(encode_ns, 1) + " ns encode, " + fixed(decode_ns, 1) +
         " ns decode per frame (" + std::to_string(pass.frames.size()) + " frames)");
  report("  flush round trip " + fixed(median(closed.flush_us), 1) +
         " us median; transport share " + fixed(transport_share, 4) +
         " (replay " + fixed(replay_s, 3) + " s for " +
         std::to_string(replayed.requests) + " requests)");
  report("  open-loop generator lag p50 " + fixed(quantile(open.lag_us, 0.5), 2) +
         " us, p99 " + fixed(quantile(open.lag_us, 0.99), 2) + " us");

  outcome.metric("cluster.place_calls", static_cast<double>(place.calls), "count");
  outcome.metric("cluster.place_s", place.seconds, "s");
  outcome.metric("cluster.place_ns_per_server", ns_per_server, "ns");
  outcome.metric("cluster.flush_views_s", flush.seconds, "s");
  outcome.metric("cluster.revoke_s", revoke.seconds, "s");
  outcome.metric("admission.decide_us", pass.decide_us, "us");
  outcome.metric("admission.drain_us", pass.drain_us, "us");
  outcome.metric("admission.queue_depth", static_cast<double>(pass.queue_depth), "count");
  outcome.metric("admission.retries_per_resolution", pass.retries_per_resolution, "ratio");
  for (std::size_t q = 0; q < pass.quarter_drain_us.size(); ++q) {
    const std::string suffix = ".q" + std::to_string(q + 1);
    outcome.metric("admission.drain_us" + suffix, pass.quarter_drain_us[q], "us");
    outcome.metric("admission.queue_depth" + suffix, pass.quarter_queue_depth[q], "count");
  }
  outcome.metric("codec.encode_ns", encode_ns, "ns");
  outcome.metric("codec.decode_ns", decode_ns, "ns");
  outcome.metric("net.flush_rtt_us", median(closed.flush_us), "us");
  outcome.metric("net.transport_share", transport_share, "ratio");
  outcome.metric("openloop.lag_p50_us", quantile(open.lag_us, 0.5), "us");
  outcome.metric("openloop.lag_p99_us", quantile(open.lag_us, 0.99), "us");
  for (const Metric& metric : kSimLayers) {
    outcome.metric(metric.name, metric.value, metric.unit);
  }
  return outcome;
}

}  // namespace perfbench
