#include "net/capture.hpp"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>

#include "cluster/wire.hpp"

namespace deflate::net {

namespace {

/// Hexfloat formatting: %a round-trips every finite double exactly, which
/// is what lets the replayer rebuild a bit-identical price trace.
std::string hexf(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", v);
  return buffer;
}

bool parse_hexf(const std::map<std::string, std::string>& fields,
                const std::string& key, double& out) {
  const auto it = fields.find(key);
  if (it == fields.end() || it->second.empty()) return false;
  char* end = nullptr;
  out = std::strtod(it->second.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_u64(const std::map<std::string, std::string>& fields,
               const std::string& key, std::uint64_t& out) {
  const auto it = fields.find(key);
  if (it == fields.end() || it->second.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(it->second.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

std::string join_ceilings(const std::vector<double>& ceilings) {
  std::ostringstream out;
  for (std::size_t i = 0; i < ceilings.size(); ++i) {
    if (i > 0) out << ',';
    out << hexf(ceilings[i]);
  }
  return out.str();
}

bool split_ceilings(const std::string& joined, std::vector<double>& out) {
  out.clear();
  if (joined.empty()) return true;
  std::istringstream in(joined);
  std::string token;
  while (std::getline(in, token, ',')) {
    char* end = nullptr;
    out.push_back(std::strtod(token.c_str(), &end));
    if (end == nullptr || *end != '\0') return false;
  }
  return true;
}

}  // namespace

std::string encode_capture_header(const ServiceConfig& config) {
  return cluster::wire::encode_envelope(
      "capture_header",
      {{"codec", std::to_string(kCodecVersion)},
       {"servers", std::to_string(config.server_count)},
       {"shards", std::to_string(config.shard_count)},
       {"shard_policy", config.shard_policy},
       {"placement", config.placement_policy},
       {"routing_seed", std::to_string(config.routing_seed)},
       {"admission", config.admission_policy},
       {"ceilings", join_ceilings(config.admission.class_ceilings)},
       {"default_ceiling", hexf(config.admission.default_ceiling)},
       {"defer_hours", hexf(config.admission.max_defer_hours)},
       {"od_price", hexf(config.on_demand_price)},
       {"price_hours", hexf(config.price_trace_hours)},
       {"price_seed", std::to_string(config.price_seed)},
       {"spot_mean", hexf(config.spot.mean_price)},
       {"spot_reversion", hexf(config.spot.reversion_rate)},
       {"spot_volatility", hexf(config.spot.volatility)},
       {"spot_shock_rate", hexf(config.spot.shock_rate_per_hour)},
       {"spot_shock_mult", hexf(config.spot.shock_multiplier)},
       {"spot_shock_decay", hexf(config.spot.shock_decay_hours)},
       {"spot_floor", hexf(config.spot.floor_price)},
       {"spot_step_us", std::to_string(config.spot.step.micros())}});
}

std::optional<ServiceConfig> decode_capture_header(const std::string& line) {
  const auto fields = cluster::wire::decode_envelope("capture_header", line);
  if (!fields.has_value()) return std::nullopt;

  ServiceConfig config;
  std::uint64_t codec = 0, servers = 0, shards = 0, routing_seed = 0,
                price_seed = 0, step_us = 0;
  const auto policy_it = fields->find("shard_policy");
  const auto placement_it = fields->find("placement");
  const auto admission_it = fields->find("admission");
  const auto ceilings_it = fields->find("ceilings");
  if (!parse_u64(*fields, "codec", codec) || codec != kCodecVersion ||
      !parse_u64(*fields, "servers", servers) ||
      !parse_u64(*fields, "shards", shards) ||
      !parse_u64(*fields, "routing_seed", routing_seed) ||
      !parse_u64(*fields, "price_seed", price_seed) ||
      !parse_u64(*fields, "spot_step_us", step_us) ||
      policy_it == fields->end() || placement_it == fields->end() ||
      admission_it == fields->end() || ceilings_it == fields->end()) {
    return std::nullopt;
  }
  if (!split_ceilings(ceilings_it->second, config.admission.class_ceilings) ||
      !parse_hexf(*fields, "default_ceiling",
                  config.admission.default_ceiling) ||
      !parse_hexf(*fields, "defer_hours", config.admission.max_defer_hours) ||
      !parse_hexf(*fields, "od_price", config.on_demand_price) ||
      !parse_hexf(*fields, "price_hours", config.price_trace_hours) ||
      !parse_hexf(*fields, "spot_mean", config.spot.mean_price) ||
      !parse_hexf(*fields, "spot_reversion", config.spot.reversion_rate) ||
      !parse_hexf(*fields, "spot_volatility", config.spot.volatility) ||
      !parse_hexf(*fields, "spot_shock_rate",
                  config.spot.shock_rate_per_hour) ||
      !parse_hexf(*fields, "spot_shock_mult", config.spot.shock_multiplier) ||
      !parse_hexf(*fields, "spot_shock_decay",
                  config.spot.shock_decay_hours) ||
      !parse_hexf(*fields, "spot_floor", config.spot.floor_price)) {
    return std::nullopt;
  }
  config.server_count = static_cast<std::size_t>(servers);
  config.shard_count = static_cast<std::size_t>(shards);
  // Registry names, resolved when the replayer builds its ServiceCore. An
  // empty `placement=` (older headers) means the default scorer.
  config.shard_policy = policy_it->second;
  if (!placement_it->second.empty()) {
    config.placement_policy = placement_it->second;
  }
  config.routing_seed = routing_seed;
  config.admission_policy = admission_it->second;
  config.price_seed = price_seed;
  config.spot.step =
      sim::SimTime::from_micros(static_cast<std::int64_t>(step_us));
  config.spot.on_demand_price = config.on_demand_price;
  return config;
}

CaptureWriter::CaptureWriter(const std::string& path,
                             const ServiceConfig& config)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (out_.is_open()) out_ << encode_capture_header(config) << '\n';
}

void CaptureWriter::record(std::uint32_t conn_id,
                           const std::vector<std::uint8_t>& frame) {
  char id[4];
  for (int i = 0; i < 4; ++i) {
    id[i] = static_cast<char>((conn_id >> (8 * i)) & 0xFF);
  }
  out_.write(id, sizeof(id));
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
}

namespace {

struct ReplayConnection {
  std::unique_ptr<cluster::AdmissionController> controller;
  /// vm id -> client request id, for correlating drained resolutions the
  /// same way the live server did.
  std::map<std::uint64_t, std::uint64_t> request_ids;
};

ReplayReport failed(std::string error) {
  ReplayReport report;
  report.error = std::move(error);
  return report;
}

}  // namespace

ReplayReport replay_capture(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return failed("cannot open capture file '" + path + "'");
  std::string header_line;
  if (!std::getline(in, header_line)) return failed("empty capture file");
  const auto config = decode_capture_header(header_line);
  if (!config.has_value()) return failed("bad capture header");

  std::optional<ServiceCore> core;
  try {
    core.emplace(*config);
  } catch (const std::invalid_argument& error) {  // a policy name unknown here
    return failed(error.what());
  }
  std::map<std::uint32_t, ReplayConnection> connections;
  // Regenerated decisions not yet matched against a captured record, in
  // emission order: (conn id, frame bytes).
  std::deque<std::pair<std::uint32_t, std::vector<std::uint8_t>>> expected;
  ReplayReport report;

  const auto note_mismatch = [&](std::string detail) {
    ++report.mismatches;
    if (report.details.size() < 8) report.details.push_back(std::move(detail));
  };

  for (std::size_t record = 0;; ++record) {
    char id_bytes[4];
    in.read(id_bytes, sizeof(id_bytes));
    if (in.gcount() == 0) break;  // clean EOF between records
    if (in.gcount() != sizeof(id_bytes)) {
      return failed("truncated record header at record " +
                    std::to_string(record));
    }
    std::uint32_t conn_id = 0;
    for (int i = 0; i < 4; ++i) {
      conn_id |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(id_bytes[i]))
                 << (8 * i);
    }

    // Frames are self-delimiting: read the fixed header, then the payload.
    std::vector<std::uint8_t> frame(kHeaderSize);
    in.read(reinterpret_cast<char*>(frame.data()), kHeaderSize);
    if (in.gcount() != static_cast<std::streamsize>(kHeaderSize)) {
      return failed("truncated frame header at record " +
                    std::to_string(record));
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(frame[3 + i]) << (8 * i);
    }
    if (len > kMaxPayload) {
      return failed("oversized frame at record " + std::to_string(record));
    }
    frame.resize(kHeaderSize + len);
    in.read(reinterpret_cast<char*>(frame.data() + kHeaderSize), len);
    if (in.gcount() != static_cast<std::streamsize>(len)) {
      return failed("truncated frame payload at record " +
                    std::to_string(record));
    }
    const auto decoded = decode_frame(frame.data(), frame.size());
    if (decoded.status != DecodeStatus::Ok) {
      return failed("corrupt frame at record " + std::to_string(record) +
                    ": " + decoded.error);
    }

    if (const auto* request =
            std::get_if<AdmissionRequestMsg>(&decoded.message)) {
      ++report.requests;
      auto& conn = connections[conn_id];
      if (conn.controller == nullptr) conn.controller = core->make_controller();
      const sim::SimTime now = core->advance_clock(request->request.arrival);
      // Same order as the live server: drain first, then the fresh decide.
      for (auto& resolved : conn.controller->drain(now)) {
        AdmissionDecisionMsg msg;
        const auto id_it = conn.request_ids.find(resolved.request.spec.id);
        msg.request_id =
            id_it == conn.request_ids.end() ? 0 : id_it->second;
        msg.decision = resolved.decision;
        expected.emplace_back(conn_id, encode_frame(Message{msg}));
      }
      conn.request_ids[request->request.spec.id] = request->request_id;
      AdmissionDecisionMsg direct;
      direct.request_id = request->request_id;
      direct.decision = conn.controller->decide(request->request, now);
      expected.emplace_back(conn_id, encode_frame(Message{direct}));
    } else if (std::holds_alternative<AdmissionDecisionMsg>(decoded.message)) {
      ++report.decisions;
      if (expected.empty()) {
        note_mismatch("record " + std::to_string(record) +
                      ": captured decision with none regenerated");
        continue;
      }
      const auto [expected_conn, expected_frame] = std::move(expected.front());
      expected.pop_front();
      if (expected_conn != conn_id || expected_frame != frame) {
        note_mismatch("record " + std::to_string(record) +
                      ": decision diverged (conn " + std::to_string(conn_id) +
                      ")");
      }
    } else {
      return failed("unexpected " +
                    std::string(msg_type_name(message_type(decoded.message))) +
                    " at record " + std::to_string(record));
    }
  }

  for (const auto& leftover : expected) {
    note_mismatch("regenerated decision for conn " +
                  std::to_string(leftover.first) + " never captured");
  }
  return report;
}

}  // namespace deflate::net
