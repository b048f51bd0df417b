// Benchmark program: runs one named workload against the deflate library in
// this process and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--open-rate <requests/s>] [--git-sha <sha>]
//             [--source-digest <hash>] [--work-dir <dir>]
//
// Workloads: replay_megafleet, overcommit_pressure, daemon_price (see
// perfbench/README.md for what each exercises and why). The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; the lines
// before it are the result stamp and a human-readable report. The exit
// code is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"

namespace perfbench {

void Outcome::metric(std::string name, double value, std::string unit) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Phases read_phases() {
  Phases phases;
  for (const auto& stats : deflate::util::Profiler::instance().snapshot()) {
    if (stats.name == "cluster.place") phases.cluster_place = stats;
    if (stats.name == "cluster.flush_views") phases.cluster_flush = stats;
    if (stats.name == "cluster.revoke") phases.cluster_revoke = stats;
    if (stats.name == "sharded.place") phases.sharded_place = stats;
    if (stats.name == "sharded.flush_views") phases.sharded_flush = stats;
  }
  return phases;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

void report(const std::string& text) { std::cout << text << "\n"; }

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <replay_megafleet|"
               "overcommit_pressure|daemon_price> --seed <n> --seconds <s> "
               "--trace <0|1> [--open-rate <requests/s>] [--git-sha <sha>] "
               "[--source-digest <hash>] [--work-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--open-rate") {
        options.open_rate = std::stod(value);
      } else if (flag == "--git-sha") {
        options.git_sha = value;
      } else if (flag == "--source-digest") {
        options.source_digest = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_stamp(const Options& options) {
  const char* threads = std::getenv("DEFLATE_THREADS");
  std::cout << "stamp {\"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"git_sha\": " << json_string(options.git_sha)
            << ", \"source_digest\": " << json_string(options.source_digest)
            << ", \"DEFLATE_THREADS\": "
            << json_string(threads != nullptr ? threads : "unset") << "}\n";
}

void print_result(const Outcome& outcome) {
  for (const std::string& failure : outcome.failures()) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (outcome.correct() ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& metric : outcome.metrics()) {
    json << (first ? "" : ", ") << json_string(metric.name)
         << ": {\"value\": " << json_number(metric.value)
         << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  print_stamp(options);
  Outcome outcome;
  try {
    if (options.workload == "replay_megafleet") {
      outcome = perfbench::run_replay_megafleet(options);
    } else if (options.workload == "overcommit_pressure") {
      outcome = perfbench::run_overcommit_pressure(options);
    } else if (options.workload == "daemon_price") {
      outcome = perfbench::run_daemon_price(options);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }
  if (outcome.attempted == 0) outcome.check(false, "attempted at least one op");
  print_result(outcome);
  return outcome.correct() ? 0 : 1;
}
