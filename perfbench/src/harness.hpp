// Shared machinery of the benchmark program: command-line options, the
// result a workload hands back (metrics plus output checks), timing and
// statistics helpers, and the result stamp.
//
// Every workload runs in one of two modes. Untraced (--trace 0) it reports
// the end-to-end metrics; traced (--trace 1) it makes a separate run that
// times each layer from outside, through the library's public functions,
// and reports the per-layer metrics. Both modes run every output check.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/profiler.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// daemon_price open-loop offered rate, requests per second.
  double open_rate = 0.0;
  std::string git_sha = "none";
  /// Hash of the sources the program was built from (perfbench/run.py).
  std::string source_digest = "none";
  /// Directory for scratch files (the build directory).
  std::string work_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced: the metrics of its mode, its operation
/// counts and the verdict of every output check.
class Outcome {
 public:
  void metric(std::string name, double value, std::string unit);
  /// Records an output check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

Outcome run_replay_megafleet(const Options& options);
Outcome run_overcommit_pressure(const Options& options);
Outcome run_daemon_price(const Options& options);

// --- helpers ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Set-up samples per run; setup_s is their median.
constexpr int kSetupSamples = 7;
/// Shortest set-up sample: a set-up quicker than this is repeated within
/// one sample, so a sample is not one instant of the host's speed.
constexpr double kMinSetupSampleSeconds = 0.1;

/// One set-up sample. `set_up()` builds the inputs once and returns the
/// seconds that took; it is repeated until kMinSetupSampleSeconds have been
/// spent, and the mean per set-up is returned.
template <typename SetUp>
[[nodiscard]] double setup_sample(SetUp&& set_up) {
  double total = 0.0;
  int count = 0;
  do {
    total += set_up();
    ++count;
  } while (total < kMinSetupSampleSeconds);
  return total / count;
}

/// The library's DEFLATE_PROFILE_SCOPE phases the benchmark reads.
struct Phases {
  deflate::util::Profiler::PhaseStats cluster_place, cluster_flush,
      cluster_revoke, sharded_place, sharded_flush;
};
/// The phases accumulated since the last Profiler::reset().
[[nodiscard]] Phases read_phases();

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// `value` with `digits` decimals, for the human-readable report.
[[nodiscard]] std::string fixed(double value, int digits);

/// Human-readable report line (stdout), ahead of the final JSON line.
void report(const std::string& text);

}  // namespace perfbench
