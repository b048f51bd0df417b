// Forecast blending policies for the online control plane.
//
// The rolling re-optimization loop (controller.hpp) reduces every
// environment statistic it tracks — per-market mean price, price
// variance, revocation rate, pairwise price correlation, per-class bid
// ceilings — to the same scalar question: given the t=0 *planned* value,
// the *previous* forecast, and (maybe) a fresh *realized* observation
// from the window that just closed, what value should the next
// optimization run use? A ForecastPolicy answers that question, and is
// the sixth pluggable decision surface in the policy registry
// (src/policy/registry.hpp):
//
//   static    trust the t=0 plan forever. Realized history is ignored, so
//             re-optimization reproduces the planned portfolio exactly —
//             the controller becomes a no-op (the bit-parity baseline).
//   windowed  trust the last window outright: the realized statistic
//             replaces the forecast whenever the window produced one.
//   ewma      exponentially weighted blend, forecast' = a*realized +
//             (1-a)*forecast (knob `alpha`, default 0.5).
//
// Windows can be degenerate — a constant price trace has zero variance,
// a window shorter than two samples has no variance at all, a calm
// window observes zero revocations. Estimators (estimators.hpp) express
// that as a missing observation (nullopt), and every builtin policy then
// keeps the previous forecast, whose chain bottoms out at the planned
// value. A forecast is therefore always finite and usable; degeneracy
// never produces NaN and never throws.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "policy/registry.hpp"

namespace deflate::control {

/// One scalar step of the forecast recurrence. Stateless and const: the
/// same policy object serves every statistic the controller tracks.
class ForecastPolicy {
 public:
  virtual ~ForecastPolicy() = default;

  /// Next forecast of one statistic. `planned` is the t=0 plan's value,
  /// `previous` the forecast the last window produced (== planned before
  /// any window closed), `realized` the new window's observation — or
  /// nullopt when the window was degenerate (no samples, zero variance,
  /// zero observed revocations). `alpha` is the EWMA gain; policies that
  /// do not blend ignore it.
  [[nodiscard]] virtual double update(double planned, double previous,
                                      std::optional<double> realized,
                                      double alpha) const = 0;
};

/// Registry surface for forecast policies ("control" in list-policies,
/// the Hello frame and ControlConfig::forecast).
struct ControlSurface {
  static constexpr const char* kSurfaceName = "control";
  static constexpr const char* kSurfaceDescription =
      "how the online control plane forecasts market statistics between "
      "re-optimization windows";
  using Factory = std::function<std::shared_ptr<const ForecastPolicy>()>;
  static void register_builtins(policy::PolicyRegistry<ControlSurface>&);
};

using ControlRegistry = policy::PolicyRegistry<ControlSurface>;

/// Resolves a registered forecast policy by name (aliases accepted);
/// throws std::invalid_argument naming the valid choices when unknown.
[[nodiscard]] std::shared_ptr<const ForecastPolicy> make_forecast_policy(
    const std::string& name);

}  // namespace deflate::control
