#include "control/forecast.hpp"

namespace deflate::control {
namespace {

/// `static`: the t=0 plan is authoritative; realized history is ignored.
/// Feeding planned values back into the optimizer reproduces the planned
/// portfolio bit-for-bit, so a controller running this policy schedules
/// zero moves and pushes unchanged ceilings — the parity baseline.
class StaticForecast final : public ForecastPolicy {
 public:
  [[nodiscard]] double update(double planned, double /*previous*/,
                              std::optional<double> /*realized*/,
                              double /*alpha*/) const override {
    return planned;
  }
};

/// `windowed`: the last window's realized statistic is the forecast.
/// Degenerate windows keep the previous forecast (planned until the
/// first usable window closes).
class WindowedForecast final : public ForecastPolicy {
 public:
  [[nodiscard]] double update(double /*planned*/, double previous,
                              std::optional<double> realized,
                              double /*alpha*/) const override {
    return realized.value_or(previous);
  }
};

/// `ewma`: forecast' = alpha * realized + (1 - alpha) * forecast.
/// Smooths window-to-window noise at the cost of reacting to a genuine
/// regime shift over ~1/alpha windows.
class EwmaForecast final : public ForecastPolicy {
 public:
  [[nodiscard]] double update(double /*planned*/, double previous,
                              std::optional<double> realized,
                              double alpha) const override {
    if (!realized.has_value()) return previous;
    return alpha * *realized + (1.0 - alpha) * previous;
  }
};

}  // namespace

void ControlSurface::register_builtins(
    policy::PolicyRegistry<ControlSurface>& registry) {
  registry.add(
      "static", "trust the t=0 plan; ignore realized history (parity baseline)",
      [] { return std::make_shared<const StaticForecast>(); }, {"planned"});
  registry.add(
      "windowed",
      "last window's realized statistics replace the forecast outright",
      [] { return std::make_shared<const WindowedForecast>(); }, {"window"});
  registry.add(
      "ewma",
      "exponentially weighted blend of realized history into the forecast",
      [] { return std::make_shared<const EwmaForecast>(); }, {},
      {{.name = "alpha",
        .description = "EWMA gain on the newest window (0..1)",
        .default_value = 0.5}});
}

std::shared_ptr<const ForecastPolicy> make_forecast_policy(
    const std::string& name) {
  return ControlRegistry::instance().resolve(name).make();
}

}  // namespace deflate::control
