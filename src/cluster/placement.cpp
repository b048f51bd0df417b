#include "cluster/placement.hpp"

#include <algorithm>
#include <cmath>

namespace deflate::cluster {

namespace {

/// Capacity-normalized leftover mass after placing the demand; the
/// BestFit/WorstFit score. Shared by pick_host and scan_pick_host so the
/// two paths can never drift apart.
double leftover_score(const res::ResourceVector& demand, const HostView& host) {
  res::ResourceVector leftover_n;
  const res::ResourceVector availability = availability_vector(host);
  for (const res::Resource r : res::all_resources) {
    if (host.capacity[r] <= 0.0) continue;
    leftover_n[r] = (availability[r] - demand[r]) / host.capacity[r];
  }
  return leftover_n.clamped_nonneg().norm();
}

}  // namespace

res::ResourceVector availability_vector(const HostView& host) {
  // §5.2: A_j = Total - Used + deflatable_j / overcommitted_j. A server at
  // or below full commitment divides by 1 (no discount); overcommitted
  // servers see their deflatable headroom count for less, steering new VMs
  // toward less-loaded servers.
  const double overcommit_divisor = std::max(1.0, host.overcommit_ratio);
  return (host.available + host.deflatable * (1.0 / overcommit_divisor))
      .clamped_nonneg();
}

double fitness(const res::ResourceVector& demand, const HostView& host) {
  return res::cosine_similarity(demand, availability_vector(host));
}

double pressure_fitness(const res::ResourceVector& demand,
                        const HostView& host) {
  // Normalize both vectors by the server capacity so cores and MiB are
  // commensurate, then project availability onto the demand direction.
  res::ResourceVector demand_n, avail_n;
  const res::ResourceVector availability = availability_vector(host);
  for (const res::Resource r : res::all_resources) {
    if (host.capacity[r] <= 0.0) continue;
    demand_n[r] = demand[r] / host.capacity[r];
    avail_n[r] = availability[r] / host.capacity[r];
  }
  const double demand_norm = demand_n.norm();
  if (demand_norm <= 1e-12) return avail_n.norm();
  return demand_n.dot(avail_n) / demand_norm;
}

std::optional<std::size_t> pick_best_host(const res::ResourceVector& demand,
                                          std::span<const HostView> hosts,
                                          bool under_pressure) {
  std::optional<std::size_t> best;
  double best_fitness = -1.0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (!hosts[i].feasible) continue;
    const double f = under_pressure ? pressure_fitness(demand, hosts[i])
                                    : fitness(demand, hosts[i]);
    if (f > best_fitness ||
        (f == best_fitness && best &&
         hosts[i].host_id < hosts[*best].host_id)) {
      best = i;
      best_fitness = f;
    }
  }
  return best;
}

// --- the selection loop -----------------------------------------------------

namespace {

static_assert(res::kNumResources == 4,
              "the scan kernels spell out one column per resource");

/// The scan's strict total order on (key, server id): higher key, then
/// lowest id.
bool ranks_before(double key, std::size_t host, const ScanWinner& best) {
  return !best.valid || key > best.key ||
         (key == best.key && host < best.host);
}

/// Negatives to zero, as ResourceVector::clamped_nonneg() does it.
double clamp0(double v) { return v < 0.0 ? 0.0 : v; }

/// The one selection loop: every scorer's scan runs it. It owns the
/// eligibility mask, the feasibility test (ResourceVector::all_leq's `>`
/// with 1e-9) and the total order; `key_of(server)` scores one feasible
/// server. Column pointers and the demand live in scalar locals: loops
/// over small per-resource arrays compile to stack round trips.
template <bool kWithDeflation, class KeyOf>
ScanWinner select_loop(const ScanRequest& request, const KeyOf& key_of) {
  constexpr double kEps = 1e-9;
  const std::uint8_t* eligible = request.table.eligible_column();
  const ResourceColumns av = request.table.available_columns();
  const ResourceColumns df = request.table.deflatable_columns();
  const double d0 = request.demand.cpu();
  const double d1 = request.demand.memory();
  const double d2 = request.demand.disk_bw();
  const double d3 = request.demand.net_bw();

  ScanWinner best;
  for (const std::size_t s : request.candidates) {
    if (!eligible[s]) continue;
    if constexpr (kWithDeflation) {
      if (clamp0(d0 - av.cpu[s]) > df.cpu[s] + kEps ||
          clamp0(d1 - av.memory[s]) > df.memory[s] + kEps ||
          clamp0(d2 - av.disk_bw[s]) > df.disk_bw[s] + kEps ||
          clamp0(d3 - av.net_bw[s]) > df.net_bw[s] + kEps) {
        continue;
      }
    } else {
      if (d0 > av.cpu[s] + kEps || d1 > av.memory[s] + kEps ||
          d2 > av.disk_bw[s] + kEps || d3 > av.net_bw[s] + kEps) {
        continue;
      }
    }
    const double key = key_of(s);
    if (ranks_before(key, s, best)) best = {key, s, true};
  }
  return best;
}

template <class KeyOf>
ScanWinner select_best(const ScanRequest& request, const KeyOf& key_of) {
  return request.feasibility == ScanFeasibility::WithDeflation
             ? select_loop<true>(request, key_of)
             : select_loop<false>(request, key_of);
}

// Column scorers: each computes its builtin's per-host score from the
// table's columns with the same operations in the same order (sums run
// in resource order from 0.0), so the keys are the per-host scores bit for
// bit.

/// Capacity-normalized value, skipping dimensions without capacity as the
/// per-host scores do.
double per_capacity(double value, double capacity) {
  return capacity > 0.0 ? value / capacity : 0.0;
}

/// fitness(): res::cosine_similarity(demand, A_j).
struct CosineKey {
  explicit CosineKey(const ScanRequest& request)
      : a(request.table.availability_columns()),
        norm(request.table.availability_norm_column()),
        d0(request.demand.cpu()),
        d1(request.demand.memory()),
        d2(request.demand.disk_bw()),
        d3(request.demand.net_bw()),
        demand_norm(request.demand.norm()) {}

  double operator()(std::size_t s) const {
    const double dot = 0.0 + d0 * a.cpu[s] + d1 * a.memory[s] +
                       d2 * a.disk_bw[s] + d3 * a.net_bw[s];
    const double denom = demand_norm * norm[s];
    return dot / (denom > 1e-12 ? denom : 1e-12);
  }

  ResourceColumns a;
  const double* norm;
  double d0, d1, d2, d3, demand_norm;
};

/// pressure_fitness(): the capacity-normalized A_j projected onto the
/// capacity-normalized demand.
struct ProjectionKey {
  explicit ProjectionKey(const ScanRequest& request)
      : a(request.table.availability_columns()),
        c0(request.table.capacity().cpu()),
        c1(request.table.capacity().memory()),
        c2(request.table.capacity().disk_bw()),
        c3(request.table.capacity().net_bw()),
        n0(per_capacity(request.demand.cpu(), c0)),
        n1(per_capacity(request.demand.memory(), c1)),
        n2(per_capacity(request.demand.disk_bw(), c2)),
        n3(per_capacity(request.demand.net_bw(), c3)),
        demand_norm(res::ResourceVector(n0, n1, n2, n3).norm()) {}

  double operator()(std::size_t s) const {
    const double m0 = per_capacity(a.cpu[s], c0);
    const double m1 = per_capacity(a.memory[s], c1);
    const double m2 = per_capacity(a.disk_bw[s], c2);
    const double m3 = per_capacity(a.net_bw[s], c3);
    if (demand_norm <= 1e-12) {
      return std::sqrt(0.0 + m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3);
    }
    return (0.0 + n0 * m0 + n1 * m1 + n2 * m2 + n3 * m3) / demand_norm;
  }

  ResourceColumns a;
  double c0, c1, c2, c3, n0, n1, n2, n3, demand_norm;
};

/// leftover_score(), times `sign` (-1 for the LowerBetter best-fit).
struct LeftoverKey {
  LeftoverKey(const ScanRequest& request, double sign)
      : a(request.table.availability_columns()),
        c0(request.table.capacity().cpu()),
        c1(request.table.capacity().memory()),
        c2(request.table.capacity().disk_bw()),
        c3(request.table.capacity().net_bw()),
        d0(request.demand.cpu()),
        d1(request.demand.memory()),
        d2(request.demand.disk_bw()),
        d3(request.demand.net_bw()),
        sign(sign) {}

  double operator()(std::size_t s) const {
    const double l0 = clamp0(per_capacity(a.cpu[s] - d0, c0));
    const double l1 = clamp0(per_capacity(a.memory[s] - d1, c1));
    const double l2 = clamp0(per_capacity(a.disk_bw[s] - d2, c2));
    const double l3 = clamp0(per_capacity(a.net_bw[s] - d3, c3));
    return sign * std::sqrt(0.0 + l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3);
  }

  ResourceColumns a;
  double c0, c1, c2, c3, d0, d1, d2, d3, sign;
};

}  // namespace

ScanWinner PlacementScorer::scan(const ScanRequest& request) const {
  const Order order = this->order();
  if (order == Order::ById) {
    return select_best(request, [](std::size_t) { return 0.0; });
  }
  const double sign = order == Order::LowerBetter ? -1.0 : 1.0;
  return select_best(request, [&](std::size_t server) {
    return sign * score(request.demand, request.table.view_of(server),
                        request.under_pressure);
  });
}

// --- builtin scorers --------------------------------------------------------

namespace {

/// §5.2 cosine fitness (pressure-aware). The only builtin whose span-path
/// ties break by host id: its sentinel-free score range (>= 0) made the
/// historical tie branch reachable, and golden runs pin that order.
class FitnessScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  [[nodiscard]] bool prefer_lower_id_on_tie() const noexcept override {
    return true;
  }
  [[nodiscard]] double score(const res::ResourceVector& demand,
                             const HostView& host,
                             bool under_pressure) const override {
    return under_pressure ? pressure_fitness(demand, host)
                          : fitness(demand, host);
  }
  [[nodiscard]] ScanWinner scan(const ScanRequest& request) const override {
    if (request.under_pressure) {
      return select_best(request, ProjectionKey(request));
    }
    return select_best(request, CosineKey(request));
  }
};

/// Lowest feasible id: the default scan keys every server 0.0.
class FirstFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override { return Order::ById; }
  [[nodiscard]] double score(const res::ResourceVector&, const HostView&,
                             bool) const override {
    return 0.0;
  }
};

class BestFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::LowerBetter;
  }
  [[nodiscard]] double score(const res::ResourceVector& demand,
                             const HostView& host, bool) const override {
    return leftover_score(demand, host);
  }
  [[nodiscard]] ScanWinner scan(const ScanRequest& request) const override {
    return select_best(request, LeftoverKey(request, -1.0));
  }
};

class WorstFitScorer final : public PlacementScorer {
 public:
  [[nodiscard]] Order order() const noexcept override {
    return Order::HigherBetter;
  }
  [[nodiscard]] double score(const res::ResourceVector& demand,
                             const HostView& host, bool) const override {
    return leftover_score(demand, host);
  }
  [[nodiscard]] ScanWinner scan(const ScanRequest& request) const override {
    return select_best(request, LeftoverKey(request, 1.0));
  }
};

const FitnessScorer kFitnessScorer;
const FirstFitScorer kFirstFitScorer;
const BestFitScorer kBestFitScorer;
const WorstFitScorer kWorstFitScorer;

/// Non-owning handle to a static builtin (registry factories return
/// shared_ptr so plugins may hand out owned instances).
std::shared_ptr<const PlacementScorer> borrow(const PlacementScorer& scorer) {
  return {std::shared_ptr<const PlacementScorer>{}, &scorer};
}

}  // namespace

void PlacementSurface::register_builtins(
    policy::PolicyRegistry<PlacementSurface>& registry) {
  registry.add("fitness",
               "cosine fitness vs deflation-aware availability (paper §5.2); "
               "pressure-aware",
               [] { return borrow(kFitnessScorer); });
  registry.add("first-fit", "lowest feasible host id",
               [] { return borrow(kFirstFitScorer); });
  registry.add("best-fit", "least leftover capacity (tightest pack)",
               [] { return borrow(kBestFitScorer); });
  registry.add("worst-fit", "most leftover capacity (max spreading)",
               [] { return borrow(kWorstFitScorer); });
}

std::shared_ptr<const PlacementScorer> make_placement_scorer(
    const std::string& name) {
  return PlacementRegistry::instance().resolve(name).make();
}

std::optional<std::size_t> pick_host(const PlacementScorer& scorer,
                                     const res::ResourceVector& demand,
                                     std::span<const HostView> hosts,
                                     bool under_pressure) {
  const PlacementScorer::Order order = scorer.order();
  std::optional<std::size_t> best;
  double best_score = 0.0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    if (!hosts[i].feasible) continue;
    if (order == PlacementScorer::Order::ById) {
      if (!best || hosts[i].host_id < hosts[*best].host_id) best = i;
      continue;
    }
    const double s = scorer.score(demand, hosts[i], under_pressure);
    bool better = false;
    if (!best) {
      better = true;
    } else if (s != best_score) {
      better = order == PlacementScorer::Order::HigherBetter ? s > best_score
                                                             : s < best_score;
    } else {
      better = scorer.prefer_lower_id_on_tie() &&
               hosts[i].host_id < hosts[*best].host_id;
    }
    if (better) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

// --- SoA scan table ---------------------------------------------------------

void HostScanTable::resize(std::size_t servers,
                           const res::ResourceVector& capacity) {
  capacity_ = capacity;
  for (auto* columns : {&available_, &deflatable_, &availability_}) {
    for (auto& column : *columns) column.assign(servers, 0.0);
  }
  overcommit_.assign(servers, 0.0);
  availability_norm_.assign(servers, 0.0);
  active_.assign(servers, 1);
  eligible_.assign(servers, 1);
  ++version_;
}

void HostScanTable::set_row(std::size_t i, const res::ResourceVector& available,
                            const res::ResourceVector& deflatable,
                            double overcommit) noexcept {
  HostView row;
  row.available = available;
  row.deflatable = deflatable;
  row.overcommit_ratio = overcommit;
  const res::ResourceVector a = availability_vector(row);
  for (const res::Resource r : res::all_resources) {
    const auto k = static_cast<std::size_t>(r);
    available_[k][i] = available[r];
    deflatable_[k][i] = deflatable[r];
    availability_[k][i] = a[r];
  }
  overcommit_[i] = overcommit;
  availability_norm_[i] = a.norm();
  ++version_;
}

void HostScanTable::set_status(std::size_t i, bool active,
                               bool accepting) noexcept {
  active_[i] = active ? 1 : 0;
  eligible_[i] = active && accepting ? 1 : 0;
  ++version_;
}

res::ResourceVector HostScanTable::available_of(std::size_t i) const noexcept {
  return {available_[0][i], available_[1][i], available_[2][i],
          available_[3][i]};
}

res::ResourceVector HostScanTable::deflatable_of(std::size_t i) const noexcept {
  return {deflatable_[0][i], deflatable_[1][i], deflatable_[2][i],
          deflatable_[3][i]};
}

HostView HostScanTable::view_of(std::size_t i) const noexcept {
  HostView view;
  view.host_id = i;
  view.capacity = capacity_;
  view.available = available_of(i);
  view.deflatable = deflatable_of(i);
  view.overcommit_ratio = overcommit_[i];
  return view;
}

// --- strategy scan ----------------------------------------------------------

std::optional<std::size_t> scan_pick_host(const PlacementScorer& scorer,
                                          const res::ResourceVector& demand,
                                          const HostScanTable& table,
                                          std::span<const std::size_t> candidates,
                                          ScanFeasibility feasibility,
                                          bool under_pressure) {
  const ScanWinner best = scorer.scan(
      {demand, table, candidates, feasibility, under_pressure});
  if (!best.valid) return std::nullopt;
  return best.host;
}

}  // namespace deflate::cluster
