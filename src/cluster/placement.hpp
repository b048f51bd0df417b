// Deflation-aware VM placement (§5.2).
//
// Fitness of server j for demand D is the cosine similarity between D and
// the server's availability vector
//   A_j = Total_j - Used_j + deflatable_j / overcommitted_j,
// where deflatable_j is what deflation could reclaim and overcommitted_j
// discounts servers that are already squeezed — preferring less-
// overcommitted servers and thus balancing load (§5.2).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "policy/registry.hpp"
#include "resources/resource_vector.hpp"

namespace deflate::cluster {

/// Per-server snapshot: the span path's input, and what
/// HostScanTable::view_of materializes for per-host scorers.
struct HostView {
  std::uint64_t host_id = 0;
  res::ResourceVector capacity;
  res::ResourceVector available;   ///< Total - Used (allocation-based)
  res::ResourceVector deflatable;  ///< policy-reclaimable headroom
  double overcommit_ratio = 0.0;   ///< committed / capacity (max of cpu, mem)
  bool feasible = false;           ///< can_fit(demand) on this server
};

/// Availability vector A_j as defined above.
[[nodiscard]] res::ResourceVector availability_vector(const HostView& host);

/// Fitness score; larger is better.
[[nodiscard]] double fitness(const res::ResourceVector& demand,
                             const HostView& host);

/// Magnitude-aware fitness used when a placement *requires* deflation:
/// the projection of the (per-dimension capacity-normalized) availability
/// vector onto the demand direction. Cosine similarity is scale-invariant,
/// so by itself it cannot express the paper's "prefers servers with lower
/// overcommitment" behaviour; ranking pressured placements by projected
/// availability spreads the reclamation across the servers with the most
/// deflatable headroom, keeping per-VM deflation shallow (§5.2's load
/// balancing intent; Tetris [19], which the paper builds on, scores with
/// the dot product for the same reason).
[[nodiscard]] double pressure_fitness(const res::ResourceVector& demand,
                                      const HostView& host);

/// Index of the feasible host with the highest fitness (ties -> lower
/// host_id), or nullopt if no host is feasible. `under_pressure` selects
/// the magnitude-aware score.
[[nodiscard]] std::optional<std::size_t> pick_best_host(
    const res::ResourceVector& demand, std::span<const HostView> hosts,
    bool under_pressure = false);

class HostScanTable;

/// Which feasibility test the scan applies (the two passes of place_vm):
/// free capacity alone, or free capacity plus policy-deflatable headroom.
enum class ScanFeasibility { FreeCapacity, WithDeflation };

/// One placement scan's inputs: score the eligible, feasible servers among
/// `candidates` for `demand`.
struct ScanRequest {
  const res::ResourceVector& demand;
  const HostScanTable& table;
  std::span<const std::size_t> candidates;
  ScanFeasibility feasibility;
  bool under_pressure;
};

/// Best server of a scan. `key` is the score oriented so that
/// higher always wins: LowerBetter scores are negated (exact in IEEE
/// arithmetic) and ById scorers key every server 0.0.
struct ScanWinner {
  double key = 0.0;
  std::size_t host = 0;
  bool valid = false;
};

/// A placement policy (the registry's "placement" surface): scores one
/// (demand, host) pair; the shared selection loops own the feasibility
/// mask and the deterministic tie order. Scorers are stateless and shared
/// across threads.
class PlacementScorer {
 public:
  /// How the selection loop ranks scores. ById skips scoring entirely
  /// (FirstFit: lowest host id wins).
  enum class Order { HigherBetter, LowerBetter, ById };

  virtual ~PlacementScorer() = default;

  [[nodiscard]] virtual Order order() const noexcept = 0;

  /// Whether the span-path loop breaks score ties by lower host id.
  /// Historically only Fitness did (BestFit/WorstFit keep the first-seen
  /// winner); the SoA scan *always* ties by lowest id regardless.
  [[nodiscard]] virtual bool prefer_lower_id_on_tie() const noexcept {
    return false;
  }

  /// Per-host score: the span path (pick_host) and the plugin scan path.
  [[nodiscard]] virtual double score(const res::ResourceVector& demand,
                                     const HostView& host,
                                     bool under_pressure) const = 0;

  /// Winner among `request.candidates`: one virtual call per scan,
  /// running the one selection loop of placement.cpp. The default scores
  /// each candidate through `score(view_of(i))`; the builtins override it
  /// to score straight off the table's columns, bit for bit the same as
  /// their `score`.
  [[nodiscard]] virtual ScanWinner scan(const ScanRequest& request) const;
};

/// Registry surface for placement scoring policies.
struct PlacementSurface {
  static constexpr const char* kSurfaceName = "placement";
  static constexpr const char* kSurfaceDescription =
      "VM placement scoring over the host scan table";
  using Factory = std::function<std::shared_ptr<const PlacementScorer>()>;
  static void register_builtins(policy::PolicyRegistry<PlacementSurface>&);
};

using PlacementRegistry = policy::PolicyRegistry<PlacementSurface>;

/// Resolves a registered scorer by name; throws std::invalid_argument
/// naming the valid choices when unknown.
[[nodiscard]] std::shared_ptr<const PlacementScorer> make_placement_scorer(
    const std::string& name);

/// Host selection over the feasible views, ranked by `scorer`: the
/// paper's fitness vs the classic bin-packing heuristics it competes with
/// (§5.2 "policies such as best-fit or first-fit can be used") —
/// first-fit takes the lowest host id, best-fit the least leftover
/// capacity (tightest pack), worst-fit the most (max spreading).
[[nodiscard]] std::optional<std::size_t> pick_host(
    const PlacementScorer& scorer, const res::ResourceVector& demand,
    std::span<const HostView> hosts, bool under_pressure = false);

/// One HostScanTable field's per-resource columns, in resource order.
/// Named members rather than an array, so the kernels keep each pointer in
/// a register instead of indexing a small array through the stack.
struct ResourceColumns {
  const double* cpu;
  const double* memory;
  const double* disk_bw;
  const double* net_bw;
};

/// SoA (structure-of-arrays) per-server scan storage: one dense column per
/// field, indexed by server id. Placement computes on these columns: the
/// scan reads a handful of sequential double streams through raw column
/// pointers, never a per-server struct, so the hot loop is cache-linear.
/// `set_row` is the only writer of a server's state, and it derives the
/// availability vector A_j and its norm there, so the derived columns
/// cannot go stale. `set_row` and `set_status` also advance `version()`,
/// so a result derived from the table stays valid exactly while the
/// version does.
class HostScanTable {
 public:
  /// Zeroed rows, all servers active and eligible; `capacity` is
  /// fleet-uniform (every server shares the config's).
  void resize(std::size_t servers, const res::ResourceVector& capacity);
  [[nodiscard]] std::size_t size() const noexcept { return overcommit_.size(); }
  [[nodiscard]] const res::ResourceVector& capacity() const noexcept {
    return capacity_;
  }
  /// Advances on every write (resize, set_row, set_status), changed
  /// values or not.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Writes server `i`'s state, and A_j = availability_vector(view_of(i))
  /// with its norm into the derived columns.
  void set_row(std::size_t i, const res::ResourceVector& available,
               const res::ResourceVector& deflatable,
               double overcommit) noexcept;
  /// Active servers count toward the aggregates; the scan considers only
  /// eligible ones (active && accepting).
  void set_status(std::size_t i, bool active, bool accepting) noexcept;

  [[nodiscard]] res::ResourceVector available_of(std::size_t i) const noexcept;
  [[nodiscard]] res::ResourceVector deflatable_of(std::size_t i) const noexcept;
  /// Materializes the classic HostView for server `i` from the same
  /// doubles, for the per-host scorers and the cold paths.
  [[nodiscard]] HostView view_of(std::size_t i) const noexcept;

  // Raw columns, for the scan kernels and the aggregate column sums.
  [[nodiscard]] ResourceColumns available_columns() const noexcept {
    return columns(available_);
  }
  [[nodiscard]] ResourceColumns deflatable_columns() const noexcept {
    return columns(deflatable_);
  }
  /// A_j.
  [[nodiscard]] ResourceColumns availability_columns() const noexcept {
    return columns(availability_);
  }
  /// |A_j|.
  [[nodiscard]] const double* availability_norm_column() const noexcept {
    return availability_norm_.data();
  }
  [[nodiscard]] const std::uint8_t* active_column() const noexcept {
    return active_.data();
  }
  [[nodiscard]] const std::uint8_t* eligible_column() const noexcept {
    return eligible_.data();
  }

 private:
  using Columns = std::array<std::vector<double>, res::kNumResources>;
  static ResourceColumns columns(const Columns& c) noexcept {
    return {c[0].data(), c[1].data(), c[2].data(), c[3].data()};
  }

  res::ResourceVector capacity_;
  std::uint64_t version_ = 0;
  Columns available_;
  Columns deflatable_;
  std::vector<double> overcommit_;
  Columns availability_;
  std::vector<double> availability_norm_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> eligible_;
};

/// Strategy scan over the SoA table restricted to `candidates` (ineligible
/// servers are skipped). Returns the winning *server id*: the feasible
/// candidate with the best per-host score (same feasibility epsilons, same
/// scores as pick_host), ties broken by lowest host id whatever the
/// scorer's span-path tie preference. It is one `scorer.scan` call.
[[nodiscard]] std::optional<std::size_t> scan_pick_host(
    const PlacementScorer& scorer, const res::ResourceVector& demand,
    const HostScanTable& table, std::span<const std::size_t> candidates,
    ScanFeasibility feasibility, bool under_pressure);

}  // namespace deflate::cluster
