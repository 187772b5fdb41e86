// Fleet simulator: M reader cells serving N tags, in parallel, bit-exact.
//
// Composes the deploy layer end to end: layout generation, per-cell
// inventory+polling over cached link budgets, cross-reader coordination,
// optional tag mobility with cache invalidation and inter-cell handoff,
// and fleet-level statistics. Cells execute on the shared sim::ThreadPool;
// each (epoch, cell) pair gets a private RNG stream via
// sim::derive_seed(seed, epoch * M + cell), and per-cell results merge in
// cell order, so fleet aggregates are bit-identical at any thread count —
// the same discipline as the sweep engine (DESIGN.md Sec. 7). Every run
// goes through the fault engine; an empty schedule realizes every reader
// up and every tag lossless, so a fault-free fleet is just its no-fault
// case.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/deploy/cell.hpp"
#include "src/deploy/coordinator.hpp"
#include "src/deploy/fleet_stats.hpp"
#include "src/deploy/layout.hpp"
#include "src/fault/engine.hpp"
#include "src/sim/parallel.hpp"

namespace mmtag::deploy {

struct FleetConfig {
  LayoutConfig layout;
  CellConfig cell;
  CoordinatorConfig coordination;
  /// Epochs alternate cell service and (optional) mobility steps.
  int epochs = 2;
  double epoch_duration_s = 0.05;
  /// Fraction of the tag population that takes a random-walk step between
  /// epochs (those tags' cache entries are invalidated and they may hand
  /// off between cells).
  double mobile_fraction = 0.0;
  double mobile_speed_mps = 1.5;
  /// Base seed for every stream in the run (cells, mobility).
  std::uint64_t seed = 1;
  /// Worker threads (<= 0 selects sim::default_thread_count()).
  int threads = 0;
  /// Disable to measure the uncached baseline (every link lookup
  /// re-traces; see bench_d1_fleet).
  bool use_link_cache = true;
  /// Fault injection (chaos testing). A default-constructed schedule
  /// injects nothing.
  fault::FaultSchedule faults;
  /// How the fleet fights back: orphan re-handoff at epoch boundaries and
  /// the cells' poll retry/backoff/quarantine knobs. A restarted reader
  /// always drops its link cache and quarantine list.
  fault::RecoveryConfig recovery;
  /// Backhaul reachability hook (installed by mesh::BackhaulSimulator):
  /// maps this epoch's radio-live mask to the readers that can still reach
  /// a mesh gateway. Consulted every epoch, with or without a fault
  /// schedule. Orphan re-handoff then avoids live-but-partitioned
  /// readers, and tags stuck on one count as orphaned (their inventory
  /// cannot leave the cell). Null = every live reader is serviceable.
  std::function<std::vector<std::uint8_t>(
      int epoch, const std::vector<std::uint8_t>& live)>
      backhaul_reachable;
  /// Called on the coordinating thread after each epoch's deterministic
  /// merge with the epoch index, per-cell results (cell order) and the
  /// radio-live mask — the point where mesh::BackhaulSimulator drains the
  /// epoch's inventory through the forwarding plane. Serial by
  /// construction, so thread count cannot reach the observer.
  std::function<void(int epoch, const std::vector<CellEpochResult>& cells,
                     const std::vector<std::uint8_t>& live)>
      epoch_observer;

  /// Throws std::invalid_argument naming the first out-of-range field
  /// (including those of `layout`, `faults` and `recovery`, a scripted
  /// outage's reader < `layout.readers`, `coordination.channels` >= 1,
  /// `cell.beamwidth_deg` > 0 and `cell.sector_half_angle_rad` in
  /// (0, pi]).
  void validate() const;
};

struct FleetResult {
  FleetStats stats;
  /// What broke and how recovery coped (equal to FaultReport{} when
  /// nothing failed). Digest via fault::fingerprint — kept separate from
  /// the pinned FleetStats fingerprint.
  fault::FaultReport fault;
  /// Per-tag service merged over every epoch, tag order (who was ever
  /// read, first-read instant, delivered bits). The discovery roster the
  /// net-layer traffic engine admits flows from.
  std::vector<TagService> service;
  /// Per-cell results of the final epoch (cell order).
  std::vector<CellEpochResult> last_epoch;
  /// Wall-clock cost of the run (threads, wall_s; units = tag reads).
  sim::SweepStats sweep;
};

class FleetSimulator {
 public:
  /// Throws std::invalid_argument when `config` fails validate().
  explicit FleetSimulator(FleetConfig config);

  /// Run the configured number of epochs and aggregate. Deterministic in
  /// `config.seed`; independent of `config.threads`. Equal to
  /// run(make_layout(config.layout)).
  [[nodiscard]] FleetResult run();

  /// Run over `layout`, which the run consumes (mobility moves its tags).
  /// A caller that already holds make_layout(config.layout) passes it here
  /// instead of having the run build it again. Throws
  /// std::invalid_argument when the layout's width, height, reader count
  /// or tag count differs from config.layout.
  [[nodiscard]] FleetResult run(FleetLayout layout);

  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
};

}  // namespace mmtag::deploy
