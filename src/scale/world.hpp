// Metro-scale world model: readers on a regular grid serving a
// million-tag SoA population.
//
// This is the scale layer's answer to deploy::FleetSimulator. The fleet
// path is faithful but per-object: every epoch touches every tag through
// a core::MmTag and an exact dB link budget, which tops out around 10^4
// tags. MetroWorld trades none of the determinism and none of the link
// physics for a layout that scales three more orders of magnitude:
//
//   * the population lives in a scale::TagStore (SoA columns),
//   * discovery and interference queries go through a scale::GridIndex
//     (O(cell occupancy), not O(tags)),
//   * per-beam candidates are evaluated in slabs by scale::EpochBatcher
//     through the kern SIMD layer (squared-distance domain, see
//     epoch_batch.hpp for why that is exact),
//   * epochs shard across readers on sim::ThreadPool; every reader
//     writes only the tags it owns (closed-form nearest-reader
//     partition), and per-reader results merge in fixed reader order —
//     so aggregates are bit-identical at any thread count.
//
// Each reader's candidates are put in ascending slot order with
// scale::sort_slots, so its poll sequence is a function of the candidate
// set. The poll loop skips a candidate outside both the beam and the
// contention radius before working out its owner: such a tag changes no
// counter and no column whoever owns it. Ownership and index cells are
// inline closed forms over spacings computed once per world, and the
// epoch's cell changes reach the index as one parallel
// GridIndex::rebucket batch.
//
// The same epoch can also run with the index disabled (`use_index =
// false`): the query path degrades to a linear scan over every slot but
// the exact filter — and therefore every byte of simulation state — is
// unchanged. bench_d3_metro uses that to hard-check both bit-identity of
// the two paths and the candidate-count margin the index buys.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/phys/link_budget.hpp"
#include "src/resil/domain.hpp"
#include "src/resil/health.hpp"
#include "src/scale/epoch_batch.hpp"
#include "src/scale/grid_index.hpp"
#include "src/scale/tag_store.hpp"
#include "src/sim/parallel.hpp"

namespace mmtag::scale {

struct MetroConfig {
  // --- Geometry ---------------------------------------------------------
  double width_m = 200.0;
  double height_m = 200.0;
  int readers_x = 4;               ///< Reader grid columns.
  int readers_y = 4;               ///< Reader grid rows.
  std::size_t tags = 10000;
  double index_cell_m = 5.0;       ///< Spatial-index cell edge.
  bool use_index = true;           ///< false: linear-scan query path.

  // --- Link / MAC -------------------------------------------------------
  phys::BackscatterLinkBudget budget =
      phys::BackscatterLinkBudget::mmtag_prototype();
  double epoch_duration_s = 0.25;
  int polls_per_reader = 256;      ///< Poll budget per reader per epoch.
  double poll_success_prob = 0.9;  ///< Per-poll MAC success probability.
  double payload_bits = 96.0;
  double interference_radius_m = 8.0;  ///< Foreign-tag contention range.

  // --- Energy duty cycle ------------------------------------------------
  double initial_energy_j = 5e-6;
  double harvest_j_per_epoch = 2e-6;  ///< While inside owner's beam range.
  double respond_cost_j = 3e-6;       ///< Per successful poll response.
  double energy_cap_j = 10e-6;

  // --- Mobility ---------------------------------------------------------
  double move_fraction = 0.05;     ///< Tags taking a step each epoch.
  double speed_mps = 1.5;

  // --- Resilience (DESIGN.md Sec. 15) -----------------------------------
  /// Scripted grid-correlated incidents: readers inside an active domain
  /// rectangle are physically down for the epoch — no polls, no harvest
  /// carrier, and (with the control plane off) their tags go unserved.
  resil::DomainSchedule domains{};
  /// Attach the resilience control plane: a HealthMonitor infers each
  /// reader's health from the only evidence a coordinator has — the
  /// per-epoch success count it reports, where a down reader is silence.
  /// Suspected readers are skipped outside their probe epochs and their
  /// tags are re-homed to the nearest serving reader (which can actually
  /// reach them only if the grid spacing is inside detect range). Off
  /// (default) the epoch path is bit-for-bit the legacy world.
  bool control_plane = false;
  resil::HealthConfig health{};

  std::uint64_t seed = 1234;

  /// Throws std::invalid_argument naming the first out-of-range field
  /// (including those of `health` and `domains`). Grids whose reader
  /// count or index columns/rows would not fit an int are out of range.
  void validate() const;
};

/// One epoch's aggregate, merged over readers in fixed order.
struct MetroEpochStats {
  /// Candidate slots the query path handed to the batcher (cost metric —
  /// differs between indexed and linear paths by design).
  std::uint64_t candidates = 0;
  std::uint64_t detected = 0;      ///< Owned tags inside beam range.
  std::uint64_t polls = 0;
  std::uint64_t successes = 0;
  std::uint64_t new_reads = 0;     ///< First-ever reads this epoch.
  std::uint64_t interference_pairs = 0;
  std::uint64_t moved = 0;
  std::uint64_t rebuckets = 0;     ///< Index cell changes from mobility.
  std::uint64_t handoffs = 0;      ///< Owner changes from mobility.
  double delivered_bits = 0.0;
  // Control-plane observables (DESIGN.md Sec. 15). Like candidates and
  // rebuckets these describe how service was arranged, not the physics,
  // and are deliberately excluded from MetroStats::fingerprint.
  std::uint64_t readers_down = 0;      ///< Scripted-domain outages.
  std::uint64_t readers_suspected = 0; ///< Suspected entering the epoch.
  std::uint64_t tags_adopted = 0;      ///< Detected via a re-homed owner.
};

/// Cumulative run aggregate.
struct MetroStats {
  std::size_t tags = 0;
  std::size_t readers = 0;
  std::uint64_t epochs = 0;
  std::uint64_t detected = 0;
  std::uint64_t polls = 0;
  std::uint64_t successes = 0;
  std::uint64_t interference_pairs = 0;
  std::uint64_t moved = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t tags_read = 0;     ///< Tags read at least once, to date.
  double delivered_bits = 0.0;
  double energy_j = 0.0;           ///< Total stored energy right now.

  /// Digest of the physics-visible aggregates. Deliberately excludes the
  /// query-cost metrics (candidates, rebuckets): those describe how the
  /// answer was computed, and the indexed and linear paths must agree on
  /// everything else bit-for-bit.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

class MetroWorld {
 public:
  /// Throws std::invalid_argument when `config` fails validate().
  explicit MetroWorld(const MetroConfig& config);

  /// Advance one epoch (discovery, polling, harvest, mobility) on `pool`.
  /// Bit-identical for any pool size.
  MetroEpochStats run_epoch(sim::ThreadPool& pool);

  /// Cumulative aggregates including a fresh scan of the store columns.
  [[nodiscard]] MetroStats stats() const;

  /// Digest of the full per-tag state (pose, energy, every MAC/session
  /// column) — the strongest equality check between two runs.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  [[nodiscard]] const TagStore& store() const { return store_; }
  [[nodiscard]] const GridIndex& index() const { return index_; }
  [[nodiscard]] const BatchLinkModel& link_model() const { return model_; }
  [[nodiscard]] const MetroConfig& config() const { return config_; }

  /// Candidates evaluated by the linear-scan path so far (the counter
  /// GridIndex::cost() provides for the indexed path).
  [[nodiscard]] std::uint64_t linear_candidates() const {
    return linear_candidates_;
  }

  /// Attached control-plane monitor; nullptr when config.control_plane is
  /// false. Suspicion state is as of the last run_epoch.
  [[nodiscard]] const resil::HealthMonitor* monitor() const {
    return monitor_ ? &*monitor_ : nullptr;
  }

  [[nodiscard]] int readers() const { return config_.readers_x * config_.readers_y; }
  [[nodiscard]] double reader_x(int r) const;
  [[nodiscard]] double reader_y(int r) const;
  /// Closed-form nearest reader for a position (regular grid: the reader
  /// whose rectangle contains it); inline for the poll and mobility loops.
  [[nodiscard]] int owner_of(double x, double y) const {
    const int col = std::clamp(static_cast<int>(std::floor(x / reader_dx_)),
                               0, config_.readers_x - 1);
    const int row = std::clamp(static_cast<int>(std::floor(y / reader_dy_)),
                               0, config_.readers_y - 1);
    return row * config_.readers_x + col;
  }

 private:
  struct ReaderResult;

  MetroConfig config_;
  TagStore store_;
  GridIndex index_;
  BatchLinkModel model_;
  double reader_dx_ = 0.0;  ///< Reader grid spacing, width_m / readers_x.
  double reader_dy_ = 0.0;  ///< height_m / readers_y.
  double detect_range_m_ = 0.0;
  double gather_radius_m_ = 0.0;
  std::uint64_t poll_base_ = 0;
  std::uint64_t move_base_ = 0;
  std::uint64_t epochs_run_ = 0;
  std::uint64_t linear_candidates_ = 0;
  /// Engaged iff config_.control_plane; fed post-merge, every decision it
  /// outputs is consumed pre-fan-out on the coordinating thread.
  std::optional<resil::HealthMonitor> monitor_;

  // Cumulative counters (service columns hold the per-tag truth).
  std::uint64_t detected_total_ = 0;
  std::uint64_t polls_total_ = 0;
  std::uint64_t successes_total_ = 0;
  std::uint64_t interference_total_ = 0;
  std::uint64_t moved_total_ = 0;
  std::uint64_t handoffs_total_ = 0;
};

}  // namespace mmtag::scale
