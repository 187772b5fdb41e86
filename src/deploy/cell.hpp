// One reader's cell: beam-scan inventory + polling over cached links.
//
// A cell is the unit of parallelism in the fleet simulator: one reader,
// the tags currently assigned to it, and a private LinkCache. Each epoch
// the cell runs the paper's Sec. 9 MAC ladder — SDM beam scan with framed
// slotted Aloha to *discover* tags, then collision-free polling to serve
// them — as one timeline: a scan loop and then a poll loop advance a
// single airtime clock by each dwell and each poll's cost. The
// coordinator's CellPlan scales the cell's airtime share (TDM) and loads
// its receiver with cross-cell interference, which converts cached link
// budgets into SINR-limited rates at lookup time (so cached entries stay
// valid when the coordination policy changes). The epoch's realized fault
// state shrinks the airtime budget, silences browned-out and blocked tags
// and attenuates links; unanswered polls run the retry/backoff/quarantine
// machine of fault::RecoveryConfig. A fault-free epoch is simply one whose
// EpochFaults are all up, lossless and unblocked.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/antenna/codebook.hpp"
#include "src/channel/environment.hpp"
#include "src/core/tag.hpp"
#include "src/deploy/fleet_stats.hpp"
#include "src/deploy/link_cache.hpp"
#include "src/fault/engine.hpp"
#include "src/mac/aloha.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::deploy {

struct CellConfig {
  mac::AlohaConfig aloha;
  std::size_t payload_bits = 96;  ///< EPC-96-style identifier.
  double beam_switch_overhead_s = 100e-6;
  /// Scan sector half-angle about the reader's mounting orientation. A
  /// deployment cell defaults to a full-circle scan (ceiling-mounted
  /// reader serving tags on every side); narrow to ±60 deg to model the
  /// paper's bench prototype horn.
  double sector_half_angle_rad = 3.141592653589793;
  double beamwidth_deg = 17.0;
};

/// What the coordinator grants a cell for one epoch.
struct CellPlan {
  double airtime_share = 1.0;        ///< Fraction of wall time on air (TDM).
  double interference_dbm = -300.0;  ///< Cross-cell load at the receiver.
  int channel = 0;                   ///< Frequency channel (bookkeeping).
};

/// One epoch's outcome for one cell, in assignment order.
struct CellEpochResult {
  int cell_index = 0;
  int tags_assigned = 0;
  int tags_discovered = 0;
  double airtime_s = 0.0;  ///< Airtime consumed (<= share * duration).
  double utilization = 0.0;  ///< airtime_s / (share * duration).
  long polls_timed_out = 0;  ///< Unanswered polls that burned a timeout.
  long quarantines = 0;      ///< Tags quarantined after the retry budget.
  /// Per assigned tag, same order as the `tag_indices` passed to
  /// run_epoch; first_read_s is absolute fleet time.
  std::vector<TagService> service;
};

class ReaderCell {
 public:
  /// `env` and `rates` must outlive the cell. The reader is steered by the
  /// cell; its scan codebook covers ±sector_half_angle about the pose
  /// orientation. `recovery` supplies the poll retry/backoff/quarantine
  /// knobs. `use_cache == false` re-traces on every lookup (bench
  /// baseline).
  ReaderCell(int index, reader::MmWaveReader reader,
             const channel::Environment* env, const phy::RateTable* rates,
             CellConfig config, fault::RecoveryConfig recovery,
             bool use_cache = true);

  /// Run one epoch of `duration_s` wall time starting at absolute fleet
  /// time `start_s`. `tag_indices` select this cell's tags from the shared
  /// `tags` vector; `faults` is the epoch's realized fault state (reader
  /// vectors indexed by cell index, tag vectors by global tag index) and
  /// `rng` a cell-private stream. Touches only cell-owned state, so
  /// distinct cells may run concurrently.
  [[nodiscard]] CellEpochResult run_epoch(
      const std::vector<core::MmTag>& tags,
      const std::vector<std::size_t>& tag_indices, const CellPlan& plan,
      double start_s, double duration_s, const fault::EpochFaults& faults,
      sim::Rng& rng);

  /// Forward a tag move to the cache.
  void on_tag_moved(std::uint32_t tag_id) { cache_.invalidate_tag(tag_id); }

  /// The reader came back from a full-epoch outage: drop the memoized link
  /// state (a power-cycled reader re-calibrates) and clear the quarantine
  /// list (pre-outage failure history is meaningless after the restart).
  /// Returns the number of cache entries evicted.
  std::uint64_t on_reader_restarted() {
    quarantine_.clear();
    return cache_.invalidate_all();
  }

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] const reader::MmWaveReader& reader() const {
    return cache_.reader();
  }
  [[nodiscard]] const LinkCache& cache() const { return cache_; }
  [[nodiscard]] const std::vector<antenna::Beam>& codebook() const {
    return codebook_;
  }
  [[nodiscard]] const CellConfig& config() const { return config_; }

 private:
  int index_;
  const phy::RateTable* rates_;
  CellConfig config_;
  fault::RecoveryConfig recovery_;
  LinkCache cache_;
  std::vector<antenna::Beam> codebook_;
  /// Where the next epoch's scan resumes. A tight airtime budget (TDM with
  /// many cells) can truncate a scan mid-sector; resuming instead of
  /// restarting guarantees every beam is eventually visited.
  std::size_t scan_cursor_ = 0;
  /// Tags sitting out a quarantine, tag_id -> epochs remaining.
  std::unordered_map<std::uint32_t, int> quarantine_;
};

}  // namespace mmtag::deploy
