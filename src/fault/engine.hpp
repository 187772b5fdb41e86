// Deterministic fault-injection engine: realizes a FaultSchedule into
// per-epoch fault state for a fleet of M readers and N tags.
//
// All randomness is drawn on the coordinating thread from streams derived
// via sim::derive_seed, one stream family per concern (outage timelines,
// brownouts, blockage chains, drift, fault population membership), and the
// per-epoch state is computed *before* the parallel cell fan-out. Thread
// count therefore cannot influence a single draw — chaos runs fingerprint
// bit-identically at 1, 4, or hw threads, the same structural guarantee
// the sweep engine and fleet merge order provide (DESIGN.md Sec. 7/8).
//
// The engine is epoch-stepped: begin_epoch(e) must be called with
// consecutive epochs starting at 0 (the Gilbert-Elliott chains and the
// restart-edge detection carry state across epochs).
#pragma once

#include <cstdint>
#include <vector>

#include "src/fault/schedule.hpp"

namespace mmtag::fault {

/// The realized fault state of one epoch. Reader vectors are indexed by
/// cell, tag vectors by global tag index (layout order).
struct EpochFaults {
  /// Fraction of the epoch each reader is in service ([0, 1]; 0 = the
  /// outage covers the whole epoch and the reader's tags are orphaned).
  std::vector<double> reader_up;
  /// Reader recovered this epoch from a full-epoch outage (restart edge —
  /// the fleet drops the reader's link cache and quarantine list).
  std::vector<std::uint8_t> reader_restarted;
  /// Airtime lost to TDM slot misalignment from clock drift [s].
  std::vector<double> reader_skew_loss_s;

  /// Tag is browned out: its harvester cap cannot carry this epoch's read
  /// burst, so it never responds.
  std::vector<std::uint8_t> tag_brownout;
  /// Extra link loss per tag [dB]: stuck-switch penalty plus blockage
  /// attenuation while the link's Gilbert-Elliott chain is in bad state.
  std::vector<double> tag_loss_db;
  /// Link currently in the blockage bad state (individual polls get no
  /// response with probability `block_probability`).
  std::vector<std::uint8_t> tag_blocked;
  double block_probability = 0.0;
};

/// What the chaos run did and how the stack coped; aggregated by
/// FleetSimulator and reported next to FleetStats.
struct FaultReport {
  int reader_outages = 0;          ///< Outage intervals overlapping the run.
  double reader_downtime_s = 0.0;  ///< Summed outage time inside the run.
  int orphan_handoffs = 0;         ///< Outage-triggered re-assignments.
  double orphaned_tag_s = 0.0;     ///< Tag-seconds spent bound to a dead reader.
  /// Served tag-epochs / total tag-epochs: 1.0 when every tag spent every
  /// epoch assigned to a live reader.
  double availability = 1.0;
  double mttr_mean_s = 0.0;        ///< Mean time-to-recovery per outage.
  double mttr_max_s = 0.0;
  int tag_brownout_epochs = 0;     ///< Tag-epochs spent browned out.
  int tag_blocked_epochs = 0;      ///< Tag-epochs spent in blockage bad state.
  int stuck_tags = 0;              ///< Tags with a stuck-at RF switch.
  std::uint64_t cache_evictions = 0;  ///< Link reports dropped on restarts.
  long polls_timed_out = 0;        ///< Unanswered polls (consumed timeouts).
  long quarantines = 0;            ///< Tags quarantined after retry budgets.
};

/// Order-independent digest of every FaultReport field (same canonical
/// FNV-1a rule as deploy::fingerprint) — chaos determinism tests compare
/// this across thread counts alongside the fleet fingerprint.
[[nodiscard]] std::uint64_t fingerprint(const FaultReport& report);

class FaultEngine {
 public:
  /// Realize `schedule` for `readers` x `tags` over `epochs` epochs of
  /// `epoch_duration_s`. All outage timelines and static fault-population
  /// membership (energy-constrained tags, stuck switches, drift) are drawn
  /// here; per-epoch state is drawn in begin_epoch.
  FaultEngine(FaultSchedule schedule, std::size_t readers, std::size_t tags,
              int epochs, double epoch_duration_s, std::uint64_t seed);

  /// Compute (and return a reference to) the fault state of `epoch`.
  /// Must be called with consecutive epochs starting at 0, from one thread.
  const EpochFaults& begin_epoch(int epoch);

  [[nodiscard]] const EpochFaults& current() const { return current_; }
  [[nodiscard]] const std::vector<std::vector<Outage>>& outage_timelines()
      const {
    return timelines_;
  }
  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  /// Tags whose RF switch is stuck (static population).
  [[nodiscard]] int stuck_tag_count() const { return stuck_tag_count_; }
  /// Per-epoch brownout probability of an energy-constrained tag.
  [[nodiscard]] double brownout_probability() const {
    return brownout_probability_;
  }

  /// Time-to-recovery of every outage interval in the run window.
  /// With orphan re-handoff, an outage is repaired at the start of the
  /// first epoch it fully covers (tags re-home at the epoch boundary);
  /// shorter outages never orphan anyone and repair when the reader
  /// returns. Without re-handoff, tags wait out the whole outage.
  [[nodiscard]] std::vector<double> recovery_times_s(
      bool reassign_orphans) const;

 private:
  FaultSchedule schedule_;
  std::size_t readers_;
  std::size_t tags_;
  int epochs_;
  double epoch_duration_s_;
  std::uint64_t seed_;

  std::vector<std::vector<Outage>> timelines_;
  std::vector<double> reader_drift_ppm_;
  std::vector<std::uint8_t> tag_energy_constrained_;
  std::vector<std::uint8_t> tag_stuck_;
  std::vector<std::uint8_t> ge_bad_;  ///< Gilbert-Elliott state per tag.
  double brownout_probability_ = 0.0;
  double stuck_penalty_db_ = 0.0;
  int stuck_tag_count_ = 0;
  int next_epoch_ = 0;
  EpochFaults current_;
};

}  // namespace mmtag::fault
