// Fault schedules: what can break in a deployed mmTag fleet, and when.
//
// A batteryless warehouse network operates in a regime of constant partial
// failure — harvester brownouts, mmWave blockage bursts, stuck RF switches,
// reader outages and clock drift (impairments treated as first-class by the
// hardware-impairment literature, see PAPERS.md). A FaultSchedule describes
// those processes declaratively: Poisson arrival rates plus fixed scripted
// events, each model independently activatable. The FaultEngine (engine.hpp)
// realizes a schedule into per-epoch fault state using the repo's
// derive_seed stream discipline, so every chaos run is bit-reproducible at
// any thread count.
//
// A default-constructed schedule arms no model: the engine realizes it as
// every reader up with zero skew and every tag lossless, never browned out
// and never blocked, so a fault-free fleet runs the same code as a chaos
// run.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "src/core/energy.hpp"

namespace mmtag::fault {

/// One contiguous service interruption [start_s, start_s + duration_s).
struct Outage {
  double start_s = 0.0;
  double duration_s = 0.0;

  [[nodiscard]] double end_s() const { return start_s + duration_s; }
};

/// A fixed, scripted outage of one reader (merged with Poisson arrivals).
struct ScriptedOutage {
  int reader = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
};

/// Reader outages and restarts: power cycles, fronthaul loss, watchdog
/// reboots. Poisson arrivals per reader with exponential durations, plus
/// scripted events for reproducing specific incident shapes.
struct ReaderOutageModel {
  double rate_hz = 0.0;          ///< Mean outage arrivals per reader [1/s].
  double mean_duration_s = 0.0;  ///< Mean outage length (exponential).
  std::vector<ScriptedOutage> scripted;

  [[nodiscard]] bool active() const {
    return (rate_hz > 0.0 && mean_duration_s > 0.0) || !scripted.empty();
  }
};

/// Load a brownout-model tag's storage cap must carry per read burst [W].
inline constexpr double kBrownoutBurstLoadW = 5e-3;

/// Dead-harvester brownouts driven by the existing energy model: an
/// energy-constrained tag whose storage cap cannot sustain the read-burst
/// load sits dark while it recharges. The per-epoch brownout probability is
/// 1 - duty_cycle(kBrownoutBurstLoadW) of the prototype harvester on indoor
/// light.
struct BrownoutModel {
  double affected_fraction = 0.0;  ///< Fraction of tags energy-constrained.

  [[nodiscard]] bool active() const { return affected_fraction > 0.0; }
};

/// Stuck-at RF-switch faults: FETs on the common data line frozen in one
/// state no longer modulate, so the Van Atta differential (bit-0 minus
/// bit-1) field loses the stuck elements' contribution. The received-power
/// penalty is the two-way aperture ratio 20*log10(E / (E - s)), with E the
/// prototype array's element count (core::VanAttaArray::mmtag_prototype).
struct StuckSwitchModel {
  double affected_fraction = 0.0;  ///< Fraction of tags with a stuck FET.
  int stuck_elements = 1;          ///< Stuck FETs per affected tag.

  [[nodiscard]] bool active() const {
    return affected_fraction > 0.0 && stuck_elements > 0;
  }
  /// Extra link loss of an affected tag [dB]; effectively infinite
  /// (kDeadLinkDb) when every element is stuck.
  [[nodiscard]] double penalty_db() const;
};

/// Extra loss of a blocked link whose queries still get through [dB].
inline constexpr double kBlockageAttenuationDb = 15.0;

/// Gilbert-Elliott blockage bursts per link: a two-state Markov chain
/// stepped once per epoch. In the bad state a fraction of individual
/// queries get no response at all (forklift in the Fresnel zone) and the
/// rest arrive attenuated by kBlockageAttenuationDb (diffraction around the
/// obstruction).
struct BlockageModel {
  double enter_rate_hz = 0.0;      ///< good -> bad transitions [1/s].
  double mean_burst_s = 0.0;       ///< Mean bad-state dwell [s].
  double block_probability = 0.8;  ///< P(no response to one poll | bad).

  [[nodiscard]] bool active() const {
    return enter_rate_hz > 0.0 && mean_burst_s > 0.0;
  }
};

/// Reader clock drift/skew: a drifting reader mis-times its TDM slot and
/// burns the misalignment as guard time. Readers resynchronize at epoch
/// boundaries (the coordinator beacon), so the airtime lost per epoch is
/// |drift| * epoch_duration.
struct ClockDriftModel {
  double sigma_ppm = 0.0;  ///< Per-reader drift stddev [parts per million].

  [[nodiscard]] bool active() const { return sigma_ppm > 0.0; }
};

/// Loss applied to a link whose tag can never be demodulated again.
inline constexpr double kDeadLinkDb = 300.0;

/// The full fault description attached to a FleetSimulator run. Each model
/// is independent; a default-constructed schedule injects nothing.
struct FaultSchedule {
  ReaderOutageModel outages;
  BrownoutModel brownouts;
  StuckSwitchModel stuck;
  BlockageModel blockage;
  ClockDriftModel drift;

  /// A representative chaos mix scaled by `intensity` in [0, 1]: reader
  /// outages (~0.4*i arrivals per reader-second, 0.5 s mean), 20%*i
  /// energy-constrained tags, 10%*i stuck-switch tags, blockage bursts and
  /// 100*i ppm clock drift. intensity <= 0 returns an empty schedule.
  [[nodiscard]] static FaultSchedule chaos(double intensity);

  /// Throws std::invalid_argument naming the first bad field, prefixed by
  /// `owner` (FleetConfig::validate passes "FleetConfig::faults."): rates,
  /// durations and sigma_ppm finite and >= 0; fractions and
  /// block_probability in [0, 1]; stuck_elements >= 0; scripted outages
  /// on a reader >= 0 with a finite start and duration. A caller that
  /// knows the reader count passes it as `readers`, named `readers_field`
  /// in the message, and a scripted reader >= it is rejected too:
  /// build_outage_timelines skips such an event, so a mistyped incident
  /// would run fault-free.
  void validate(std::string_view owner,
                int readers = std::numeric_limits<int>::max(),
                std::string_view readers_field = {}) const;
};

/// How the fleet fights back at epoch boundaries. The poll-level retry,
/// backoff and quarantine machine runs inside a cell's poll loop with
/// fixed constants (deploy/cell.hpp).
struct RecoveryConfig {
  /// Hand tags orphaned by a full-epoch reader outage to the nearest live
  /// reader at the next epoch boundary (and back after the restart).
  bool reassign_orphans = true;
};

/// Per-reader outage timelines over [0, duration_s): Poisson arrivals with
/// exponential lengths from derive_seed(seed, reader) streams, merged with
/// the scripted events, clipped to the run window, overlaps coalesced.
/// Deterministic in (model, readers, duration_s, seed).
[[nodiscard]] std::vector<std::vector<Outage>> build_outage_timelines(
    const ReaderOutageModel& model, std::size_t readers, double duration_s,
    std::uint64_t seed);

/// Total overlap between `outages` (sorted, disjoint) and [from_s, to_s).
[[nodiscard]] double outage_overlap_s(const std::vector<Outage>& outages,
                                      double from_s, double to_s);

}  // namespace mmtag::fault
