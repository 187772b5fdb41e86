// Phi-accrual-style failure detection from observed outcomes.
//
// The monitor watches entities (readers, backhaul links) through the only
// evidence a deployed control plane actually has: per-epoch counts of
// attempts and successes reported by the data path. It never reads the
// FaultSchedule — detection is inference, not oracle lookup.
//
// Model: an epoch is a *miss* when the entity produced no success (zero
// successes against nonzero attempts, or silence — a down reader reports
// nothing at all). Healthy miss probability is tracked per entity with an
// EWMA learned only from non-streak evidence (a success epoch, or the
// first miss after a success) so a long outage cannot poison its own
// detector. The suspicion level is the phi-accrual statistic
//
//   phi = miss_streak * -log10(p_miss_healthy)
//
// i.e. the improbability, in decades, of the observed consecutive-miss
// run under the healthy model. With the default floor p >= 0.05 a single
// miss already contributes >= 1.3 decades, so a hard outage crosses the
// default threshold (phi >= 1) in one epoch and even a noisy entity
// crosses within two — the detection-lag gate bench_r1_resil enforces.
//
// Threading contract (DESIGN.md Sec. 15): record() is wait-free and may
// be called from any worker (per-entity relaxed atomics; integer adds
// commute, so totals are bit-identical for any interleaving). All
// *stateful* detection — the snapshot, the EWMA update, the phi draw, the
// serve/probe decision — happens in end_epoch() on the coordinating
// thread, walking entities in fixed index order. Thread count therefore
// cannot influence a single suspicion bit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmtag::resil {

struct HealthConfig {
  /// Suspicion threshold in decades of improbability.
  double phi_suspect = 1.0;
  /// Floor on the learned healthy miss probability. Keeps one miss worth
  /// -log10(0.05) ~ 1.3 decades even for an entity with a spotless
  /// history, bounding detection lag from above.
  double min_miss_probability = 0.05;
  /// Ceiling on the learned healthy miss probability; above it the
  /// "healthy" model would explain any outage away. At 0.3 one miss is
  /// worth >= 0.52 decades, so even the noisiest entity is suspected
  /// within two consecutive misses — the structural bound behind the
  /// detection-lag gate.
  double max_miss_probability = 0.3;
  /// EWMA weight of one new miss-rate observation.
  double ewma_alpha = 0.2;
  /// Suspected entities are re-probed every this many epochs (half-open:
  /// one serving epoch; a success clears suspicion, silence re-confirms
  /// it). Must be >= 1.
  int probe_interval_epochs = 2;

  /// Throws std::invalid_argument naming the first out-of-range field.
  void validate() const;
};

class HealthMonitor {
 public:
  /// Throws std::invalid_argument when `config` fails validate().
  explicit HealthMonitor(std::size_t entities, HealthConfig config = {});

  /// Report one epoch's outcomes for `entity`. Wait-free; callable from
  /// parallel workers while the epoch runs.
  void record(std::size_t entity, std::uint64_t attempts,
              std::uint64_t successes) noexcept;

  /// Snapshot every entity's reported counts, update the suspicion state,
  /// and zero the accumulators for the next epoch. Coordinating thread
  /// only, after the fan-out joined; entities are walked in index order.
  void end_epoch();

  [[nodiscard]] std::size_t entities() const { return state_.size(); }
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }

  /// Suspicion as of the last end_epoch().
  [[nodiscard]] double phi(std::size_t entity) const {
    return state_[entity].phi;
  }
  [[nodiscard]] bool suspected(std::size_t entity) const {
    return state_[entity].phi >= config_.phi_suspect;
  }
  /// Degraded-mode service decision: serve the entity this epoch? True
  /// for healthy entities always, and for suspected ones only on their
  /// periodic probe epoch (the half-open gap that lets recovery clear).
  [[nodiscard]] bool should_serve(std::size_t entity) const {
    return state_[entity].serve;
  }
  [[nodiscard]] std::size_t suspected_count() const { return suspected_count_; }
  /// Epoch (1-based end_epoch count) the entity was first suspected in
  /// its current suspicion episode; 0 when never / not currently.
  [[nodiscard]] std::uint64_t suspected_since(std::size_t entity) const {
    return state_[entity].suspected_since;
  }

  [[nodiscard]] const HealthConfig& config() const { return config_; }

  /// FNV-1a digest of the full detection state (phi, streaks, EWMA,
  /// serve bits, in entity order) — the bit-identity check bench_r1_resil
  /// compares across thread counts.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  struct alignas(64) Accumulator {
    std::atomic<std::uint64_t> attempts{0};
    std::atomic<std::uint64_t> successes{0};
  };
  struct EntityState {
    double ewma_miss = 0.0;   ///< Learned healthy miss probability.
    double phi = 0.0;
    int miss_streak = 0;
    int probe_countdown = 0;  ///< Epochs until a suspected entity probes.
    bool serve = true;
    bool last_was_miss = false;
    std::uint64_t suspected_since = 0;
  };

  HealthConfig config_;
  std::vector<Accumulator> accum_;
  std::vector<EntityState> state_;
  std::size_t suspected_count_ = 0;
  std::uint64_t epochs_ = 0;
};

}  // namespace mmtag::resil
