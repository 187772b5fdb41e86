#include "src/fault/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <random>

#include "src/core/harvester.hpp"
#include "src/obs/stats.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::fault {

namespace {

// Stream tags for derive_seed: one family per fault concern, so adding a
// draw to one model never shifts another model's realization.
constexpr std::uint64_t kOutageStream = 0x6F757467ull;  // "outg"
constexpr std::uint64_t kBrownPopStream = 0x62727770ull;  // "brwp"
constexpr std::uint64_t kBrownEpochStream = 0x62727765ull;  // "brwe"
constexpr std::uint64_t kStuckStream = 0x7374636Bull;  // "stck"
constexpr std::uint64_t kBlockStream = 0x626C636Bull;  // "blck"
constexpr std::uint64_t kDriftStream = 0x64726674ull;  // "drft"

/// What an energy-constrained tag harvests from between read bursts.
constexpr core::HarvestSource kBrownoutSource =
    core::HarvestSource::kIndoorLight;

}  // namespace

std::uint64_t fingerprint(const FaultReport& report) {
  obs::Fnv1a hasher;
  hasher.mix_u64(static_cast<std::uint64_t>(report.reader_outages));
  hasher.mix_double(report.reader_downtime_s);
  hasher.mix_u64(static_cast<std::uint64_t>(report.orphan_handoffs));
  hasher.mix_double(report.orphaned_tag_s);
  hasher.mix_double(report.availability);
  hasher.mix_double(report.mttr_mean_s);
  hasher.mix_double(report.mttr_max_s);
  hasher.mix_u64(static_cast<std::uint64_t>(report.tag_brownout_epochs));
  hasher.mix_u64(static_cast<std::uint64_t>(report.tag_blocked_epochs));
  hasher.mix_u64(static_cast<std::uint64_t>(report.stuck_tags));
  hasher.mix_u64(report.cache_evictions);
  hasher.mix_u64(static_cast<std::uint64_t>(report.polls_timed_out));
  hasher.mix_u64(static_cast<std::uint64_t>(report.quarantines));
  return hasher.digest();
}

FaultEngine::FaultEngine(FaultSchedule schedule, std::size_t readers,
                         std::size_t tags, int epochs,
                         double epoch_duration_s, std::uint64_t seed)
    : schedule_(std::move(schedule)),
      readers_(readers),
      tags_(tags),
      epochs_(epochs),
      epoch_duration_s_(epoch_duration_s),
      seed_(seed) {
  schedule_.validate("FaultEngine::schedule.");
  const double run_s = static_cast<double>(epochs_) * epoch_duration_s_;
  timelines_ = build_outage_timelines(schedule_.outages, readers_, run_s,
                                      sim::derive_seed(seed_, kOutageStream));

  tag_energy_constrained_.assign(tags_, 0);
  if (schedule_.brownouts.active()) {
    const core::EnergyHarvester harvester =
        core::EnergyHarvester::mmtag_with(kBrownoutSource);
    brownout_probability_ =
        std::clamp(1.0 - harvester.duty_cycle(kBrownoutBurstLoadW), 0.0, 1.0);
    sim::Rng rng =
        sim::make_rng(sim::derive_seed(seed_, kBrownPopStream));
    std::bernoulli_distribution affected(
        schedule_.brownouts.affected_fraction);
    for (std::size_t t = 0; t < tags_; ++t) {
      tag_energy_constrained_[t] = affected(rng) ? 1 : 0;
    }
  }

  tag_stuck_.assign(tags_, 0);
  if (schedule_.stuck.active()) {
    stuck_penalty_db_ = schedule_.stuck.penalty_db();
    sim::Rng rng = sim::make_rng(sim::derive_seed(seed_, kStuckStream));
    std::bernoulli_distribution affected(schedule_.stuck.affected_fraction);
    for (std::size_t t = 0; t < tags_; ++t) {
      tag_stuck_[t] = affected(rng) ? 1 : 0;
      stuck_tag_count_ += tag_stuck_[t];
    }
  }

  // Every link starts the run unobstructed; chains evolve per epoch.
  ge_bad_.assign(tags_, 0);

  reader_drift_ppm_.assign(readers_, 0.0);
  if (schedule_.drift.active()) {
    sim::Rng rng = sim::make_rng(sim::derive_seed(seed_, kDriftStream));
    std::normal_distribution<double> drift(0.0, schedule_.drift.sigma_ppm);
    for (std::size_t r = 0; r < readers_; ++r) {
      reader_drift_ppm_[r] = drift(rng);
    }
  }

  current_.reader_up.assign(readers_, 1.0);
  current_.reader_restarted.assign(readers_, 0);
  current_.reader_skew_loss_s.assign(readers_, 0.0);
  current_.tag_brownout.assign(tags_, 0);
  current_.tag_loss_db.assign(tags_, 0.0);
  current_.tag_blocked.assign(tags_, 0);
}

const EpochFaults& FaultEngine::begin_epoch(int epoch) {
  assert(epoch == next_epoch_ && "epochs must be stepped consecutively");
  next_epoch_ = epoch + 1;
  const double from_s = static_cast<double>(epoch) * epoch_duration_s_;
  const double to_s = from_s + epoch_duration_s_;

  for (std::size_t r = 0; r < readers_; ++r) {
    const double overlap = outage_overlap_s(timelines_[r], from_s, to_s);
    const double up =
        epoch_duration_s_ > 0.0
            ? std::clamp(1.0 - overlap / epoch_duration_s_, 0.0, 1.0)
            : 1.0;
    // Restart edge: the reader spent the previous epoch fully down and
    // serves again now. (A sub-epoch blip is absorbed by the airtime
    // budget and never tears down state, so it is not a restart.)
    current_.reader_restarted[r] =
        (epoch > 0 && current_.reader_up[r] == 0.0 && up > 0.0) ? 1 : 0;
    current_.reader_up[r] = up;
    current_.reader_skew_loss_s[r] =
        std::abs(reader_drift_ppm_[r]) * 1e-6 * epoch_duration_s_;
  }

  if (schedule_.brownouts.active()) {
    sim::Rng rng = sim::make_rng(sim::derive_seed(
        sim::derive_seed(seed_, kBrownEpochStream),
        static_cast<std::uint64_t>(epoch)));
    std::bernoulli_distribution browned(brownout_probability_);
    for (std::size_t t = 0; t < tags_; ++t) {
      current_.tag_brownout[t] =
          (tag_energy_constrained_[t] != 0 && browned(rng)) ? 1 : 0;
    }
  }

  if (schedule_.blockage.active()) {
    const double p_enter =
        1.0 - std::exp(-schedule_.blockage.enter_rate_hz * epoch_duration_s_);
    const double p_exit =
        1.0 - std::exp(-epoch_duration_s_ / schedule_.blockage.mean_burst_s);
    sim::Rng rng = sim::make_rng(
        sim::derive_seed(sim::derive_seed(seed_, kBlockStream),
                         static_cast<std::uint64_t>(epoch)));
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    for (std::size_t t = 0; t < tags_; ++t) {
      const double u = uniform(rng);
      ge_bad_[t] = ge_bad_[t] != 0 ? (u < p_exit ? 0 : 1)
                                   : (u < p_enter ? 1 : 0);
    }
    current_.block_probability = schedule_.blockage.block_probability;
  }

  for (std::size_t t = 0; t < tags_; ++t) {
    current_.tag_blocked[t] = ge_bad_[t];
    double loss = tag_stuck_[t] != 0 ? stuck_penalty_db_ : 0.0;
    if (ge_bad_[t] != 0) loss += kBlockageAttenuationDb;
    current_.tag_loss_db[t] = loss;
  }
  return current_;
}

std::vector<double> FaultEngine::recovery_times_s(
    bool reassign_orphans) const {
  const double run_s = static_cast<double>(epochs_) * epoch_duration_s_;
  std::vector<double> recoveries;
  for (const std::vector<Outage>& timeline : timelines_) {
    for (const Outage& o : timeline) {
      if (o.start_s >= run_s) continue;
      const double wait_out = std::min(o.end_s(), run_s) - o.start_s;
      if (!reassign_orphans || epoch_duration_s_ <= 0.0) {
        recoveries.push_back(wait_out);
        continue;
      }
      // With re-handoff, service resumes at the start of the first epoch
      // the outage fully covers (orphans re-home at that boundary). An
      // outage too short to blank a whole epoch is repaired only when the
      // reader itself returns.
      const int first_epoch = static_cast<int>(
          std::ceil(o.start_s / epoch_duration_s_ - 1e-12));
      const double boundary =
          static_cast<double>(first_epoch) * epoch_duration_s_;
      if (first_epoch < epochs_ &&
          o.end_s() >= boundary + epoch_duration_s_ - 1e-12) {
        recoveries.push_back(boundary - o.start_s);
      } else {
        recoveries.push_back(wait_out);
      }
    }
  }
  return recoveries;
}

}  // namespace mmtag::fault
