#include "src/resil/health.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/stats.hpp"

namespace mmtag::resil {

namespace {

obs::Counter& suspected_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("resil.health.suspected");
  return counter;
}
obs::Counter& cleared_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("resil.health.cleared");
  return counter;
}

}  // namespace

void HealthConfig::validate() const {
  if (probe_interval_epochs < 1) {
    throw std::invalid_argument(
        "HealthConfig::probe_interval_epochs must be >= 1");
  }
}

HealthMonitor::HealthMonitor(std::size_t entities, HealthConfig config)
    : config_(config), state_(entities) {
  config_.validate();
}

void HealthMonitor::end_epoch(std::span<const std::uint64_t> successes) {
  assert(successes.size() == state_.size());
  ++epochs_;
  suspected_count_ = 0;
  for (std::size_t e = 0; e < state_.size(); ++e) {
    // Only successes are evidence of health: zero is a miss.
    EntityState& s = state_[e];

    if (successes[e] == 0) {
      // Suspicion accrues against the *pre-miss* healthy model: the
      // clamped EWMA is read first, so a clean-history entity pays the
      // full floor improbability (>= 1.3 decades) on its first miss.
      const double p =
          std::clamp(s.ewma_miss, kMinMissProbability, kMaxMissProbability);
      const double per_miss = -std::log10(p);
      ++s.miss_streak;
      s.phi = static_cast<double>(s.miss_streak) * per_miss;
      // Only the streak's first miss is healthy-model evidence; the rest
      // is the failure in progress, which must not teach the detector
      // that being down is normal.
      if (!s.last_was_miss) {
        s.ewma_miss += kEwmaAlpha * (1.0 - s.ewma_miss);
      }
      s.last_was_miss = true;
    } else {
      s.ewma_miss *= 1.0 - kEwmaAlpha;
      s.miss_streak = 0;
      s.phi = 0.0;
      s.last_was_miss = false;
    }

    const bool suspect = s.phi >= kPhiSuspect;
    if (suspect) {
      ++suspected_count_;
      if (s.suspected_since == 0) {
        s.suspected_since = epochs_;
        s.probe_countdown = config_.probe_interval_epochs;
        suspected_metric().add(1);
      }
      // Half-open probe cadence: sit out probe_interval - 1 epochs, then
      // serve one probe epoch. A success there clears everything above;
      // continued silence just re-arms the countdown.
      --s.probe_countdown;
      if (s.probe_countdown <= 0) {
        s.serve = true;
        s.probe_countdown = config_.probe_interval_epochs;
      } else {
        s.serve = false;
      }
    } else {
      if (s.suspected_since != 0) cleared_metric().add(1);
      s.suspected_since = 0;
      s.probe_countdown = 0;
      s.serve = true;
    }
  }
}

std::uint64_t HealthMonitor::fingerprint() const {
  obs::Fnv1a h;
  h.mix_u64(epochs_);
  h.mix_u64(static_cast<std::uint64_t>(suspected_count_));
  for (const EntityState& s : state_) {
    h.mix_double(s.phi);
    h.mix_double(s.ewma_miss);
    h.mix_u64(static_cast<std::uint64_t>(s.miss_streak));
    h.mix_u64(s.serve ? 1 : 0);
    h.mix_u64(s.suspected_since);
  }
  return h.digest();
}

}  // namespace mmtag::resil
