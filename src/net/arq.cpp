#include "src/net/arq.hpp"

#include <cassert>

namespace mmtag::net {

ArqStats run_stop_and_wait(int frame_count,
                           double frame_success_probability,
                           const ArqConfig& config, sim::Rng& rng) {
  assert(frame_count >= 0);
  assert(frame_success_probability >= 0.0 &&
         frame_success_probability <= 1.0);
  ArqStats stats;
  stats.frames_offered = frame_count;
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  for (int f = 0; f < frame_count; ++f) {
    bool delivered = false;
    bool exhausted = false;
    int requery_budget = config.max_requeries_per_frame;
    for (int attempt = 0; attempt < config.max_attempts_per_frame;
         ++attempt) {
      if (attempt > 0) {
        // Each retry is preceded by a re-query; a lost one never reached
        // the tag (no replay, no transmission), so it burns the re-query
        // budget — not a frame attempt — and is retried immediately.
        bool query_through = false;
        while (requery_budget > 0) {
          if (coin(rng) < config.query_loss_probability) {
            ++stats.query_failures;
            --requery_budget;
            continue;
          }
          query_through = true;
          break;
        }
        if (!query_through) {
          exhausted = true;
          break;
        }
      }
      ++stats.transmissions;
      if (coin(rng) < frame_success_probability) {
        delivered = true;
        break;
      }
    }
    if (delivered) {
      ++stats.frames_delivered;
    } else {
      ++stats.frames_failed;
      if (exhausted) ++stats.requery_exhausted;
    }
  }
  return stats;
}

double expected_transmissions_per_frame(double frame_success_probability,
                                        const ArqConfig& config) {
  assert(frame_success_probability > 0.0);
  // Each retry round succeeds in reaching the tag with probability
  // (1 - q); the effective per-round success is p * (1 - q) after the
  // first round. Approximate with the dominant geometric term.
  const double q = config.query_loss_probability;
  const double p_eff = frame_success_probability * (1.0 - q);
  return 1.0 / p_eff;
}

double arq_goodput_factor(double frame_success_probability,
                          const ArqConfig& config) {
  if (frame_success_probability <= 0.0) return 0.0;
  return 1.0 /
         expected_transmissions_per_frame(frame_success_probability, config);
}

}  // namespace mmtag::net
