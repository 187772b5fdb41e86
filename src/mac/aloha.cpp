#include "src/mac/aloha.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace mmtag::mac {

namespace {

/// EPC Qfp adjustment constant.
constexpr double kEpcC = 0.5;

int clamp_q(double q) {
  return std::clamp(static_cast<int>(std::round(q)), 0, 15);
}

}  // namespace

AlohaStats run_framed_aloha(int tag_count, const AlohaConfig& config,
                            sim::Rng& rng) {
  assert(tag_count >= 0);
  AlohaStats stats;
  stats.tags_total = tag_count;

  int remaining = tag_count;
  double qfp = static_cast<double>(config.initial_q);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  while (remaining > 0 && stats.rounds < config.max_rounds) {
    ++stats.rounds;
    int q = clamp_q(qfp);
    if (config.policy == QPolicy::kOptimal) {
      // Frame size matched to the population: optimal slot count ~= tags.
      q = clamp_q(std::log2(std::max(1, remaining)));
    }
    const int slots = 1 << q;
    stats.slots_total += slots;

    // Each unread tag picks a slot uniformly.
    std::vector<int> occupancy(static_cast<std::size_t>(slots), 0);
    std::uniform_int_distribution<int> pick(0, slots - 1);
    for (int t = 0; t < remaining; ++t) {
      ++occupancy[static_cast<std::size_t>(pick(rng))];
    }

    int read_this_round = 0;
    for (const int occupants : occupancy) {
      if (occupants == 0) {
        ++stats.slots_empty;
        if (config.policy == QPolicy::kEpc) {
          qfp = std::max(0.0, qfp - kEpcC);
        }
      } else if (occupants == 1) {
        if (coin(rng) <= config.slot_success_probability) {
          ++stats.slots_success;
          ++read_this_round;
        } else {
          // Link error: the tag stays unread but the slot is spent.
          ++stats.slots_empty;
        }
      } else {
        ++stats.slots_collision;
        if (config.policy == QPolicy::kEpc) {
          qfp = std::min(15.0, qfp + kEpcC);
        }
      }
    }
    remaining -= read_this_round;
    stats.tags_read += read_this_round;
  }
  return stats;
}

}  // namespace mmtag::mac
