#include "src/deploy/fleet_stats.hpp"

#include <cmath>

#include "src/obs/stats.hpp"

namespace mmtag::deploy {

// One streaming pass that replicates the historical materializing
// implementation bit-for-bit:
//   * the Jain accumulators run over read tags' goodputs in tag order —
//     the exact element order obs::jain_fairness saw, with the same
//     sum / sum_sq recurrence and the same empty/all-zero guards;
//   * the latency sample goes through obs::percentiles once for all
//     three ranks — the same order statistics and interpolation a sort
//     plus obs::percentile_sorted produced.
// test_fleet_stats pins the resulting digests.
FleetStats summarize_service(const std::vector<TagService>& service,
                             double duration_s) {
  FleetStats stats;
  stats.tags_total = static_cast<int>(service.size());
  stats.duration_s = duration_s;

  std::vector<double> latencies;
  latencies.reserve(service.size());
  double read_goodput_sum = 0.0;
  double jain_sum = 0.0;
  double jain_sum_sq = 0.0;
  for (const TagService& tag : service) {
    const double goodput =
        duration_s > 0.0 ? tag.delivered_bits / duration_s : 0.0;
    stats.goodput_total_bps += goodput;
    if (!tag.read()) continue;
    ++stats.tags_read;
    latencies.push_back(tag.first_read_s);
    read_goodput_sum += goodput;
    jain_sum += goodput;
    jain_sum_sq += goodput * goodput;
  }
  const std::vector<double> latency =
      obs::percentiles({latencies}, {50.0, 95.0, 99.0});
  stats.latency_p50_s = latency[0];
  stats.latency_p95_s = latency[1];
  stats.latency_p99_s = latency[2];
  stats.goodput_mean_bps =
      stats.tags_read == 0
          ? 0.0
          : read_goodput_sum / static_cast<double>(stats.tags_read);
  stats.jain = (stats.tags_read == 0 || jain_sum_sq <= 0.0)
                   ? 0.0
                   : jain_sum * jain_sum /
                         (static_cast<double>(stats.tags_read) * jain_sum_sq);
  return stats;
}

std::uint64_t fingerprint(const FleetStats& stats) {
  // obs::Fnv1a uses the same offset basis, prime, and canonical-NaN rule
  // as the hand-rolled mixer this replaced, so fingerprints are unchanged.
  obs::Fnv1a hasher;
  hasher.mix_bytes(&stats.tags_total, sizeof(stats.tags_total));
  hasher.mix_bytes(&stats.tags_read, sizeof(stats.tags_read));
  hasher.mix_bytes(&stats.handoffs, sizeof(stats.handoffs));
  hasher.mix_double(stats.duration_s);
  hasher.mix_double(stats.latency_p50_s);
  hasher.mix_double(stats.latency_p95_s);
  hasher.mix_double(stats.latency_p99_s);
  hasher.mix_double(stats.goodput_mean_bps);
  hasher.mix_double(stats.goodput_total_bps);
  hasher.mix_double(stats.jain);
  hasher.mix_double(stats.reader_utilization);
  return hasher.digest();
}

sim::Table fleet_stats_table(const FleetStats& stats) {
  sim::Table table({"tags_read", "coverage", "p50_ms", "p95_ms", "p99_ms",
                    "tags/s", "goodput_mean", "jain", "reader_util",
                    "cache_hit", "handoffs"});
  const auto ms = [](double s) {
    return std::isnan(s) ? std::string("-") : sim::Table::fmt(s * 1e3, 2);
  };
  table.add_row({std::to_string(stats.tags_read) + "/" +
                     std::to_string(stats.tags_total),
                 sim::Table::fmt(stats.coverage() * 100.0, 1) + "%",
                 ms(stats.latency_p50_s), ms(stats.latency_p95_s),
                 ms(stats.latency_p99_s),
                 sim::Table::fmt(stats.tags_read_per_s(), 0),
                 sim::Table::fmt_rate(stats.goodput_mean_bps),
                 sim::Table::fmt(stats.jain, 3),
                 sim::Table::fmt(stats.reader_utilization, 3),
                 sim::Table::fmt(stats.cache_hit_rate(), 3),
                 std::to_string(stats.handoffs)});
  return table;
}

}  // namespace mmtag::deploy
