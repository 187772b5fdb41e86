// Fleet statistics helpers (src/deploy/fleet_stats) and the obs
// percentile and Jain rules they are built on.
#include "src/deploy/fleet_stats.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/obs/stats.hpp"

namespace mmtag::deploy {
namespace {

TEST(Percentile, MedianOfOddCount) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {50.0})[0], 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  // Ranks 0..3; p50 falls exactly between 2.0 and 3.0.
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {50.0})[0], 2.5);
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {25.0})[0], 1.75);
}

TEST(Percentile, ExtremesAreMinAndMax) {
  const std::vector<double> xs{5.0, -1.0, 3.0};
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {0.0})[0], -1.0);
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {100.0})[0], 5.0);
}

TEST(Percentile, SingleValueIsEveryPercentile) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {1.0})[0], 7.0);
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {99.0})[0], 7.0);
}

TEST(Percentile, EmptyIsNaN) {
  const std::vector<double> none;
  EXPECT_TRUE(std::isnan(obs::percentiles({none}, {50.0})[0]));
}

TEST(Percentile, OutOfRangePctClamps) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {-10.0})[0], 1.0);
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {140.0})[0], 2.0);
}

TEST(JainFairness, EqualSharesAreUnity) {
  EXPECT_DOUBLE_EQ(obs::jain_fairness({4.0, 4.0, 4.0, 4.0}), 1.0);
}

TEST(JainFairness, OneHogOfNGivesOneOverN) {
  // A single non-zero share among n users scores exactly 1/n.
  EXPECT_DOUBLE_EQ(obs::jain_fairness({10.0, 0.0, 0.0, 0.0, 0.0}),
                   1.0 / 5.0);
}

TEST(JainFairness, DegenerateInputsAreZero) {
  EXPECT_DOUBLE_EQ(obs::jain_fairness({}), 0.0);
  EXPECT_DOUBLE_EQ(obs::jain_fairness({0.0, 0.0}), 0.0);
}

TEST(JainFairness, ScaleInvariant) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(obs::jain_fairness(a), obs::jain_fairness(b));
}

TEST(SummarizeService, CountsReadsAndLatencies) {
  std::vector<TagService> service(3);
  service[0].first_read_s = 0.010;
  service[0].delivered_bits = 960.0;
  service[1].first_read_s = 0.030;
  service[1].delivered_bits = 480.0;
  // service[2]: never read (first_read_s stays +inf), no goodput.
  EXPECT_TRUE(service[0].read());
  EXPECT_TRUE(service[1].read());
  EXPECT_FALSE(service[2].read());

  const FleetStats stats = summarize_service(service, 1.0);
  EXPECT_EQ(stats.tags_total, 3);
  EXPECT_EQ(stats.tags_read, 2);
  EXPECT_DOUBLE_EQ(stats.latency_p50_s, 0.020);
  EXPECT_DOUBLE_EQ(stats.latency_p99_s, 0.010 + 0.020 * 0.99);
  EXPECT_DOUBLE_EQ(stats.goodput_total_bps, 1440.0);
  EXPECT_DOUBLE_EQ(stats.goodput_mean_bps, 720.0);
  EXPECT_NEAR(stats.coverage(), 2.0 / 3.0, 1e-12);
  EXPECT_GT(stats.jain, 0.0);
  EXPECT_LT(stats.jain, 1.0);
}

TEST(Fingerprint, SensitiveToAnyObservable) {
  std::vector<TagService> service(2);
  service[0].first_read_s = 0.01;
  const FleetStats a = summarize_service(service, 1.0);

  FleetStats b = a;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  b.goodput_total_bps += 1e-9;
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Fingerprint, StableWhenNothingWasRead) {
  // NaN percentiles must hash canonically, not garbage.
  const std::vector<TagService> service(4);
  const FleetStats a = summarize_service(service, 1.0);
  const FleetStats b = summarize_service(service, 1.0);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

// --- Pinned regression values -------------------------------------------
// fleet_stats builds on obs::stats' percentile and Jain rules; these
// exact values were produced by the pre-refactor private copies and
// must never drift — they are what makes fleet fingerprints comparable
// across repo versions.

TEST(Fingerprint, PinnedValueForKnownStats) {
  FleetStats stats;
  stats.tags_total = 4;
  stats.tags_read = 3;
  stats.handoffs = 2;
  stats.duration_s = 2.5;
  stats.latency_p50_s = 0.125;
  stats.latency_p95_s = 0.5;
  stats.latency_p99_s = 1.0;
  stats.goodput_mean_bps = 1536.0;
  stats.goodput_total_bps = 2048.0;
  stats.jain = 0.75;
  stats.reader_utilization = 0.25;
  EXPECT_EQ(fingerprint(stats), 0xe5657db78100fc89ull);
}

TEST(Fingerprint, PinnedValueWithCanonicalNaNs) {
  // Four tags, none read: the latency percentiles are NaN and must hash
  // via the canonical quiet-NaN pattern, giving this exact digest.
  const std::vector<TagService> service(4);
  const FleetStats stats = summarize_service(service, 1.0);
  EXPECT_EQ(fingerprint(stats), 0x575c01476ca203a9ull);
}

TEST(Percentile, PinnedInterpolationBits) {
  // Exact IEEE results of the shared linear-interpolation rule; any
  // algorithm change (nearest-rank, exclusive interpolation, ...) breaks
  // these bits and with them every stored fleet fingerprint.
  const std::vector<double> xs{0.1, 0.2, 0.4, 0.8, 1.6};
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {95.0})[0], 0.8 + 0.8 * 0.8);
  EXPECT_DOUBLE_EQ(obs::percentiles({xs}, {10.0})[0], 0.1 + 0.4 * 0.1);
}

// --- Streaming implementation -------------------------------------------
// Frozen inputs -> frozen digests for the single-pass summarize_service.

TEST(SummarizeService, ColumnOverloadPinnedDigest) {
  // Pins the streaming implementation's arithmetic (single sort +
  // percentile_sorted, inline Jain recurrence) to the historical
  // materializing behaviour.
  constexpr std::size_t n = 16;
  std::vector<TagService> service(n);
  for (std::size_t t = 0; t < n; ++t) {
    if (t % 4 == 3) continue;
    service[t].first_read_s = 0.25 + 0.125 * static_cast<double>(t);
    service[t].delivered_bits = 64.0 * static_cast<double>(t + 1);
  }
  const FleetStats stats = summarize_service(service, 2.0);
  EXPECT_EQ(fingerprint(stats), 0x7a0154437371d9c2ull);
}

TEST(SummarizeService, ColumnOverloadEmptyAndUnreadCases) {
  const FleetStats empty = summarize_service({}, 1.0);
  EXPECT_EQ(empty.tags_total, 0);
  EXPECT_TRUE(std::isnan(empty.latency_p50_s));
  EXPECT_DOUBLE_EQ(empty.jain, 0.0);

  // All-unread tags reproduce the canonical-NaN pinned digest.
  const std::vector<TagService> unread(4);
  EXPECT_EQ(fingerprint(summarize_service(unread, 1.0)),
            0x575c01476ca203a9ull);
}

TEST(FleetStatsTable, RendersOneRow) {
  std::vector<TagService> service(1);
  service[0].first_read_s = 0.5;
  const FleetStats stats = summarize_service(service, 1.0);
  const sim::Table table = fleet_stats_table(stats);
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_NE(table.to_string().find("1/1"), std::string::npos);
}

}  // namespace
}  // namespace mmtag::deploy
