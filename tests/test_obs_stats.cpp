// Exact percentile selection (src/obs/stats): obs::percentiles must equal
// concatenate + std::sort + obs::percentile_sorted bit for bit, on any
// split of the sample into parts, without ever sorting the sample.
#include "src/obs/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/rng.hpp"

namespace mmtag::obs {
namespace {

using Parts = std::vector<std::vector<double>>;

std::vector<std::span<const double>> spans(const Parts& parts) {
  return std::vector<std::span<const double>>(parts.begin(), parts.end());
}

/// The reference: one pooled copy, one full sort, one interpolation per
/// pct.
std::vector<double> sorted_reference(const Parts& parts,
                                     const std::vector<double>& pcts) {
  std::vector<double> pooled;
  for (const std::vector<double>& part : parts) {
    pooled.insert(pooled.end(), part.begin(), part.end());
  }
  std::sort(pooled.begin(), pooled.end());
  std::vector<double> out;
  for (const double pct : pcts) out.push_back(percentile_sorted(pooled, pct));
  return out;
}

/// Asserts bit equality of every result (EXPECT_DOUBLE_EQ would forgive
/// the last ulps this test exists to pin).
void expect_matches_reference(const Parts& parts,
                              const std::vector<double>& pcts) {
  const std::vector<double> got = percentiles(spans(parts), pcts);
  const std::vector<double> want = sorted_reference(parts, pcts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "pct " << pcts[i] << ": got " << got[i] << ", want " << want[i];
  }
}

const std::vector<double> kPcts = {0.0,  0.1,  1.0,  25.0, 50.0, 75.0,
                                   90.0, 95.0, 99.0, 99.9, 100.0};

/// Splits `values` into `count` parts at random cut points (parts may be
/// empty).
Parts split(const std::vector<double>& values, std::size_t count,
            sim::Rng& rng) {
  std::uniform_int_distribution<std::size_t> cut(0, values.size());
  std::vector<std::size_t> cuts(count - 1);
  for (std::size_t& c : cuts) c = cut(rng);
  std::sort(cuts.begin(), cuts.end());
  Parts parts;
  std::size_t begin = 0;
  for (const std::size_t end : cuts) {
    parts.emplace_back(values.begin() + static_cast<std::ptrdiff_t>(begin),
                       values.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
  parts.emplace_back(values.begin() + static_cast<std::ptrdiff_t>(begin),
                     values.end());
  return parts;
}

TEST(Percentiles, EmptyUnionIsNaNForEveryPct) {
  for (const Parts& parts : {Parts{}, Parts{{}}, Parts{{}, {}, {}}}) {
    const std::vector<double> got = percentiles(spans(parts), kPcts);
    ASSERT_EQ(got.size(), kPcts.size());
    for (const double v : got) EXPECT_TRUE(std::isnan(v));
  }
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
}

TEST(Percentiles, NoPctsGiveNoResults) {
  EXPECT_TRUE(percentiles(spans({{1.0, 2.0}}), {}).empty());
}

TEST(Percentiles, SingleValueIsEveryPercentile) {
  expect_matches_reference({{7.5}}, kPcts);
  expect_matches_reference({{}, {-3.25}, {}}, kPcts);
  for (const double v : percentiles(spans({{7.5}}), kPcts)) {
    EXPECT_EQ(v, 7.5);
  }
}

TEST(Percentiles, TwoValuesInterpolate) {
  expect_matches_reference({{2.0, 1.0}}, kPcts);
  expect_matches_reference({{2.0}, {1.0}}, kPcts);
  EXPECT_EQ(percentiles(spans({{4.0}, {2.0}}), {50.0})[0], 3.0);
}

TEST(Percentiles, ExtremesAreMinAndMax) {
  const Parts parts = {{5.0, -1.0}, {}, {3.0, 9.5, 0.25}};
  const std::vector<double> got = percentiles(spans(parts), {0.0, 100.0});
  EXPECT_EQ(got[0], -1.0);
  EXPECT_EQ(got[1], 9.5);
  // Out-of-range pcts clamp, as percentile_sorted does.
  expect_matches_reference(parts, {-10.0, 140.0});
}

TEST(Percentiles, SeededRandomMultiPartInputsMatchSortBitForBit) {
  sim::Rng rng(0x70637473);  // "pcts"
  std::lognormal_distribution<double> latency(-7.0, 1.5);
  std::uniform_int_distribution<std::size_t> size(0, 3000);
  std::uniform_int_distribution<std::size_t> part_count(1, 9);
  std::uniform_real_distribution<double> pct(0.0, 100.0);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> values(size(rng));
    for (double& v : values) v = latency(rng);
    std::vector<double> pcts = kPcts;
    for (int i = 0; i < 8; ++i) pcts.push_back(pct(rng));
    expect_matches_reference(split(values, part_count(rng), rng), pcts);
  }
}

TEST(Percentiles, LargeSampleMatchesSortBitForBit) {
  // ~1e5 delivery-latency-like values over a few hundred flows.
  sim::Rng rng(0x6C617267);  // "larg"
  std::exponential_distribution<double> latency(2e3);
  std::vector<double> values(100'003);
  for (double& v : values) v = latency(rng);
  expect_matches_reference(split(values, 400, rng), kPcts);
}

TEST(Percentiles, HeavyDuplicatesMatchSortBitForBit) {
  sim::Rng rng(0x64757073);  // "dups"
  std::uniform_int_distribution<int> pick(0, 3);
  const double levels[] = {1e-4, 2.5e-4, 2.5e-4, 1.0};
  std::vector<double> values(20'000);
  for (double& v : values) v = levels[pick(rng)];
  expect_matches_reference(split(values, 7, rng), kPcts);
  expect_matches_reference({std::vector<double>(999, 0.125)}, kPcts);
}

TEST(Percentiles, EveryValueInOneKeyBucketMatchesSortBitForBit) {
  // [1, 1 + 1/16) shares sign, exponent and the leading four mantissa
  // bits: at 50,000 values the key is 16 bits wide, and one bucket holds
  // the whole sample.
  sim::Rng rng(0x6275636B);  // "buck"
  std::uniform_real_distribution<double> within(1.0, 1.0 + 1.0 / 32.0);
  std::vector<double> values(50'000);
  for (double& v : values) v = within(rng);
  expect_matches_reference(split(values, 5, rng), kPcts);
}

TEST(Percentiles, NegativeValuesAndSignedZerosMatchSortBitForBit) {
  sim::Rng rng(0x6E656773);  // "negs"
  std::normal_distribution<double> centered(0.0, 3.0);
  std::vector<double> values(30'000);
  for (double& v : values) v = centered(rng);
  for (std::size_t i = 0; i < values.size(); i += 97) {
    values[i] = (i / 97) % 2 == 0 ? 0.0 : -0.0;
  }
  expect_matches_reference(split(values, 6, rng), kPcts);
  expect_matches_reference({{-0.0, 0.0, -0.0}, {0.0}}, kPcts);
  expect_matches_reference({{-5.0, -1e-300, -2.0}, {-7.25}}, kPcts);
}

TEST(Percentiles, OnePartOnePctIsPercentile) {
  const std::vector<double> xs{0.1, 0.2, 0.4, 0.8, 1.6};
  EXPECT_EQ(percentile(xs, 95.0), percentiles(spans({xs}), {95.0})[0]);
  EXPECT_DOUBLE_EQ(percentile(xs, 95.0), 0.8 + 0.8 * 0.8);
}

}  // namespace
}  // namespace mmtag::obs
