// Reference tests for the library's engine and its batched normals.
//
// sim::Rng must emit std::mt19937_64's sequence for every seed, and
// phy::normal_pairs must return what libstdc++'s normal_distribution
// returns on the same engine, leaving the engine where the calls would.
// Every pinned digest rests on both, so both are checked here against
// the standard library itself.
#include "src/sim/rng.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "src/phy/normal.hpp"

namespace mmtag {
namespace {

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

std::vector<std::uint64_t> reference_seeds() {
  return {0, 1, 5489, kMax64, sim::derive_seed(2024, 7)};
}

TEST(RngEngine, MatchesMt19937_64ForEverySeed) {
  for (const std::uint64_t seed : reference_seeds()) {
    sim::Rng fast(seed);
    std::mt19937_64 reference(seed);
    // Twelve refills of the 312-word state.
    for (int i = 0; i < 12 * 312; ++i) {
      ASSERT_EQ(fast(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngEngine, MakeRngSeedsTheSameStream) {
  sim::Rng made = sim::make_rng(42);
  std::mt19937_64 reference(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(made(), reference());
  static_assert(sim::Rng::min() == std::mt19937_64::min());
  static_assert(sim::Rng::max() == std::mt19937_64::max());
}

TEST(RngEngine, ConversionContinuesTheStream) {
  for (const int taken : {0, 1, 311, 312, 313, 1000}) {
    sim::Rng fast(99);
    std::mt19937_64 reference(99);
    for (int i = 0; i < taken; ++i) {
      (void)fast();
      (void)reference();
    }
    std::mt19937_64 converted = fast;
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(converted(), reference()) << "after " << taken << " draws";
    }
    // Converting does not advance the source.
    std::mt19937_64 again(99);
    again.discard(taken);
    EXPECT_EQ(fast(), again());
  }
}

TEST(RngEngine, StandardDistributionsSeeTheSameDraws) {
  sim::Rng fast(7);
  std::mt19937_64 reference(7);
  std::bernoulli_distribution coin(0.5);
  std::uniform_real_distribution<double> real(-3.0, 5.0);
  std::uniform_int_distribution<int> small(0, 9);
  std::uniform_int_distribution<std::uint64_t> wide(0, kMax64 / 3);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(coin(fast), coin(reference));
    ASSERT_EQ(real(fast), real(reference));
    ASSERT_EQ(small(fast), small(reference));
    ASSERT_EQ(wide(fast), wide(reference));
  }
}

/// n pairs of calls to one fresh normal_distribution, as normal_pairs
/// promises to return them.
template <typename Engine>
std::pair<std::vector<double>, std::vector<double>> reference_pairs(
    Engine& rng, double mean, double stddev, std::size_t n) {
  std::normal_distribution<double> gauss(mean, stddev);
  std::vector<double> first(n);
  std::vector<double> second(n);
  for (std::size_t i = 0; i < n; ++i) {
    first[i] = gauss(rng);
    second[i] = gauss(rng);
  }
  return {first, second};
}

template <typename Engine>
void expect_pairs_match(std::uint64_t seed) {
  const std::pair<double, double> params[] = {{0.0, 1.0}, {-1.5, 0.3}};
  for (const auto& [mean, stddev] : params) {
    for (const std::size_t n : {0u, 1u, 2u, 255u, 256u, 257u, 1000u}) {
      Engine batched(seed);
      Engine reference(seed);
      std::vector<double> first(n);
      std::vector<double> second(n);
      phy::normal_pairs(batched, mean, stddev, n, first.data(),
                        second.data());
      const auto expected = reference_pairs(reference, mean, stddev, n);
      // Exact equality: the values must be the same doubles.
      EXPECT_EQ(first, expected.first) << "n " << n << " mean " << mean;
      EXPECT_EQ(second, expected.second) << "n " << n << " mean " << mean;
      EXPECT_EQ(batched(), reference()) << "n " << n << " mean " << mean;
    }
  }
}

TEST(NormalPairs, MatchesNormalDistributionOnMt19937_64) {
  expect_pairs_match<std::mt19937_64>(11);
}

TEST(NormalPairs, MatchesNormalDistributionOnRng) {
  expect_pairs_match<sim::Rng>(11);
  expect_pairs_match<sim::Rng>(kMax64);
}

/// An engine that replays a script of raw words.
class ScriptedEngine {
 public:
  using result_type = std::uint64_t;
  explicit ScriptedEngine(std::vector<std::uint64_t> words)
      : words_(std::move(words)) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kMax64; }
  result_type operator()() { return words_.at(next_++); }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t next_ = 0;
};

TEST(NormalPairs, CanonicalDoubleMatchesGenerateCanonical) {
  // Rounding ties of the 64-to-53-bit conversion, the top of the range
  // (which rounds to 2^64 and is clamped below 1), the bottom, and the
  // draws that land on 0.8 and one double below it (a Bernoulli edge).
  const auto eight_tenths = static_cast<std::uint64_t>(0.8 * 0x1p64);
  const std::vector<std::uint64_t> words = {
      eight_tenths,
      eight_tenths - (1ull << 11),
      0,
      1,
      (1ull << 53) + 1,
      (1ull << 54) + 2,
      (1ull << 63) - 1,
      1ull << 63,
      (1ull << 63) + (1ull << 10),
      (1ull << 63) + (1ull << 10) + 1,
      (1ull << 63) + (3ull << 10),
      kMax64 - (1ull << 10),
      kMax64 - (1ull << 10) + 1,
      kMax64};
  ScriptedEngine engine(words);
  ScriptedEngine uniform_engine(words);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  for (const std::uint64_t word : words) {
    EXPECT_EQ(phy::canonical_double(word),
              (std::generate_canonical<double, 53>(engine)))
        << word;
    EXPECT_EQ(phy::canonical_double(word), uniform(uniform_engine)) << word;
  }
  // The library's coins: libstdc++'s Bernoulli draw is canonical < p.
  for (const double p : {0.0, 0.5, 0.8, 1.0}) {
    ScriptedEngine bernoulli_engine(words);
    std::bernoulli_distribution bernoulli(p);
    for (const std::uint64_t word : words) {
      EXPECT_EQ(phy::canonical_double(word) < p, bernoulli(bernoulli_engine))
          << "p = " << p << ", word " << word;
    }
  }
}

TEST(NormalPairs, RejectsTheOriginAndTheOutsideOfTheDisc) {
  // Attempt 1: u = 0.5, 0.5 is the origin (r2 == 0); attempt 2: a corner
  // (r2 > 1); attempt 3 is accepted. Both ways must read six words.
  const std::vector<std::uint64_t> words = {
      1ull << 63, 1ull << 63, 0, 0, (1ull << 63) + (1ull << 61),
      (1ull << 62), 12345};
  ScriptedEngine batched(words);
  ScriptedEngine reference(words);
  double first = 0.0;
  double second = 0.0;
  phy::normal_pairs(batched, 0.0, 1.0, 1, &first, &second);
  const auto expected = reference_pairs(reference, 0.0, 1.0, 1);
  EXPECT_EQ(first, expected.first[0]);
  EXPECT_EQ(second, expected.second[0]);
  EXPECT_EQ(batched(), 12345u);
  EXPECT_EQ(reference(), 12345u);
}

}  // namespace
}  // namespace mmtag
