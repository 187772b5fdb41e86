// Higher-order modulation tests (src/phy/modulation).
#include "src/phy/modulation.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "src/phy/ber.hpp"
#include "src/phy/waveform.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::phy {
namespace {

const Scheme kAll[] = {Scheme::kOok, Scheme::kAsk4, Scheme::kBpsk,
                       Scheme::kQpsk};

TEST(Modulation, BitsPerSymbol) {
  EXPECT_EQ(bits_per_symbol(Scheme::kOok), 1);
  EXPECT_EQ(bits_per_symbol(Scheme::kBpsk), 1);
  EXPECT_EQ(bits_per_symbol(Scheme::kAsk4), 2);
  EXPECT_EQ(bits_per_symbol(Scheme::kQpsk), 2);
}

TEST(Modulation, ConstellationsHaveUnitAveragePower) {
  for (const Scheme scheme : kAll) {
    const auto points = constellation(scheme);
    ASSERT_EQ(points.size(),
              static_cast<std::size_t>(1 << bits_per_symbol(scheme)))
        << scheme_name(scheme);
    double power = 0.0;
    for (const Complex& p : points) power += std::norm(p);
    EXPECT_NEAR(power / static_cast<double>(points.size()), 1.0, 1e-12)
        << scheme_name(scheme);
  }
}

TEST(Modulation, OokSchemeMatchesBerModule) {
  for (double snr = 0.0; snr <= 14.0; snr += 2.0) {
    EXPECT_NEAR(scheme_ber(Scheme::kOok, snr), ook_coherent_ber(snr), 1e-12);
  }
}

TEST(Modulation, BpskBeatsOokBy3Db) {
  EXPECT_NEAR(scheme_snr_for_ber_db(Scheme::kOok, 1e-3) -
                  scheme_snr_for_ber_db(Scheme::kBpsk, 1e-3),
              3.01, 0.05);
}

TEST(Modulation, HigherOrderCostsSnr) {
  // 2 bits/symbol is not free: 4-ASK needs much more SNR than OOK, QPSK
  // needs more than BPSK (equal here only because QPSK splits dimensions:
  // QPSK = BPSK + 3 dB at symbol level).
  EXPECT_GT(scheme_snr_for_ber_db(Scheme::kAsk4, 1e-3),
            scheme_snr_for_ber_db(Scheme::kOok, 1e-3) + 5.0);
  EXPECT_NEAR(scheme_snr_for_ber_db(Scheme::kQpsk, 1e-3) -
                  scheme_snr_for_ber_db(Scheme::kBpsk, 1e-3),
              3.01, 0.05);
}

TEST(Modulation, RateDoublesWithBitsPerSymbol) {
  const double b = 2.0e9;
  EXPECT_DOUBLE_EQ(scheme_rate_bps(Scheme::kOok, b), 1e9);
  EXPECT_DOUBLE_EQ(scheme_rate_bps(Scheme::kAsk4, b), 2e9);
  EXPECT_DOUBLE_EQ(scheme_rate_bps(Scheme::kQpsk, b), 2e9);
}

TEST(Modulation, MapDemapRoundTripNoiseless) {
  auto rng = sim::make_rng(91);
  std::bernoulli_distribution coin(0.5);
  for (const Scheme scheme : kAll) {
    BitVector bits(256);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);
    const auto symbols = map_symbols(scheme, bits);
    const BitVector decoded = demap_symbols(scheme, symbols);
    EXPECT_EQ(hamming_distance(bits, decoded), 0u) << scheme_name(scheme);
  }
}

TEST(Modulation, PadsPartialSymbolWithZeros) {
  const auto symbols = map_symbols(Scheme::kQpsk, {true});  // 1 of 2 bits.
  ASSERT_EQ(symbols.size(), 1u);
  const BitVector decoded = demap_symbols(Scheme::kQpsk, symbols);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0]);
  EXPECT_FALSE(decoded[1]);
}

TEST(Modulation, GrayMappingLimitsBitErrorsPerSymbolError) {
  // Monte Carlo at moderate SNR: with Gray mapping, most symbol errors are
  // to a neighbour and flip exactly one of two bits, so BER ~ SER/2.
  auto rng = sim::make_rng(92);
  std::bernoulli_distribution coin(0.5);
  BitVector bits(40'000);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);
  auto symbols = map_symbols(Scheme::kAsk4, bits);

  const double snr_db = 16.0;
  std::normal_distribution<double> gauss(
      0.0, std::sqrt(std::pow(10.0, -snr_db / 10.0) / 2.0));
  std::size_t symbol_errors = 0;
  std::vector<Complex> noisy = symbols;
  for (Complex& s : noisy) {
    // Imaginary part first: the order GCC gave the two-call constructor.
    const double im = gauss(rng);
    const double re = gauss(rng);
    s += Complex(re, im);
  }
  const BitVector decoded = demap_symbols(Scheme::kAsk4, noisy);
  const auto clean_again = demap_symbols(Scheme::kAsk4, symbols);
  for (std::size_t k = 0; k < symbols.size(); ++k) {
    const bool err = decoded[2 * k] != clean_again[2 * k] ||
                     decoded[2 * k + 1] != clean_again[2 * k + 1];
    if (err) ++symbol_errors;
  }
  const std::size_t bit_errors = hamming_distance(decoded, clean_again);
  ASSERT_GT(symbol_errors, 20u);  // Enough statistics.
  const double bits_per_error = static_cast<double>(bit_errors) /
                                static_cast<double>(symbol_errors);
  EXPECT_LT(bits_per_error, 1.2);  // Gray: ~1 bit per symbol error.
}

// Property: Monte-Carlo BER of each scheme tracks its closed form in the
// threshold region (map -> AWGN -> demap, symbol-level).
struct SchemePoint {
  Scheme scheme;
  double snr_db;
};

class SchemeBerTest : public ::testing::TestWithParam<SchemePoint> {};

TEST_P(SchemeBerTest, MatchesClosedForm) {
  const SchemePoint point = GetParam();
  auto rng = sim::make_rng(93 + static_cast<unsigned>(point.snr_db));
  std::bernoulli_distribution coin(0.5);
  BitVector bits(400'000);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng);
  auto symbols = map_symbols(point.scheme, bits);
  std::normal_distribution<double> gauss(
      0.0, std::sqrt(std::pow(10.0, -point.snr_db / 10.0) / 2.0));
  for (Complex& s : symbols) {
    // Imaginary part first: the order GCC gave the two-call constructor.
    const double im = gauss(rng);
    const double re = gauss(rng);
    s += Complex(re, im);
  }
  const BitVector decoded = demap_symbols(point.scheme, symbols);
  const double measured =
      static_cast<double>(hamming_distance(bits, decoded)) /
      static_cast<double>(bits.size());
  const double predicted = scheme_ber(point.scheme, point.snr_db);
  EXPECT_GT(measured, predicted / 1.5);
  EXPECT_LT(measured, predicted * 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeBerTest,
    ::testing::Values(SchemePoint{Scheme::kOok, 6.0},
                      SchemePoint{Scheme::kBpsk, 4.0},
                      SchemePoint{Scheme::kQpsk, 7.0},
                      SchemePoint{Scheme::kAsk4, 14.0}));

}  // namespace
}  // namespace mmtag::phy
