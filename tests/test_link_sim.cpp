// Monte-Carlo link-simulation tests (src/sim/link_sim) — experiment E4's
// machinery: the sample-level modem must agree with the closed forms.
#include "src/sim/link_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/phy/ber.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sweep.hpp"

namespace mmtag::sim {
namespace {

TEST(MonteCarloLink, VeryHighSnrIsErrorFree) {
  auto rng = make_rng(61);
  const MonteCarloLink link{MonteCarloLink::Params{}};
  const BerMeasurement m = link.measure_ber(30.0, rng);
  EXPECT_EQ(m.bit_errors, 0u);
  EXPECT_GE(m.bits_sent, link.params().min_bits);
}

TEST(MonteCarloLink, VeryLowSnrApproachesCoinFlip) {
  auto rng = make_rng(62);
  const MonteCarloLink link{MonteCarloLink::Params{}};
  const BerMeasurement m = link.measure_ber(-15.0, rng);
  EXPECT_GT(m.ber(), 0.2);
  EXPECT_LT(m.ber(), 0.55);
}

TEST(MonteCarloLink, BerMonotoneInSnr) {
  auto rng = make_rng(63);
  const MonteCarloLink link{MonteCarloLink::Params{}};
  const double low = link.measure_ber(2.0, rng).ber();
  const double mid = link.measure_ber(6.0, rng).ber();
  const double high = link.measure_ber(10.0, rng).ber();
  EXPECT_GT(low, mid);
  EXPECT_GT(mid, high);
}

TEST(MonteCarloLink, FrameErrorRateEdges) {
  const MonteCarloLink link{MonteCarloLink::Params{}};
  EXPECT_DOUBLE_EQ(link.measure_fer_point(30.0, 20, 96, 64).fer(), 0.0);
  EXPECT_GT(link.measure_fer_point(-10.0, 20, 96, 65).fer(), 0.9);
}

TEST(MonteCarloLink, EnvelopeDetectionCostsSnr) {
  // The spectrum-analyzer-style envelope detector is measurably worse than
  // coherent detection at the same symbol SNR.
  auto rng_a = make_rng(66);
  auto rng_b = make_rng(66);
  MonteCarloLink::Params params;
  params.min_bits = 100'000;
  const MonteCarloLink link{params};
  const double coherent = link.measure_ber(6.0, rng_a).ber();

  // Re-run the same experiment with an envelope demodulator, inline.
  const phy::OokModulator mod(params.samples_per_symbol,
                              params.modulation_depth_db);
  const phy::OokDemodulator envelope(params.samples_per_symbol,
                                     phy::OokDetection::kEnvelope);
  std::bernoulli_distribution coin(0.5);
  std::size_t errors = 0;
  std::size_t sent = 0;
  while (sent < params.min_bits) {
    phy::BitVector bits(params.block_bits);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = coin(rng_b);
    phy::Waveform wave = mod.modulate(bits);
    phy::add_awgn(wave,
                  phy::noise_power_for_snr(phy::mean_power(wave), 6.0) *
                      params.samples_per_symbol,
                  rng_b);
    errors += phy::hamming_distance(bits, envelope.demodulate(wave));
    sent += bits.size();
  }
  const double envelope_ber =
      static_cast<double>(errors) / static_cast<double>(sent);
  EXPECT_GT(envelope_ber, coherent);
}

// The E4 agreement test: the measured waveform-level BER must track the
// coherent-OOK closed form within Monte-Carlo tolerance across the
// threshold region. This validates the analytic shortcut the paper's
// Fig. 7 rate labels rely on.
struct BerPoint {
  double snr_db;
  double tolerance_factor;  ///< Allowed multiplicative deviation.
};

class BerAgreementTest : public ::testing::TestWithParam<BerPoint> {};

TEST_P(BerAgreementTest, MatchesClosedForm) {
  const BerPoint point = GetParam();
  auto rng = make_rng(65 + static_cast<unsigned>(point.snr_db * 10));
  MonteCarloLink::Params params;
  params.min_bits = 200'000;
  const MonteCarloLink link{params};
  const double measured = link.measure_ber(point.snr_db, rng).ber();
  const double predicted = phy::ook_coherent_ber(point.snr_db);
  EXPECT_GT(measured, predicted / point.tolerance_factor);
  EXPECT_LT(measured, predicted * point.tolerance_factor);
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdRegion, BerAgreementTest,
    ::testing::Values(BerPoint{2.0, 1.4}, BerPoint{4.0, 1.4},
                      BerPoint{6.0, 1.5}, BerPoint{8.0, 1.8}));

/// Wilson score interval of `k` errors in `n` trials at two-sided `z`.
std::pair<double, double> wilson_interval(std::size_t k, std::size_t n,
                                          double z) {
  const double nn = static_cast<double>(n);
  const double phat = static_cast<double>(k) / nn;
  const double z2 = z * z;
  const double centre = (phat + z2 / (2 * nn)) / (1 + z2 / nn);
  const double half = z / (1 + z2 / nn) *
                      std::sqrt(phat * (1 - phat) / nn + z2 / (4 * nn * nn));
  return {centre - half, centre + half};
}

// The closed form as an oracle across the whole 0-12 dB grid, not just the
// threshold region: at 100k bits per point every measured count must
// admit ook_coherent_ber inside its z = 5 Wilson interval. The seed is the
// one perfbench's link gate derives at --seed 1.
TEST(MonteCarloLink, BerSweepInsideWilsonIntervalOfClosedForm) {
  MonteCarloLink::Params params;
  params.min_bits = 100'000;
  params.max_bits = 100'000;
  const MonteCarloLink link{params};
  const std::vector<double> snrs = linspace(0.0, 12.0, 7);
  ThreadPool pool(4);
  const BerSweepResult sweep =
      link.measure_ber_sweep(snrs, derive_seed(1, 0x626572), pool);
  ASSERT_EQ(sweep.points.size(), snrs.size());
  for (std::size_t i = 0; i < snrs.size(); ++i) {
    const BerMeasurement& m = sweep.points[i];
    EXPECT_EQ(m.bits_sent, params.max_bits);
    const auto [low, high] = wilson_interval(m.bit_errors, m.bits_sent, 5.0);
    const double analytic = phy::ook_coherent_ber(snrs[i]);
    EXPECT_GE(analytic, low) << snrs[i] << " dB, " << m.bit_errors;
    EXPECT_LE(analytic, high) << snrs[i] << " dB, " << m.bit_errors;
  }
}

}  // namespace
}  // namespace mmtag::sim
