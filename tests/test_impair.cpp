// Hardware-impairment suite (src/impair): bypass bit-identity against
// the legacy chain, stage composition and RNG-stream discipline,
// scalar/auto backend and thread-count invariance with impairments
// enabled, the decomposed implementation-loss budget (DESIGN.md Sec. 16,
// docs/IMPAIRMENTS.md) and config validation.
#include "src/impair/chain.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/impair/loss.hpp"
#include "src/kern/kern.hpp"
#include "src/phy/frame.hpp"
#include "src/phys/link_budget.hpp"
#include "src/reader/receive_chain.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sweep.hpp"

namespace mmtag::impair {
namespace {

phy::Waveform test_wave(std::size_t n, std::uint64_t seed) {
  sim::Rng rng = sim::make_rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  phy::Waveform wave(n);
  for (auto& s : wave) {
    // Imaginary part first: the order GCC gave the two-call constructor.
    const double im = uniform(rng);
    const double re = uniform(rng);
    s = phy::Complex(re, im);
  }
  return wave;
}

sim::MonteCarloLink::Params small_link_params() {
  sim::MonteCarloLink::Params params;
  params.min_bits = 2'000;
  params.max_bits = 2'000;
  return params;
}

// --- Bypass contract -------------------------------------------------------

TEST(ImpairBypass, OffConfigDrawsNothingAndMatchesLegacyBer) {
  const sim::MonteCarloLink legacy{small_link_params()};
  sim::MonteCarloLink::Params off_params = small_link_params();
  off_params.impairments = ImpairmentConfig::off();
  const sim::MonteCarloLink bypass{off_params};

  for (const double snr : {2.0, 6.0, 10.0}) {
    const auto a = legacy.measure_ber_point(snr, 77);
    const auto b = bypass.measure_ber_point(snr, 77);
    EXPECT_EQ(a.bits_sent, b.bits_sent) << "snr " << snr;
    EXPECT_EQ(a.bit_errors, b.bit_errors) << "snr " << snr;
  }
  const auto fa = legacy.measure_fer_point(8.0, 20, 64, 99);
  const auto fb = bypass.measure_fer_point(8.0, 20, 64, 99);
  EXPECT_EQ(fa.failures, fb.failures);
}

TEST(ImpairBypass, ChainLeavesWaveformUntouched) {
  const ImpairmentChain chain;  // off()
  EXPECT_FALSE(chain.enabled());
  const phy::Waveform original = test_wave(257, 5);
  phy::Waveform wave = original;
  chain.apply(wave, 123);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_EQ(wave[i], original[i]) << "sample " << i;
  }
  EXPECT_EQ(chain.evm_squared_total(), 0.0);
}

TEST(ImpairBypass, ReceiveImpairedEqualsReceive) {
  const reader::ReceiveChain rx(reader::ReceiveChain::Params{8, true});
  phy::TagFrame frame;
  frame.tag_id = 7;
  frame.payload = {1, 0, 1, 1, 0, 0, 1, 0};
  const phy::Waveform wave = rx.encode(frame);

  const ImpairmentChain bypass;
  const auto plain = rx.receive(wave);
  const auto impaired = rx.receive_impaired(wave, bypass, 42);
  ASSERT_TRUE(plain.frame.has_value());
  ASSERT_TRUE(impaired.frame.has_value());
  EXPECT_TRUE(*plain.frame == *impaired.frame);
  EXPECT_EQ(plain.crc_ok, impaired.crc_ok);
  EXPECT_EQ(plain.demodulated_bits, impaired.demodulated_bits);
}

TEST(ImpairStages, ChainAppliesRxStagesInFixedOrder) {
  ImpairmentConfig config = ImpairmentConfig::cmos_24ghz();
  const ImpairmentChain chain(config);
  const std::uint64_t seed = 31;

  phy::Waveform via_chain = test_wave(300, 9);
  phy::Waveform manual = via_chain;
  chain.apply_rx(via_chain, seed);

  const PhaseNoiseStage pn(config.phase_noise);
  const IqImbalanceStage iq(config.iq);
  const AdcStage adc(config.adc);
  pn.apply(manual, seed);
  iq.apply(manual, seed);
  adc.apply(manual, seed);
  for (std::size_t i = 0; i < manual.size(); ++i) {
    EXPECT_EQ(via_chain[i], manual[i]) << "sample " << i;
  }
}

TEST(ImpairStages, StreamsAreSeedPureAndPerStage) {
  PhaseNoiseParams params;
  params.enabled = true;
  const PhaseNoiseStage stage(params);

  const phy::Waveform base = test_wave(128, 3);
  phy::Waveform a = base;
  phy::Waveform b = base;
  phy::Waveform c = base;
  stage.apply(a, 1000);
  stage.apply(b, 1000);
  stage.apply(c, 1001);
  EXPECT_EQ(a, b);  // Same seed: bit-identical.
  EXPECT_NE(a, c);  // Different seed: different realization.

  // A stage's stream depends on its fixed ordinal, not on which other
  // stages are enabled: the ADC stage draws the same jitter whether it
  // runs alone or behind the (deterministic) IQ stage.
  AdcParams adc_params;
  adc_params.enabled = true;
  const AdcStage adc(adc_params);
  phy::Waveform alone = base;
  adc.apply(alone, 555);

  ImpairmentConfig iq_and_adc;
  iq_and_adc.iq.enabled = true;
  iq_and_adc.iq.gain_mismatch_db = 0.0;  // Identity IQ stage...
  iq_and_adc.iq.phase_mismatch_deg = 0.0;
  iq_and_adc.adc = adc_params;
  phy::Waveform behind_iq = base;
  const ImpairmentChain chain(iq_and_adc);
  chain.apply_rx(behind_iq, 555);
  // ...so any difference could only come from a shifted ADC stream.
  EXPECT_EQ(alone, behind_iq);
}

TEST(ImpairStages, DisabledStageIsANoOp) {
  const phy::Waveform base = test_wave(64, 21);
  PaParams pa_off;  // enabled = false
  const PaStage pa(pa_off);
  AdcParams adc_off;
  const AdcStage adc(adc_off);
  phy::Waveform wave = base;
  pa.apply(wave, 1);
  adc.apply(wave, 1);
  EXPECT_EQ(wave, base);
}

TEST(ImpairStages, PaCompressesAndRotates) {
  PaParams params;
  params.enabled = true;
  params.backoff_db = 3.0;  // Hard drive: visible compression.
  params.am_pm_deg_at_sat = 10.0;
  const PaStage stage(params);
  EXPECT_LT(stage.gain_at(1.0), 1.0);
  EXPECT_GT(stage.gain_at(1.0), stage.gain_at(2.0));  // Monotone compression.
  EXPECT_GT(stage.phase_at(1.0), 0.0);
  EXPECT_GT(stage.evm_squared(), 0.0);

  // Small signals pass nearly untouched (g -> 1, theta -> 0).
  EXPECT_NEAR(stage.gain_at(1e-3), 1.0, 1e-9);
  EXPECT_NEAR(stage.phase_at(1e-3), 0.0, 1e-5);
}

TEST(ImpairStages, AdcQuantizesToStepGridAndClips) {
  AdcParams params;
  params.enabled = true;
  params.bits = 4;
  params.full_scale = 1.0;
  params.jitter_ps_rms = 0.0;  // Pure quantizer.
  const AdcStage stage(params);
  EXPECT_DOUBLE_EQ(stage.step(), 2.0 / 16.0);

  phy::Waveform wave = {phy::Complex(0.3, -0.7), phy::Complex(5.0, -5.0),
                        phy::Complex(0.0, 1e-9)};
  stage.apply(wave, 0);
  for (const auto& s : wave) {
    for (const double v : {s.real(), s.imag()}) {
      EXPECT_LE(std::abs(v), params.full_scale + 0.5 * stage.step());
      const double steps = v / stage.step();
      EXPECT_NEAR(steps, std::round(steps), 1e-12) << "off-grid sample";
    }
  }
  // Sub-step inputs land on the zero code (mid-tread).
  EXPECT_EQ(wave[2], phy::Complex(0.0, 0.0));
}

TEST(ImpairStages, IqImbalanceFoldsImage) {
  IqImbalanceParams params;
  params.enabled = true;
  const IqImbalanceStage stage(params);
  // mu stays near 1, nu is small but nonzero.
  EXPECT_NEAR(std::abs(stage.mu()), 1.0, 0.1);
  EXPECT_GT(std::abs(stage.nu()), 0.0);
  EXPECT_LT(std::abs(stage.nu()), 0.1);
  EXPECT_NEAR(stage.evm_squared(),
              std::norm(stage.nu()) / std::norm(stage.mu()), 1e-15);
}

// --- Determinism with impairments enabled ----------------------------------

TEST(ImpairDeterminism, BerSweepThreadCountInvariant) {
  sim::MonteCarloLink::Params params = small_link_params();
  params.impairments = ImpairmentConfig::cmos_24ghz();
  const sim::MonteCarloLink link{params};
  const std::vector<double> snrs = sim::linspace(2.0, 10.0, 3);

  std::vector<std::size_t> reference;
  for (const int threads : {1, 4, sim::default_thread_count()}) {
    sim::ThreadPool pool(threads);
    const auto sweep = link.measure_ber_sweep(snrs, 909, pool);
    std::vector<std::size_t> errors;
    for (const auto& p : sweep.points) errors.push_back(p.bit_errors);
    if (reference.empty()) {
      reference = errors;
    } else {
      EXPECT_EQ(errors, reference) << "threads=" << threads;
    }
  }
}

TEST(ImpairDeterminism, BerSweepBackendInvariant) {
  sim::MonteCarloLink::Params params = small_link_params();
  params.impairments = ImpairmentConfig::cmos_24ghz();
  const sim::MonteCarloLink link{params};
  const std::vector<double> snrs = sim::linspace(2.0, 10.0, 3);
  sim::ThreadPool pool(2);

  ASSERT_TRUE(kern::set_backend(kern::Backend::kScalar));
  const auto scalar_sweep = link.measure_ber_sweep(snrs, 808, pool);
  ASSERT_TRUE(kern::set_backend(kern::Backend::kAuto));
  const auto auto_sweep = link.measure_ber_sweep(snrs, 808, pool);

  for (std::size_t i = 0; i < snrs.size(); ++i) {
    EXPECT_EQ(scalar_sweep.points[i].bits_sent,
              auto_sweep.points[i].bits_sent) << "point " << i;
    EXPECT_EQ(scalar_sweep.points[i].bit_errors,
              auto_sweep.points[i].bit_errors) << "point " << i;
  }
}

TEST(ImpairDeterminism, EnabledChainDegradesBer) {
  const sim::MonteCarloLink clean{small_link_params()};
  sim::MonteCarloLink::Params params = small_link_params();
  params.impairments = ImpairmentConfig::cmos_24ghz();
  // Exaggerate the phase noise so the degradation is unambiguous at
  // small sample counts.
  params.impairments.phase_noise.linewidth_hz = 5.0e6;
  const sim::MonteCarloLink dirty{params};

  const auto a = clean.measure_ber_point(10.0, 4242);
  const auto b = dirty.measure_ber_point(10.0, 4242);
  EXPECT_GT(b.bit_errors, a.bit_errors);
}

// --- Loss decomposition ----------------------------------------------------

TEST(ImpairLoss, StageLossMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(stage_loss_db(0.0, 7.0), 0.0);
  const double gamma = std::pow(10.0, 0.7);
  const double evm2 = 0.01;
  EXPECT_NEAR(stage_loss_db(evm2, 7.0), -10.0 * std::log10(1.0 - gamma * evm2),
              1e-12);
  // At or past the floor the loss clamps.
  EXPECT_DOUBLE_EQ(stage_loss_db(1.0 / gamma, 7.0), kFloorLossDb);
  EXPECT_DOUBLE_EQ(stage_loss_db(10.0, 7.0), kFloorLossDb);
}

TEST(ImpairLoss, Cmos24GhzReproducesTheLegacyBudget) {
  const ImpairmentConfig config = ImpairmentConfig::cmos_24ghz();
  EXPECT_TRUE(config.any_enabled());
  const LossReport report = decompose(config, 7.0);
  // Calibration contract: decomposed total == the prototype's 14 dB.
  EXPECT_NEAR(report.total_db, 14.0, 1e-9);
  EXPECT_FALSE(report.floor_limited);
  EXPECT_GT(report.residual_db, 0.0);

  ASSERT_EQ(report.stages.size(), 4u);
  double evm_sum = 0.0;
  for (const StageLoss& entry : report.stages) {
    EXPECT_TRUE(entry.enabled);
    EXPECT_GT(entry.evm_squared, 0.0) << entry.stage;
    EXPECT_GT(entry.loss_db, 0.0) << entry.stage;
    // Joint loss dominates every stand-alone stage loss.
    EXPECT_GE(report.modelled_db, entry.loss_db) << entry.stage;
    evm_sum += entry.evm_squared;
  }
  EXPECT_NEAR(evm_sum, ImpairmentChain(config).evm_squared_total(), 1e-15);
  EXPECT_NEAR(report.modelled_db, stage_loss_db(evm_sum, 7.0), 1e-12);

  // The calibrated budget therefore preserves the legacy link ranges.
  const phys::BackscatterLinkBudget legacy =
      phys::BackscatterLinkBudget::mmtag_prototype();
  phys::BackscatterLinkBudget swapped = legacy;
  swapped.implementation_loss_db = report.total_db;
  EXPECT_NEAR(swapped.max_range_m(-60.0), legacy.max_range_m(-60.0), 1e-9);
}

TEST(ImpairLoss, FloorLimitedFlagTripsOnExtremeImpairments) {
  ImpairmentConfig config;
  config.phase_noise.enabled = true;
  config.phase_noise.linewidth_hz = 1.0e8;  // Absurd LO: EVM floor > SNR.
  const LossReport report = decompose(config, 7.0);
  EXPECT_TRUE(report.floor_limited);
  EXPECT_DOUBLE_EQ(report.modelled_db, kFloorLossDb);
}

// --- Config validation -----------------------------------------------------

TEST(ImpairConfig, EveryOutOfRangeFieldIsRejectedByName) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Config = ImpairmentConfig;
  // One bad value per rule, each applied alone to the calibrated profile.
  const std::vector<std::pair<std::string, std::function<void(Config&)>>>
      cases = {
          {"phase_noise.linewidth_hz",
           [](Config& c) { c.phase_noise.linewidth_hz = kNan; }},
          {"phase_noise.white_phase_deg_rms",
           [](Config& c) { c.phase_noise.white_phase_deg_rms = -0.1; }},
          {"phase_noise.sample_rate_hz",
           [](Config& c) { c.phase_noise.sample_rate_hz = 0.0; }},
          {"phase_noise.coherence_samples",
           [](Config& c) { c.phase_noise.coherence_samples = 0; }},
          {"pa.backoff_db", [](Config& c) { c.pa.backoff_db = kNan; }},
          {"pa.am_pm_deg_at_sat",
           [](Config& c) { c.pa.am_pm_deg_at_sat = 180.0; }},
          {"iq.gain_mismatch_db",
           [](Config& c) { c.iq.gain_mismatch_db = kInf; }},
          {"iq.phase_mismatch_deg",
           [](Config& c) { c.iq.phase_mismatch_deg = kNan; }},
          {"adc.bits", [](Config& c) { c.adc.bits = 0; }},
          {"adc.bits", [](Config& c) { c.adc.bits = 1100; }},
          {"adc.full_scale", [](Config& c) { c.adc.full_scale = -1.0; }},
          {"adc.jitter_ps_rms", [](Config& c) { c.adc.jitter_ps_rms = kNan; }},
          {"adc.sample_rate_hz",
           [](Config& c) { c.adc.sample_rate_hz = kInf; }},
          {"residual_db", [](Config& c) { c.residual_db = kNan; }},
      };
  const auto expect_rejected = [](const std::string& field,
                                  const std::function<void()>& build) {
    try {
      build();
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };

  EXPECT_NO_THROW(Config::off().validate());
  EXPECT_NO_THROW(Config::cmos_24ghz().validate());
  for (const auto& [field, corrupt] : cases) {
    Config config = Config::cmos_24ghz();
    corrupt(config);
    expect_rejected(field, [&] { config.validate(); });
    // Every consumer of a config builds a chain, so each one rejects it.
    expect_rejected(field, [&] { (void)decompose(config); });
    sim::MonteCarloLink::Params params = small_link_params();
    params.impairments = config;
    expect_rejected(field, [&] { (void)sim::MonteCarloLink{params}; });
  }
}

}  // namespace
}  // namespace mmtag::impair
