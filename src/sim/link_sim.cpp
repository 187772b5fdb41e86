#include "src/sim/link_sim.hpp"

#include <cassert>
#include <numeric>

#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/phy/frame.hpp"
#include "src/phy/normal.hpp"
#include "src/phy/waveform.hpp"

namespace mmtag::sim {

namespace {

obs::Counter& link_bits_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("sim.link.bits");
  return counter;
}
obs::Counter& link_frames_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("sim.link.frames");
  return counter;
}

/// One data bit: what std::bernoulli_distribution(0.5) returns on the
/// same draw.
bool fair_bit(Rng& rng) { return phy::canonical_double(rng()) < 0.5; }

}  // namespace

MonteCarloLink::MonteCarloLink(Params params)
    : params_(params), chain_(params.impairments) {
  assert(params_.samples_per_symbol >= 1);
  assert(params_.block_bits >= 2);
}

std::size_t MonteCarloLink::effective_max_bits() const {
  const std::size_t cap =
      params_.max_bits > 0 ? params_.max_bits : 10 * params_.min_bits;
  // The cap can never cut a measurement below min_bits' first block.
  return cap < params_.block_bits ? params_.block_bits : cap;
}

BerMeasurement MonteCarloLink::measure_ber(double snr_db,
                                           Rng& rng) const {
  const phy::OokModulator mod(params_.samples_per_symbol,
                              params_.modulation_depth_db);
  const phy::OokDemodulator demod(params_.samples_per_symbol);
  const std::size_t max_bits = effective_max_bits();

  BerMeasurement measurement;
  // Adaptive termination: run until BOTH min_bits and target_bit_errors
  // are satisfied (whichever happens later), bounded by max_bits. Noisy
  // points stop at min_bits; nearly-clean points keep sampling until the
  // error count is statistically meaningful or the cap is hit.
  while (measurement.bits_sent < max_bits &&
         (measurement.bits_sent < params_.min_bits ||
          measurement.bit_errors < params_.target_bit_errors)) {
    phy::BitVector bits(params_.block_bits);
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = fair_bit(rng);

    phy::Waveform wave = mod.modulate(bits);
    // One impairment seed per block, drawn from the point's stream only
    // when impairments are on — bypass leaves the legacy stream intact.
    std::uint64_t block_seed = 0;
    if (chain_.enabled()) {
      block_seed = rng();
      chain_.apply_tx(wave, block_seed);
    }
    // snr_db is the per-SYMBOL average SNR (the convention of ber.hpp's
    // closed forms). The integrate-and-dump filter averages
    // samples_per_symbol noise samples, so the per-sample noise must be
    // that factor larger to land at the requested symbol SNR. Signal
    // power is measured after the TX-side stages (PA compression is a
    // real power loss, not extra noise).
    const double signal_power = phy::mean_power(wave);
    assert(signal_power > 0.0);
    const double per_sample_noise =
        phy::noise_power_for_snr(signal_power, snr_db) *
        params_.samples_per_symbol;
    phy::add_awgn(wave, per_sample_noise, rng);
    if (chain_.enabled()) {
      chain_.apply_rx(wave, block_seed);
    }

    const phy::BitVector decoded = demod.demodulate(wave);
    measurement.bit_errors += phy::hamming_distance(bits, decoded);
    measurement.bits_sent += bits.size();
  }
  return measurement;
}

BerMeasurement MonteCarloLink::measure_ber_point(double snr_db,
                                                 std::uint64_t seed) const {
  Rng rng = make_rng(seed);
  return measure_ber(snr_db, rng);
}

FerMeasurement MonteCarloLink::run_fer(double snr_db, int frames,
                                       std::size_t payload_bits,
                                       Rng& rng) const {
  assert(frames >= 1);
  const reader::ReceiveChain chain(
      reader::ReceiveChain::Params{params_.samples_per_symbol, true});

  int failures = 0;
  for (int f = 0; f < frames; ++f) {
    phy::TagFrame frame;
    frame.tag_id = static_cast<std::uint32_t>(f + 1);
    frame.payload.resize(payload_bits);
    for (std::size_t i = 0; i < payload_bits; ++i) frame.payload[i] = fair_bit(rng);

    phy::Waveform wave = chain.encode(frame, params_.modulation_depth_db);
    // Same per-block seeding discipline as measure_ber: one draw per
    // frame, only when impairments are on.
    std::uint64_t frame_seed = 0;
    if (chain_.enabled()) {
      frame_seed = rng();
      chain_.apply_tx(wave, frame_seed);
    }
    const double signal_power = phy::mean_power(wave);
    // Same per-symbol SNR convention as measure_ber.
    phy::add_awgn(wave,
                  phy::noise_power_for_snr(signal_power, snr_db) *
                      params_.samples_per_symbol,
                  rng);
    if (chain_.enabled()) {
      chain_.apply_rx(wave, frame_seed);
    }

    const reader::ReceiveResult result = chain.receive(wave);
    if (!result.frame.has_value() || !(*result.frame == frame)) ++failures;
  }
  return FerMeasurement{frames, failures};
}

FerMeasurement MonteCarloLink::measure_fer_point(double snr_db, int frames,
                                                 std::size_t payload_bits,
                                                 std::uint64_t seed) const {
  Rng rng = make_rng(seed);
  return run_fer(snr_db, frames, payload_bits, rng);
}

BerSweepResult MonteCarloLink::measure_ber_sweep(
    std::span<const double> snr_db, std::uint64_t base_seed,
    ThreadPool& pool) const {
  MMTAG_OBS_SPAN("sim.link.ber_sweep");
  BerSweepResult result;
  result.points = parallel_monte_carlo(
      pool, snr_db.size(), base_seed,
      [&](Rng& rng, std::size_t i) {
        return measure_ber(snr_db[i], rng);
      },
      &result.stats);
  result.stats.units = std::accumulate(
      result.points.begin(), result.points.end(), std::uint64_t{0},
      [](std::uint64_t acc, const BerMeasurement& m) {
        return acc + m.bits_sent;
      });
  if constexpr (obs::kObsEnabled) {
    link_bits_metric().add(result.stats.units);
  }
  return result;
}

FerSweepResult MonteCarloLink::measure_fer_sweep(
    std::span<const double> snr_db, int frames, std::size_t payload_bits,
    std::uint64_t base_seed, ThreadPool& pool) const {
  MMTAG_OBS_SPAN("sim.link.fer_sweep");
  FerSweepResult result;
  result.points = parallel_monte_carlo(
      pool, snr_db.size(), base_seed,
      [&](Rng& rng, std::size_t i) {
        return run_fer(snr_db[i], frames, payload_bits, rng);
      },
      &result.stats);
  result.stats.units = static_cast<std::uint64_t>(frames) * snr_db.size();
  if constexpr (obs::kObsEnabled) {
    link_frames_metric().add(result.stats.units);
  }
  return result;
}

}  // namespace mmtag::sim
