// Waveform-level Monte-Carlo link simulation (experiment E4).
//
// The paper converts measured power to rate through an analytic SNR
// threshold. This simulator closes the loop: it runs actual bits through
// the OOK modulator, a complex AWGN channel at a controlled SNR, and the
// blind demodulator, then counts errors — verifying that the analytic
// table and the sample-level system agree. A frame-level variant reports
// frame error rates through the full receive chain (Manchester + CRC).
//
// Sweeps (the hot path of every bench) run through the parallel engine:
// measure_ber_sweep / measure_fer_sweep shard the SNR grid across the
// caller's ThreadPool with one deterministic RNG stream per point, so a
// sweep is bit-identical for any thread count. The self-seeded
// measure_*_point calls are the same unit of work for one point;
// measure_ber on a caller's engine is the BER loop itself, which a sweep
// runs once per point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/impair/chain.hpp"
#include "src/phy/ook.hpp"
#include "src/reader/receive_chain.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"

namespace mmtag::sim {

struct BerMeasurement {
  std::size_t bits_sent = 0;
  std::size_t bit_errors = 0;

  [[nodiscard]] double ber() const {
    return bits_sent == 0
               ? 0.0
               : static_cast<double>(bit_errors) /
                     static_cast<double>(bits_sent);
  }
};

struct FerMeasurement {
  int frames = 0;
  int failures = 0;

  [[nodiscard]] double fer() const {
    return frames == 0
               ? 0.0
               : static_cast<double>(failures) / static_cast<double>(frames);
  }
};

/// One BER point per grid entry plus the sweep's throughput counters
/// (units = bits simulated).
struct BerSweepResult {
  std::vector<BerMeasurement> points;
  SweepStats stats;
};

/// One FER point per grid entry plus counters (units = frames simulated).
struct FerSweepResult {
  std::vector<FerMeasurement> points;
  SweepStats stats;
};

class MonteCarloLink {
 public:
  struct Params {
    int samples_per_symbol = 8;
    double modulation_depth_db = 60.0;
    /// Minimum bits per measurement; actual count rounds up to whole
    /// blocks.
    std::size_t min_bits = 20'000;
    std::size_t block_bits = 1'000;
    /// Adaptive termination: a point keeps running past min_bits until it
    /// has seen this many bit errors (rare-error points get more trials),
    /// and stops early once both thresholds are met — whichever is later.
    std::size_t target_bit_errors = 100;
    /// Hard cap on bits per point; 0 selects 10 * min_bits.
    std::size_t max_bits = 0;
    /// Hardware-impairment stages (DESIGN.md Sec. 16). TX-side stages
    /// run before the AWGN channel, RX-side stages after it, each block
    /// / frame under its own derived seed. The default (all off) is the
    /// bypass mode: no RNG draws, bit-identical to the legacy chain.
    impair::ImpairmentConfig impairments{};
  };

  explicit MonteCarloLink(Params params);

  /// Measure OOK BER at average SNR `snr_db` (signal power averaged over
  /// equiprobable bits; noise in the symbol-rate bandwidth).
  /// Sequential entry point; sweeps must use measure_ber_sweep so each
  /// point gets its own RNG stream.
  [[nodiscard]] BerMeasurement measure_ber(double snr_db,
                                           Rng& rng) const;

  /// Self-seeded single point: the unit of work behind the sweeps.
  [[nodiscard]] BerMeasurement measure_ber_point(double snr_db,
                                                 std::uint64_t seed) const;

  /// Self-seeded frame error rate through the full receive chain at
  /// `snr_db`: `frames` frames of `payload_bits` random payload each.
  [[nodiscard]] FerMeasurement measure_fer_point(double snr_db, int frames,
                                                 std::size_t payload_bits,
                                                 std::uint64_t seed) const;

  /// Measure every SNR point of `snr_db` on `pool`. Point i uses RNG
  /// stream derive_seed(base_seed, i): results are bit-identical for any
  /// thread count, including 1.
  [[nodiscard]] BerSweepResult measure_ber_sweep(
      std::span<const double> snr_db, std::uint64_t base_seed,
      ThreadPool& pool) const;

  /// Frame-error-rate sweep with the same seeding discipline.
  [[nodiscard]] FerSweepResult measure_fer_sweep(
      std::span<const double> snr_db, int frames, std::size_t payload_bits,
      std::uint64_t base_seed, ThreadPool& pool) const;

  [[nodiscard]] const Params& params() const { return params_; }

  /// The impairment pipeline built from Params::impairments.
  [[nodiscard]] const impair::ImpairmentChain& impairments() const {
    return chain_;
  }

  /// Effective per-point bit cap (resolves the max_bits = 0 default).
  [[nodiscard]] std::size_t effective_max_bits() const;

 private:
  /// Exact frame loop behind both FER entry points.
  [[nodiscard]] FerMeasurement run_fer(double snr_db, int frames,
                                       std::size_t payload_bits,
                                       Rng& rng) const;

  Params params_;
  impair::ImpairmentChain chain_;
};

}  // namespace mmtag::sim
