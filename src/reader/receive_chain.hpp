// The reader's demodulation pipeline: waveform -> bits -> frame.
//
// Composes the OOK demodulator, optional Manchester decoding and frame
// parsing into the single call the MAC layer and examples use. The chain
// reports per-stage statistics so failures are attributable (low SNR vs
// framing vs CRC).
#pragma once

#include <cstdint>
#include <optional>

#include "src/phy/frame.hpp"
#include "src/phy/line_code.hpp"
#include "src/phy/ook.hpp"

namespace mmtag::reader {

/// Outcome of one frame reception attempt.
struct ReceiveResult {
  std::optional<phy::TagFrame> frame;   ///< Present on full success.
  std::size_t demodulated_bits = 0;
  std::size_t invalid_line_pairs = 0;   ///< Manchester violations seen.
  bool preamble_ok = false;
  bool crc_ok = false;
};

class ReceiveChain {
 public:
  struct Params {
    int samples_per_symbol = 8;
    bool manchester = true;  ///< Tag uses Manchester line coding.
  };

  explicit ReceiveChain(Params params);

  /// Demodulate `samples` and try to parse one frame from the result.
  /// Assumes the frame starts at sample 0 (slot-aligned MAC).
  [[nodiscard]] ReceiveResult receive(
      std::span<const phy::Complex> samples) const;

  /// The matching transmit-side encoding for tests/examples: frame ->
  /// (optional Manchester) -> OOK samples.
  [[nodiscard]] phy::Waveform encode(const phy::TagFrame& frame,
                                     double modulation_depth_db = 60.0) const;

 private:
  Params params_;
};

}  // namespace mmtag::reader
