#include "src/reader/receive_chain.hpp"

#include <cassert>

#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"

namespace mmtag::reader {

namespace {

obs::Counter& rx_attempts_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("reader.rx.attempts");
  return counter;
}
obs::Counter& rx_preamble_ok_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("reader.rx.preamble_ok");
  return counter;
}
obs::Counter& rx_crc_ok_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("reader.rx.crc_ok");
  return counter;
}
obs::Counter& rx_bits_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("reader.rx.demodulated_bits");
  return counter;
}

}  // namespace

ReceiveChain::ReceiveChain(Params params) : params_(params) {
  assert(params_.samples_per_symbol >= 1);
}

ReceiveResult ReceiveChain::receive(
    std::span<const phy::Complex> samples) const {
  ReceiveResult result;
  const phy::OokDemodulator demod(params_.samples_per_symbol);
  phy::BitVector bits = demod.demodulate(samples);
  result.demodulated_bits = bits.size();

  if (params_.manchester) {
    bits = phy::manchester_decode_lenient(bits, result.invalid_line_pairs);
  }

  // Check the preamble explicitly so the caller can distinguish "never
  // found the frame" from "found it but corrupted".
  const phy::BitVector preamble = phy::TagFrame::preamble();
  result.preamble_ok = bits.size() >= preamble.size();
  if (result.preamble_ok) {
    for (std::size_t i = 0; i < preamble.size(); ++i) {
      if (bits[i] != preamble[i]) {
        result.preamble_ok = false;
        break;
      }
    }
  }

  result.frame = phy::TagFrame::parse(bits);
  result.crc_ok = result.frame.has_value();
  if constexpr (obs::kObsEnabled) {
    rx_attempts_metric().add(1);
    rx_bits_metric().add(result.demodulated_bits);
    if (result.preamble_ok) rx_preamble_ok_metric().add(1);
    if (result.crc_ok) rx_crc_ok_metric().add(1);
  }
  return result;
}

phy::Waveform ReceiveChain::encode(const phy::TagFrame& frame,
                                   double modulation_depth_db) const {
  phy::BitVector bits = frame.serialize();
  if (params_.manchester) bits = phy::manchester_encode(bits);
  const phy::OokModulator mod(params_.samples_per_symbol,
                              modulation_depth_db);
  return mod.modulate(bits);
}

}  // namespace mmtag::reader
