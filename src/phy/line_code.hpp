// Manchester line coding for OOK backscatter.
//
// Long runs of '1' bits leave the tag absorbing — the reader sees silence
// and can lose its amplitude reference (and the tag stops re-radiating
// entirely). Manchester coding guarantees a transition every bit: it
// doubles the symbol rate but makes the stream dc-balanced and
// self-clocking, which is why practically every backscatter standard uses
// it (or FM0, its cousin). The energy model also uses its guaranteed
// one-edge-per-bit property.
#pragma once

#include "src/phy/ook.hpp"

namespace mmtag::phy {

/// Encode: each bit becomes two chips, 1 -> {1,0}, 0 -> {0,1} (IEEE 802.3
/// convention).
[[nodiscard]] BitVector manchester_encode(const BitVector& bits);

/// Decode chip pairs back to bits, leniently: an invalid pair ({0,0} or
/// {1,1}, which signals corruption) resolves to its first chip's value and
/// is counted in `invalid_pairs`, as is a trailing odd chip. Keeps a link
/// limping at low SNR while still reporting quality.
[[nodiscard]] BitVector manchester_decode_lenient(const BitVector& chips,
                                                  std::size_t& invalid_pairs);

}  // namespace mmtag::phy
