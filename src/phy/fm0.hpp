// FM0 (bi-phase space) line coding — the encoding EPC Gen2 RFID tags use.
//
// Encode-only: ablation A5 (bench_a5_linecode) compares the run lengths
// of FM0 chips against Manchester and scrambled NRZ; the receive chain
// itself decodes Manchester.
//
// FM0 rules: the level always inverts at every bit boundary; a '0' bit adds
// an extra inversion mid-bit, a '1' does not. Each bit therefore occupies
// two half-bit chips; the stream starts from logic high.
#pragma once

#include "src/phy/ook.hpp"

namespace mmtag::phy {

/// Encode `bits` into FM0 half-bit chips (2 chips per bit). The encoder
/// starts from level high (true) and inverts per the FM0 rules.
[[nodiscard]] BitVector fm0_encode(const BitVector& bits);

}  // namespace mmtag::phy
