// Compile-time slicing-by-8 tables for CRC-16/CCITT-FALSE (poly 0x1021,
// MSB-first). Table k holds, for every byte value b, the CRC state
// contribution of b followed by k zero bytes; eight stream bytes then
// fold into the running state with eight table lookups and XORs instead
// of 64 bit-steps. Used by crc16_bits_sliced, the AVX2 backend's CRC (the
// kernel is table-driven, not SIMD, but it lives behind the same dispatch
// so the scalar reference stays the bitwise original).
#pragma once

#include <array>
#include <cstdint>

namespace mmtag::kern::detail {

inline constexpr std::uint16_t kCrc16Poly = 0x1021;

constexpr std::uint16_t crc16_one_byte(std::uint8_t byte) {
  std::uint16_t crc = static_cast<std::uint16_t>(byte) << 8;
  for (int i = 0; i < 8; ++i) {
    crc = (crc & 0x8000) != 0
              ? static_cast<std::uint16_t>((crc << 1) ^ kCrc16Poly)
              : static_cast<std::uint16_t>(crc << 1);
  }
  return crc;
}

constexpr std::array<std::array<std::uint16_t, 256>, 8> make_crc16_tables() {
  std::array<std::array<std::uint16_t, 256>, 8> tables{};
  for (int b = 0; b < 256; ++b) {
    tables[0][static_cast<std::size_t>(b)] =
        crc16_one_byte(static_cast<std::uint8_t>(b));
  }
  for (int k = 1; k < 8; ++k) {
    for (int b = 0; b < 256; ++b) {
      const std::uint16_t prev = tables[k - 1][static_cast<std::size_t>(b)];
      tables[k][static_cast<std::size_t>(b)] = static_cast<std::uint16_t>(
          (prev << 8) ^ tables[0][prev >> 8]);
    }
  }
  return tables;
}

inline constexpr std::array<std::array<std::uint16_t, 256>, 8> kCrc16Tables =
    make_crc16_tables();

}  // namespace mmtag::kern::detail
