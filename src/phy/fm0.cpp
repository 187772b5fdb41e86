#include "src/phy/fm0.hpp"

#include <cstdint>

namespace mmtag::phy {

BitVector fm0_encode(const BitVector& bits) {
  // Branch-free form of the level automaton: the bit boundary always
  // inverts (c0 = !prev) and the mid-bit inverts for '0'
  // (c1 = c0 ^ !bit), with the idle level high before the first bit.
  BitVector chips(bits.size() * 2);
  std::uint8_t prev = 1;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const std::uint8_t bit = bits[i] ? 1 : 0;
    const std::uint8_t c0 = static_cast<std::uint8_t>(prev ^ 1u);
    const std::uint8_t c1 = static_cast<std::uint8_t>(c0 ^ bit ^ 1u);
    chips[2 * i] = c0 != 0;
    chips[2 * i + 1] = c1 != 0;
    prev = c1;
  }
  return chips;
}

}  // namespace mmtag::phy
