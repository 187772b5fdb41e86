#include "src/phy/scrambler.hpp"

#include <algorithm>
#include <cassert>

namespace mmtag::phy {

Scrambler::Scrambler(std::uint16_t seed) : state_(seed) {
  assert(seed != 0 && "an all-zero LFSR is stuck");
}

bool Scrambler::next_bit() {
  // PRBS-15: feedback from taps 15 and 14 (1-indexed).
  const std::uint16_t bit14 = static_cast<std::uint16_t>((state_ >> 14) & 1u);
  const std::uint16_t bit13 = static_cast<std::uint16_t>((state_ >> 13) & 1u);
  const std::uint16_t feedback = bit14 ^ bit13;
  state_ = static_cast<std::uint16_t>(((state_ << 1) | feedback) & 0x7FFF);
  return feedback != 0;
}

BitVector Scrambler::scramble(const BitVector& bits) {
  BitVector out;
  out.reserve(bits.size());
  for (const bool bit : bits) {
    out.push_back(bit != next_bit());
  }
  return out;
}

std::size_t Scrambler::longest_run(const BitVector& bits) {
  std::size_t longest = 0;
  std::size_t current = 0;
  bool level = false;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i == 0 || bits[i] == level) {
      ++current;
    } else {
      current = 1;
    }
    level = bits[i];
    longest = std::max(longest, current);
  }
  return longest;
}

}  // namespace mmtag::phy
