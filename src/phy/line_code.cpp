#include "src/phy/line_code.hpp"

namespace mmtag::phy {

BitVector manchester_encode(const BitVector& bits) {
  BitVector chips;
  chips.reserve(bits.size() * 2);
  for (const bool bit : bits) {
    chips.push_back(bit);
    chips.push_back(!bit);
  }
  return chips;
}

BitVector manchester_decode_lenient(const BitVector& chips,
                                    std::size_t& invalid_pairs) {
  invalid_pairs = 0;
  BitVector bits;
  bits.reserve(chips.size() / 2);
  for (std::size_t i = 0; i + 1 < chips.size(); i += 2) {
    if (chips[i] == chips[i + 1]) ++invalid_pairs;
    bits.push_back(chips[i]);
  }
  if (chips.size() % 2 != 0) ++invalid_pairs;
  return bits;
}

}  // namespace mmtag::phy
