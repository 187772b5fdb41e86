#include "src/scale/tag_store.hpp"

#include <limits>

namespace mmtag::scale {

void TagStore::reserve(std::size_t tags) {
  x_.reserve(tags);
  y_.reserve(tags);
  energy_.reserve(tags);
  first_read_s_.reserve(tags);
  delivered_bits_.reserve(tags);
  polls_.reserve(tags);
}

TagSlot TagStore::create(double x, double y, double energy_j) {
  const auto slot = static_cast<TagSlot>(x_.size());
  x_.push_back(x);
  y_.push_back(y);
  energy_.push_back(energy_j);
  first_read_s_.push_back(std::numeric_limits<double>::infinity());
  delivered_bits_.push_back(0.0);
  polls_.push_back(0);
  return slot;
}

}  // namespace mmtag::scale
