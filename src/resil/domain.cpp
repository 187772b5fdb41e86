#include "src/resil/domain.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mmtag::resil {

void DomainSchedule::validate() const {
  for (const OutageDomain& d : domains) {
    if (d.x0 > d.x1) {
      throw std::invalid_argument("OutageDomain::x0 must be <= x1");
    }
    if (d.y0 > d.y1) {
      throw std::invalid_argument("OutageDomain::y0 must be <= y1");
    }
    if (d.start_epoch > d.end_epoch) {
      throw std::invalid_argument(
          "OutageDomain::start_epoch must be <= end_epoch");
    }
  }
}

void DomainSchedule::apply(std::uint64_t epoch, int readers_x, int readers_y,
                           std::vector<std::uint8_t>* up) const {
  assert(readers_x > 0 && readers_y > 0 && up != nullptr);
  const auto n = static_cast<std::size_t>(readers_x) *
                 static_cast<std::size_t>(readers_y);
  up->assign(n, 1);
  for (const OutageDomain& d : domains) {
    if (!d.covers_epoch(epoch)) continue;
    const int x0 = std::clamp(d.x0, 0, readers_x - 1);
    const int x1 = std::clamp(d.x1, 0, readers_x - 1);
    const int y0 = std::clamp(d.y0, 0, readers_y - 1);
    const int y1 = std::clamp(d.y1, 0, readers_y - 1);
    for (int gy = y0; gy <= y1; ++gy) {
      for (int gx = x0; gx <= x1; ++gx) {
        (*up)[static_cast<std::size_t>(gy) *
                  static_cast<std::size_t>(readers_x) +
              static_cast<std::size_t>(gx)] = 0;
      }
    }
  }
}

std::size_t DomainSchedule::down_count(std::uint64_t epoch, int readers_x,
                                       int readers_y) const {
  std::vector<std::uint8_t> up;
  apply(epoch, readers_x, readers_y, &up);
  std::size_t down = 0;
  for (const std::uint8_t u : up) down += u == 0 ? 1 : 0;
  return down;
}

}  // namespace mmtag::resil
