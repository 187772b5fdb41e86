// Grid-correlated fault domains: failures that take out a *rectangle*.
//
// Independent per-reader outages (fault::ReaderOutageModel) miss the
// failure mode that actually hurts a metro deployment: shared
// infrastructure. A power feeder, a backhaul aggregation switch, or a
// flooded conduit does not kill a random reader — it kills every reader
// in a contiguous region at once, which is exactly when per-link
// recovery is useless and a control plane that re-homes service earns
// its keep. An OutageDomain is that incident: an inclusive rectangle of
// the reader grid down for a half-open epoch interval. A DomainSchedule
// is a list of them, applied by scale::MetroWorld on the coordinating
// thread before each epoch's fan-out (no randomness — incidents are
// scripted, so a bench can place one exactly where the margin gate
// needs it).
#pragma once

#include <cstdint>
#include <vector>

namespace mmtag::resil {

/// One scripted incident: readers with grid coordinates in
/// [x0, x1] x [y0, y1] (inclusive) are down for epochs [start, end).
struct OutageDomain {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  std::uint64_t start_epoch = 0;
  std::uint64_t end_epoch = 0;

  [[nodiscard]] bool covers_epoch(std::uint64_t epoch) const {
    return epoch >= start_epoch && epoch < end_epoch;
  }
  [[nodiscard]] bool covers_reader(int gx, int gy) const {
    return gx >= x0 && gx <= x1 && gy >= y0 && gy <= y1;
  }
};

struct DomainSchedule {
  std::vector<OutageDomain> domains;

  [[nodiscard]] bool active() const { return !domains.empty(); }

  /// Throws std::invalid_argument when a domain is inverted (x0 > x1,
  /// y0 > y1 or start_epoch > end_epoch). Corners outside the grid are
  /// legal (they clamp), and so is the empty interval start == end.
  void validate() const;

  /// Write the epoch's up/down mask for a readers_x * readers_y grid
  /// (row-major, reader r at grid (r % readers_x, r / readers_x)).
  /// `up` is resized and starts all-1; domains covering the epoch zero
  /// their rectangles.
  void apply(std::uint64_t epoch, int readers_x, int readers_y,
             std::vector<std::uint8_t>* up) const;
};

}  // namespace mmtag::resil
